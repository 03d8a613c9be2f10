// Measurement helpers of the cbs benchmark: span recording with self time,
// tail-percentile selection, failure counting, output digests and the
// layer-reconciliation arithmetic. Nothing here touches cbs itself; the
// workloads wrap their calls into cbs in these spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// One recorded interval. `parent` is the index of the enclosing span in
/// the tracer's list, or -1 for a root; spans of one operation share `op`.
struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
};

/// In-memory span recorder for one thread. Disabled, it reads no clock and
/// stores nothing, so untraced runs pay one branch per span site.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /// Operation id stamped on spans begun from now on.
    void set_op(std::uint64_t op) { op_ = op; }

    /// Opens a span nested in the innermost open one; -1 when disabled.
    std::int64_t begin(std::string_view name);
    /// Closes span `id` (a no-op for -1). Spans close innermost first.
    void end(std::int64_t id);

    /// Records a finished span directly (begin() uses it; so do tests).
    std::int64_t add(std::string_view name, double start_s, double end_s, std::int64_t parent,
                     std::uint64_t op = 0);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    bool enabled_;
    Clock::time_point origin_;
    std::uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/// RAII span around one call into a layer.
class Scope {
public:
    Scope(Tracer& tracer, std::string_view name) : tracer_(tracer), id_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& tracer_;
    std::int64_t id_;
};

/// Total self time and call count of every span name. A span's self time
/// is its duration minus the part of its interval that its children cover.
struct SelfTime {
    double seconds = 0.0;
    std::size_t calls = 0;
};
[[nodiscard]] std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

/// The highest percentile that still has at least `min_beyond` samples
/// strictly above it (nearest-rank definition), with the count recorded.
struct Tail {
    double value = 0.0;
    double percentile = 0.0;  ///< in percent
    std::size_t beyond = 0;   ///< samples strictly above `value`
    std::size_t samples = 0;
};
/// Throws std::invalid_argument when fewer than min_beyond + 1 samples exist.
[[nodiscard]] Tail tail_percentile(std::vector<double> samples, std::size_t min_beyond = 10);

[[nodiscard]] double median(std::vector<double> values);

/// Counts operations and the ones with at least one failed check.
class FailureLedger {
public:
    void begin_op() { op_failed_ = false; }
    /// Records one check of the current operation; returns `ok`.
    bool check(bool ok, std::string_view what);
    void end_op();

    [[nodiscard]] std::size_t attempted() const { return attempted_; }
    [[nodiscard]] std::size_t failed() const { return failed_; }
    [[nodiscard]] double fail_frac() const {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) / static_cast<double>(attempted_);
    }
    /// First few failure messages, for the report.
    [[nodiscard]] const std::vector<std::string>& messages() const { return messages_; }

private:
    bool op_failed_ = false;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> messages_;
};

/// Order-sensitive FNV-1a digest over the exact bits of a run's outputs.
class Digest {
public:
    void add(double v);
    void add(std::uint64_t v);
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One replayed kernel's cost and how many times the enclosing loop ran it.
struct LayerTerm {
    double ns_per_unit = 0.0;
    double units = 0.0;
};
/// 1 - sum(ns_per_unit * units) / self time: the share of the enclosing
/// span that the replayed layers do not account for.
[[nodiscard]] double residual_frac(std::span<const LayerTerm> terms, double self_s);

}  // namespace perfbench
