// The benchmark's three seeded workloads against cbs's public API. Each one
// sets up (everything up to the first operation), then runs checked
// operations one at a time; the traced run also asks it for its per-layer
// rows. All inputs derive from the seed; the program sees only the inputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ledger.hpp"

namespace perfbench {

enum class Kind { resonant_assay, static_assay, yield_study };
inline constexpr Kind kAllKinds[] = {Kind::resonant_assay, Kind::static_assay,
                                     Kind::yield_study};

[[nodiscard]] std::optional<Kind> parse_kind(std::string_view name);
[[nodiscard]] std::string_view kind_name(Kind kind);

struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// splitmix64 finalizer: derives independent sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

class Workload {
public:
    virtual ~Workload() = default;

    /// Everything up to the first operation (pool start, construction, gain
    /// setting, offset calibration, grid fabrication, baseline scan).
    virtual void setup(Tracer& tracer) = 0;
    /// Operations that reach every check of the workload once (the traced
    /// run's passes never run fewer).
    [[nodiscard]] virtual std::size_t min_ops() const = 0;
    /// One operation with its output checks; its outputs go into `digest`.
    virtual void op(Tracer& tracer, FailureLedger& failures, Digest& digest) = 0;
    /// Work done by the operations so far, in `work_unit()`.
    [[nodiscard]] virtual double work() const = 0;
    /// Name and unit of the workload's own throughput (work per wall s).
    [[nodiscard]] virtual std::string_view work_metric() const = 0;
    [[nodiscard]] virtual std::string_view work_unit() const = 0;

    /// Further rows the workload records about itself (none by default).
    virtual void extra_rows(Metrics& /*out*/) const {}

    /// Traced run only: bitwise pool-vs-serial checks and the pool speedup.
    virtual void pool_checks(FailureLedger& failures, Metrics& out) = 0;
    /// Traced run only: per-layer rows from the spans of `setups` set-ups
    /// and `ops` operations, plus kernel replays at this workload's
    /// parameters, each given at most `replay_s` seconds.
    virtual void layer_rows(const std::map<std::string, SelfTime>& setup_self,
                            std::size_t setups, const std::map<std::string, SelfTime>& op_self,
                            std::size_t ops, double replay_s, Metrics& out) = 0;
};

/// The pooled workloads (static_assay, yield_study) start their own pool of
/// `threads` workers in set-up: a user pays for it before the first
/// operation. resonant_assay runs on the calling thread only.
[[nodiscard]] std::unique_ptr<Workload> make_workload(Kind kind, std::uint64_t seed,
                                                      std::size_t threads);

}  // namespace perfbench
