#include "ledger.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::begin(std::string_view name) {
    if (!enabled_) return -1;
    const double now = seconds_between(origin_, Clock::now());
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    const std::int64_t id = add(name, now, now, parent, op_);
    open_.push_back(id);
    return id;
}

void Tracer::end(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, Clock::now());
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::int64_t Tracer::add(std::string_view name, double start_s, double end_s,
                         std::int64_t parent, std::uint64_t op) {
    spans_.push_back(Span{std::string(name), start_s, end_s, parent, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
    // Children of each span, clipped to the parent's interval; their union
    // is subtracted, so overlapping children are not counted twice.
    std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
    for (const auto& s : spans) {
        if (s.parent < 0) continue;
        const auto& p = spans.at(static_cast<std::size_t>(s.parent));
        const double a = std::max(s.start_s, p.start_s);
        const double b = std::min(s.end_s, p.end_s);
        if (b > a) covered[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = covered[i];
        std::sort(iv.begin(), iv.end());
        double union_s = 0.0;
        double cur_a = 0.0, cur_b = 0.0;
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open) union_s += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open) union_s += cur_b - cur_a;
        auto& st = out[spans[i].name];
        st.seconds += (spans[i].end_s - spans[i].start_s) - union_s;
        ++st.calls;
    }
    return out;
}

Tail tail_percentile(std::vector<double> samples, std::size_t min_beyond) {
    const std::size_t n = samples.size();
    if (n < min_beyond + 1) {
        throw std::invalid_argument("tail_percentile: " + std::to_string(n) +
                                    " samples cannot leave " + std::to_string(min_beyond) +
                                    " beyond any percentile");
    }
    std::sort(samples.begin(), samples.end());
    // Start at the (min_beyond+1)-th largest sample and step down past ties
    // until at least min_beyond samples lie strictly above the value.
    std::size_t k = n - 1 - min_beyond;
    auto beyond = [&](std::size_t idx) {
        const auto last_equal = std::upper_bound(samples.begin(), samples.end(), samples[idx]);
        return static_cast<std::size_t>(samples.end() - last_equal);
    };
    while (k > 0 && beyond(k) < min_beyond) --k;
    if (beyond(k) < min_beyond) {
        throw std::invalid_argument("tail_percentile: too many tied samples");
    }
    Tail t;
    t.value = samples[k];
    t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
    t.beyond = beyond(k);
    t.samples = n;
    return t;
}

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool FailureLedger::check(bool ok, std::string_view what) {
    if (!ok) {
        op_failed_ = true;
        if (messages_.size() < 8) messages_.emplace_back(what);
    }
    return ok;
}

void FailureLedger::end_op() {
    ++attempted_;
    if (op_failed_) ++failed_;
    op_failed_ = false;
}

void Digest::add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffU;
        h_ *= 0x100000001b3ULL;
    }
}

void Digest::add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

double residual_frac(std::span<const LayerTerm> terms, double self_s) {
    if (!(self_s > 0.0)) throw std::invalid_argument("residual_frac: self time must be > 0");
    double sum_s = 0.0;
    for (const auto& t : terms) sum_s += t.ns_per_unit * 1e-9 * t.units;
    return 1.0 - sum_s / self_s;
}

}  // namespace perfbench
