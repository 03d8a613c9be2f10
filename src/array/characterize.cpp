#include "array/characterize.hpp"

#include <algorithm>
#include <cmath>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/expect.hpp"
#include "util/stats.hpp"

namespace cbs::array {

std::vector<SiteResult> characterize(const ArrayGrid& grid,
                                     const core::ResonantSensorConfig& base,
                                     const CharacterizeConfig& config,
                                     exec::ThreadPool* pool) {
    CBS_EXPECTS(config.run_duration.value() > 0.0);
    CBS_EXPECTS(config.preset_coverage >= 0.0 && config.preset_coverage <= 1.0);
    const obs::ScopedTimer span("array.sweep", "array");

    auto site_fn = [&grid, &base, &config](std::size_t i) {
        const Site& site = grid.site_at(i);
        SiteResult r;
        r.index = i;
        r.functional = site.functional;
        if (!r.functional) return r;
        r.fabricated_f0_hz = site.sample.resonance.value();

        core::ResonantSensorConfig cfg = base;
        std::string scope;
        if (config.per_site_probes) {
            scope = config.probe_scope + ".r" + std::to_string(site.row) + "c" +
                    std::to_string(site.col);
            cfg.probe_scope = scope;
        }
        // Rng(loop_seed) reproduces the fabrication stream's fork() at the
        // point right after the geometry draw.
        auto sensor = core::BiosensorChip::from_fabricated(cfg, site.sample, Rng(site.loop_seed));
        CBS_EXPECTS(sensor.has_value());  // functional => constructible
        if (config.preset_coverage > 0.0) sensor->set_coverage(config.preset_coverage);
        r.expected_hz = sensor->expected_resonance().value();
        r.vga_control = sensor->vga_control();
        const auto gates = sensor->run(config.run_duration);
        if (!gates.empty()) {
            r.measured = true;
            r.measured_hz = gates.back().frequency_hz;
        }
        if (config.per_site_probes) {
            // Probes are named "<scope>.<tap>"; the trailing dot keeps site
            // r0c1 from counting the events of r0c10..r0c19.
            r.fault_events = obs::EventLog::instance().count_for_prefix(scope + ".",
                                                                        obs::Severity::fault);
        }
        return r;
    };
    auto results = exec::parallel_map<SiteResult>(pool, grid.site_count(), site_fn);

    auto& registry = obs::MetricsRegistry::instance();
    const auto summary = summarize(results);
    registry.counter("array.elements")->add(summary.elements);
    registry.counter("array.functional")->add(summary.functional);
    registry.counter("array.measured")->add(summary.measured);
    registry.counter("array.faulted")->add(summary.faulted);
    registry.gauge("array.measured_mean_hz")->set(summary.measured_mean_hz);
    return results;
}

CharacterizeSummary summarize(std::span<const SiteResult> results) {
    CharacterizeSummary s;
    s.elements = results.size();
    stats::RunningStats measured;
    for (const auto& r : results) {
        if (r.functional) ++s.functional;
        if (r.fault_events > 0) ++s.faulted;
        // A non-finite readout (a faulted loop poisoned by an injected NaN)
        // must not contaminate the aggregate moments: such a site does not
        // count as measured. With no measured sites every statistic stays
        // at a well-defined 0 (RunningStats' empty state), never NaN.
        if (!r.measured || !std::isfinite(r.measured_hz)) continue;
        ++s.measured;
        measured.add(r.measured_hz);
        if (r.expected_hz > 0.0 && std::isfinite(r.expected_hz)) {
            s.worst_rel_error = std::max(
                s.worst_rel_error, std::abs(r.measured_hz - r.expected_hz) / r.expected_hz);
        }
    }
    s.measured_mean_hz = measured.mean();
    s.measured_sigma_hz = measured.stddev();
    return s;
}

}  // namespace cbs::array
