// Full closed-loop characterization of every grid site: each functional
// site is brought up as a complete resonant sensor
// (core::BiosensorChip::from_fabricated on the site's as-etched sample),
// auto-gained and run until the frequency counter reports — the
// production-test view of the array, as opposed to the fast voltage-mode
// ScanController sweep. A 1×N grid is the paper's array-on-one-chip
// fabricate-and-measure sweep (examples/process_yield).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "array/grid.hpp"
#include "core/chip.hpp"
#include "exec/threadpool.hpp"

namespace cbs::array {

struct CharacterizeConfig {
    /// Closed-loop run per site; must exceed the counter gate.
    Time run_duration{0.25};
    /// Coverage preset applied before the run (incubated assay); 0 = bare.
    double preset_coverage = 0.0;
    /// Per-site obs probe scopes (`<probe_scope>.r<row>c<col>`): taps,
    /// watchdogs and fault events stay separable per site. Off by default
    /// because a large grid would otherwise register 3 probes per site.
    bool per_site_probes = false;
    std::string probe_scope = "array";
};

/// Outcome of one site, keyed by its row-major index.
struct SiteResult {
    std::size_t index = 0;
    bool functional = false;   ///< device survived release
    bool measured = false;     ///< the counter completed >= 1 gate
    double fabricated_f0_hz = 0.0;  ///< beam resonance of the as-etched geometry
    double expected_hz = 0.0;       ///< loaded resonance the loop should find
    double measured_hz = 0.0;       ///< last completed counter gate
    double vga_control = 0.0;       ///< auto-gain setting (damping proxy)
    /// Fault-severity obs events raised under this site's probe scope
    /// during the run (0 when per_site_probes is off).
    std::uint64_t fault_events = 0;
};

struct CharacterizeSummary {
    std::size_t elements = 0;
    std::size_t functional = 0;
    std::size_t measured = 0;
    std::size_t faulted = 0;  ///< sites with fault_events > 0
    double measured_mean_hz = 0.0;
    double measured_sigma_hz = 0.0;
    /// Worst relative |measured - expected| over measured sites.
    double worst_rel_error = 0.0;
};

/// Characterizes every site (row-major result order, indexed like the
/// grid); shards over the pool with bit-identical results for any thread
/// count (nullptr = serial). Runs under the `array.sweep` span and adds the
/// summary to the `array.{elements,functional,measured,faulted}` counters
/// and the `array.measured_mean_hz` gauge.
[[nodiscard]] std::vector<SiteResult> characterize(const ArrayGrid& grid,
                                                   const core::ResonantSensorConfig& base,
                                                   const CharacterizeConfig& config,
                                                   exec::ThreadPool* pool = nullptr);

/// Aggregates a result set (Welford over measured frequencies, merged in
/// index order — deterministic for any producer thread count). Sites whose
/// measured_hz is non-finite (a NaN-poisoned loop) are excluded from
/// `measured` and the moments; with nothing measured, measured_mean_hz /
/// measured_sigma_hz / worst_rel_error are exact zeros, never NaN.
[[nodiscard]] CharacterizeSummary summarize(std::span<const SiteResult> results);

}  // namespace cbs::array
