// N×M cantilever sensor array (the scale-up direction of the paper's
// related work: Thewes et al., "CMOS-Based Biosensor Arrays" and active
// row/column-addressed biochips). An ArrayGrid holds rows*cols sites, each
// with
//  * its own fabricated geometry — site i (row-major) draws its whole
//    fabrication history from Rng::for_stream(seed, i), so its draws
//    depend on (seed, i) only, never on the thread count;
//  * its own receptor functionalization — one bio::Coating per row
//    (multiplexed assays: different receptors on different rows), with
//    designated *reference columns* carrying blocked reference cantilevers
//    for differential common-mode compensation;
//  * its own piezoresistive bridge with per-site fabrication mismatch
//    (drawn from a salted stream so adding mismatch never perturbs the
//    geometry streams).
//
// The grid owns site state (geometry, coating, coverage, bridge) only; the
// shared readout electronics live in array::ScanController and the full
// closed-loop per-site characterization in array::characterize().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/functionalization.hpp"
#include "circ/bridge.hpp"
#include "exec/threadpool.hpp"
#include "fab/montecarlo.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace cbs::array {

struct ArrayConfig {
    std::size_t rows = 4;
    std::size_t cols = 4;
    /// Root seed: site i = r*cols + c streams from Rng::for_stream(seed, i).
    std::uint64_t seed = 1;
    /// Columns populated with blocked reference cantilevers (differential
    /// compensation); every row sees the same reference columns.
    std::vector<std::size_t> reference_columns{};
    /// Coating per row, cycled (row r gets row_coatings[r % size]); empty
    /// means every functional row uses `base_coating`.
    std::vector<bio::Coating> row_coatings{};
    /// Fallback coating when row_coatings is empty.
    bio::Coating base_coating = bio::antibody_coating(bio::library::igg_antigen());
    /// Per-site Wheatstone bridge and its per-arm fabrication mismatch.
    circ::DiffusedBridge::Config bridge{};
    double bridge_mismatch_sigma = 0.002;
};

/// One fabricated, functionalized array site.
struct Site {
    std::size_t row = 0;
    std::size_t col = 0;
    std::size_t index = 0;       ///< row-major: row * cols + col
    bool functional = false;     ///< device survived release
    bool reference = false;      ///< sits in a reference column
    fab::DeviceSample sample;    ///< as-etched geometry + resonance
    /// Raw engine word captured right after the fabrication draw; seeding a
    /// generator from it gives the site's closed-loop noise stream, the
    /// same one rng.fork() would (fork() == Rng(raw_word())).
    std::uint64_t loop_seed = 0;
    bio::Coating coating;
    double theta = 0.0;          ///< fractional receptor occupancy
    circ::DiffusedBridge bridge;
};

class ArrayGrid {
public:
    /// Fabricates every site (optionally sharded over the pool; site
    /// streams make the result bit-identical for any thread count,
    /// including pool == nullptr serial).
    ArrayGrid(const ArrayConfig& config, const fab::ProcessMonteCarlo& process,
              exec::ThreadPool* pool = nullptr);

    [[nodiscard]] std::size_t rows() const { return cfg_.rows; }
    [[nodiscard]] std::size_t cols() const { return cfg_.cols; }
    [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
    [[nodiscard]] const Site& site(std::size_t row, std::size_t col) const;
    [[nodiscard]] const Site& site_at(std::size_t index) const;
    [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }
    [[nodiscard]] const ArrayConfig& config() const { return cfg_; }
    [[nodiscard]] std::size_t functional_count() const;

    /// Analyte concentration currently flowing over the whole array.
    void set_concentration(MolarConcentration c);
    /// Advances every site's Langmuir binding by dt (each site binds
    /// according to its own coating's kinetics).
    void advance_binding(Time dt);
    /// Directly presets a site's coverage (incubated assays, tests).
    void set_coverage(std::size_t row, std::size_t col, double theta);

    /// Bridge differential output voltage of one site at its current
    /// coverage: Stoney bending of the site's *fabricated* geometry ->
    /// distributed piezoresistor -> Wheatstone bridge (with the site's
    /// mismatch). Non-functional sites read 0 V (open cantilever, bridge
    /// output shorted by the select switch). Deterministic per site: a pure
    /// function of (site state, theta).
    [[nodiscard]] double site_source_voltage(std::size_t row, std::size_t col) const;

    /// Fills out[0..cols) with the row's site source voltages.
    void row_source_voltages(std::size_t row, std::span<double> out) const;

private:
    ArrayConfig cfg_;
    std::vector<Site> sites_;
    MolarConcentration concentration_{0.0};
};

}  // namespace cbs::array
