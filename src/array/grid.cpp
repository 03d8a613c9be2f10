#include "array/grid.hpp"

#include <algorithm>

#include "bio/langmuir.hpp"
#include "mech/piezoresistance.hpp"
#include "mech/stoney.hpp"
#include "util/expect.hpp"

namespace cbs::array {

namespace {

/// Salt folded into the root seed for the bridge-mismatch streams, so the
/// mismatch draws live on their own per-site streams and never shift the
/// fabrication/loop streams.
constexpr std::uint64_t kMismatchSalt = 0x6d69736d61746368ULL;  // "mismatch"

}  // namespace

ArrayGrid::ArrayGrid(const ArrayConfig& config, const fab::ProcessMonteCarlo& process,
                     exec::ThreadPool* pool)
    : cfg_(config) {
    CBS_EXPECTS(cfg_.rows > 0 && cfg_.cols > 0);
    CBS_EXPECTS(cfg_.bridge_mismatch_sigma >= 0.0);
    for (const std::size_t c : cfg_.reference_columns) CBS_EXPECTS(c < cfg_.cols);
    cfg_.base_coating.validate();
    for (const auto& coat : cfg_.row_coatings) coat.validate();

    const std::size_t n = cfg_.rows * cfg_.cols;
    sites_ = exec::parallel_map<Site>(pool, n, [this, &process](std::size_t i) {
        Site s;
        s.index = i;
        s.row = i / cfg_.cols;
        s.col = i % cfg_.cols;
        // The whole stochastic fabrication history from (seed, i), then one
        // raw word reserved for the site's closed-loop noise streams.
        Rng rng = Rng::for_stream(cfg_.seed, i);
        s.sample = process.sample(rng);
        s.functional = s.sample.functional;
        s.loop_seed = rng.raw_word();
        s.reference = std::find(cfg_.reference_columns.begin(), cfg_.reference_columns.end(),
                                s.col) != cfg_.reference_columns.end();
        if (s.reference) {
            s.coating = bio::reference_coating();
        } else if (!cfg_.row_coatings.empty()) {
            s.coating = cfg_.row_coatings[s.row % cfg_.row_coatings.size()];
        } else {
            s.coating = cfg_.base_coating;
        }
        s.bridge = circ::DiffusedBridge(cfg_.bridge);
        if (cfg_.bridge_mismatch_sigma > 0.0) {
            Rng mm_rng = Rng::for_stream(cfg_.seed ^ kMismatchSalt, i);
            std::array<double, 4> mm{};
            for (auto& m : mm) m = mm_rng.normal(0.0, cfg_.bridge_mismatch_sigma);
            s.bridge.set_mismatch(mm);
        }
        return s;
    });
}

const Site& ArrayGrid::site(std::size_t row, std::size_t col) const {
    CBS_EXPECTS(row < cfg_.rows && col < cfg_.cols);
    return sites_[row * cfg_.cols + col];
}

const Site& ArrayGrid::site_at(std::size_t index) const {
    CBS_EXPECTS(index < sites_.size());
    return sites_[index];
}

std::size_t ArrayGrid::functional_count() const {
    return static_cast<std::size_t>(
        std::count_if(sites_.begin(), sites_.end(), [](const Site& s) { return s.functional; }));
}

void ArrayGrid::set_concentration(MolarConcentration c) {
    CBS_EXPECTS(c.value() >= 0.0);
    concentration_ = c;
}

void ArrayGrid::advance_binding(Time dt) {
    CBS_EXPECTS(dt.value() > 0.0);
    for (auto& s : sites_) {
        if (!s.functional) continue;
        const bio::LangmuirKinetics kinetics(s.coating.target);
        s.theta = kinetics.step(s.theta, concentration_, dt);
    }
}

void ArrayGrid::set_coverage(std::size_t row, std::size_t col, double theta) {
    CBS_EXPECTS(row < cfg_.rows && col < cfg_.cols);
    CBS_EXPECTS(theta >= 0.0 && theta <= 1.0);
    sites_[row * cfg_.cols + col].theta = theta;
}

double ArrayGrid::site_source_voltage(std::size_t row, std::size_t col) const {
    const Site& s = site(row, col);
    if (!s.functional) return 0.0;
    // Per-site physics on the *fabricated* geometry; the bridge is copied
    // so concurrent row scans read shared grid state without mutation.
    const mech::StoneyModel stoney(s.sample.geometry);
    const mech::PiezoResistor gauge(s.sample.geometry.material,
                                    mech::ResistorOrientation::longitudinal,
                                    mech::ResistorPlacement::distributed);
    const auto stress = s.coating.surface_stress(s.theta);
    circ::DiffusedBridge bridge = s.bridge;
    bridge.set_sense_delta(gauge.relative_change_surface_stress(stoney, stress));
    return bridge.output().value();
}

void ArrayGrid::row_source_voltages(std::size_t row, std::span<double> out) const {
    CBS_EXPECTS(out.size() == cfg_.cols);
    for (std::size_t c = 0; c < cfg_.cols; ++c) out[c] = site_source_voltage(row, c);
}

}  // namespace cbs::array
