// Golden-value regression tests: seeded end-to-end scenarios pinned to the
// values the current physics produces, so future performance work (new
// parallel schedules, kernel rewrites) cannot silently change results.
//
// Provenance and tolerances:
//  * Goldens were generated by the serial reference path on x86-64
//    gcc/libstdc++. cbs::Rng's engine (MT19937-64) and its distributions
//    are in-repo code that reproduces libstdc++'s bit for bit
//    (Rng.DistributionsMatchLibstdcxxBitwise), so the draws no longer
//    depend on the standard library — only on libm's log/sqrt/exp. A libm
//    whose results differ in the last bit is expected to need regeneration
//    (run the scenario and paste the printed values) — that is a toolchain
//    change, not a regression.
//  * Relative tolerance 1e-9 on Monte-Carlo moments: SSE2 double math is
//    bit-stable across optimization levels, so the slack only absorbs
//    benign codegen drift; any change to the RNG streams, trial chunking
//    (ProcessMonteCarlo::kTrialChunk), merge order, or device physics moves
//    these values by many orders of magnitude more than the tolerance.
//  * Yield is a counted ratio — pinned to 1e-12.
//  * The closed-loop oscillator integrates ~5M ticks, which amplifies any
//    upstream change; 1e-6 relative (~0.3 Hz here) still catches a
//    single-ulp physics change while tolerating codegen drift.
#include <gtest/gtest.h>

#include "core/resonant_sensor.hpp"
#include "fab/montecarlo.hpp"
#include "mech/geometry.hpp"
#include "surrogate/tier.hpp"

namespace {

using namespace cbs;

/// Forces CBS_SURROGATE=off for the scope: these goldens pin the *legacy*
/// trial streams, which the surrogate tier intentionally replaces (same
/// distributions, different draws). The surrogate tier pins its own goldens
/// in tests/surrogate/.
struct SurrogateOffGuard {
    SurrogateOffGuard() { surrogate::set_tier(surrogate::Tier::off); }
    ~SurrogateOffGuard() { surrogate::clear_tier(); }
};

TEST(GoldenValues, MonteCarloStatsEtchStop5000Trials) {
    const SurrogateOffGuard guard;
    const fab::ProcessMonteCarlo mc(mech::resonant_default(), fab::KohEtchConfig{},
                                    fab::ProcessVariation{},
                                    fab::EtchMode::electrochemical_stop);
    const auto s = mc.run_seeded(5000, 0x5eed2026ULL, 0.05, nullptr);
    EXPECT_EQ(s.samples, 5000u);
    EXPECT_NEAR(s.f0_mean_hz, 317988.39770806616, 1e-9 * 317988.4);
    EXPECT_NEAR(s.f0_sigma_hz, 6339.5323059996699, 1e-9 * 6339.5);
    EXPECT_NEAR(s.thickness_mean_m, 5.2007272300774043e-06, 1e-9 * 5.2e-6);
    EXPECT_NEAR(s.thickness_sigma_m, 1.0038700381401091e-07, 1e-9 * 1.0e-7);
    EXPECT_NEAR(s.yield, 0.9866, 1e-12);
    EXPECT_NEAR(mc.nominal_resonance().value(), 317955.59991362679, 1e-9 * 317955.6);
}

TEST(GoldenValues, ResonantLoopSeededRun) {
    core::ResonantCantileverSystem sys(core::ResonantSensorConfig{}, Rng(2026));
    const auto gates = sys.run(Time{0.35});
    ASSERT_EQ(gates.size(), 3u);
    EXPECT_NEAR(gates.back().frequency_hz, 317213.0865769519, 1e-6 * 317213.1);
    EXPECT_NEAR(sys.expected_resonance().value(), 317250.58813840232, 1e-9 * 317250.6);
    // Amplitude is a windowed trace estimate of a noise-driven limit
    // cycle — looser bound, still pins the oscillation regime.
    EXPECT_NEAR(sys.oscillation_amplitude().value(), 3.4394482720595297e-07, 1e-3 * 3.44e-7);
}

}  // namespace
