// Parameterized hydrodynamic-loading properties across the fluid library
// and beam widths: the orderings and bounds any viscous-loading model must
// satisfy.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "mech/hydrodynamics.hpp"
#include "phys/fluid.hpp"

namespace cbs::phys {

// Print the parameter by name, not by address: gtest puts the printed value
// in the listed test name, and an address would rename the test on every run.
static void PrintTo(const Fluid* fluid, std::ostream* os) { *os << fluid->name; }

}  // namespace cbs::phys

namespace {

using namespace cbs;
using namespace cbs::mech;
using namespace cbs::phys;

class HydroProperties : public ::testing::TestWithParam<const Fluid*> {};

EulerBernoulliBeam beam(double width_um = 40.0) {
    auto g = resonant_default();
    g.width = Length{width_um * 1e-6};
    return EulerBernoulliBeam(g);
}

TEST_P(HydroProperties, LoadedResonanceNeverExceedsVacuum) {
    const auto s = HydrodynamicModel(beam(), *GetParam()).solve();
    EXPECT_LE(s.resonance.value(), beam().resonance_frequency().value() * (1.0 + 1e-12));
}

TEST_P(HydroProperties, QualityFactorPositive) {
    const auto s = HydrodynamicModel(beam(), *GetParam()).solve();
    EXPECT_GT(s.quality_factor, 0.0);
}

TEST_P(HydroProperties, AddedMassConsistentWithFrequencyShift) {
    // f_loaded = f_vac sqrt(m_eff / (m_eff + m_added)) must tie the two
    // reported quantities together.
    const auto b = beam();
    const auto s = HydrodynamicModel(b, *GetParam()).solve();
    if (GetParam()->density.value() <= 0.0) GTEST_SKIP();
    const double m_eff = b.effective_mass().value();
    const double predicted =
        b.resonance_frequency().value() *
        std::sqrt(m_eff / (m_eff + s.added_modal_mass.value()));
    EXPECT_NEAR(s.resonance.value(), predicted, 1e-6 * predicted);
}

TEST_P(HydroProperties, WiderBeamLowerLoadedQInLiquid) {
    if (GetParam()->density.value() < 100.0) GTEST_SKIP();  // liquids only
    const auto narrow = HydrodynamicModel(beam(30.0), *GetParam()).solve();
    const auto wide = HydrodynamicModel(beam(80.0), *GetParam()).solve();
    // More entrained fluid per unit beam mass: wider beams suffer more.
    EXPECT_LT(wide.resonance.value() / beam(80.0).resonance_frequency().value(),
              narrow.resonance.value() / beam(30.0).resonance_frequency().value());
}

INSTANTIATE_TEST_SUITE_P(FluidSweep, HydroProperties,
                         ::testing::Values(&fluids::vacuum(), &fluids::air(),
                                           &fluids::nitrogen(), &fluids::water(),
                                           &fluids::pbs(), &fluids::serum(),
                                           &fluids::ethanol()),
                         [](const ::testing::TestParamInfo<const Fluid*>& info) {
                             std::string n = info.param->name;
                             for (auto& c : n) {
                                 if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                             }
                             return n;
                         });

TEST(HydroOrdering, QFallsWithViscousLoading) {
    const auto q_air = HydrodynamicModel(beam(), fluids::air()).solve().quality_factor;
    const auto q_water = HydrodynamicModel(beam(), fluids::water()).solve().quality_factor;
    const auto q_serum = HydrodynamicModel(beam(), fluids::serum()).solve().quality_factor;
    EXPECT_GT(q_air, q_water);
    EXPECT_GT(q_water, q_serum);
}

}  // namespace
