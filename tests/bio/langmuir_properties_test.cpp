// Parameterized Langmuir-kinetics properties over every analyte in the
// species library: thermodynamic and kinetic identities that must hold for
// any 1:1 binder.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "bio/langmuir.hpp"

namespace cbs::bio {

// Print the parameter by name, not by address: gtest puts the printed value
// in the listed test name, and an address would rename the test on every run.
static void PrintTo(const Analyte* analyte, std::ostream* os) { *os << analyte->name; }

}  // namespace cbs::bio

namespace {

using namespace cbs;
using namespace cbs::bio;

class LangmuirProperties : public ::testing::TestWithParam<const Analyte*> {};

TEST_P(LangmuirProperties, HalfCoverageAtKd) {
    const LangmuirKinetics k(*GetParam());
    EXPECT_NEAR(k.equilibrium_coverage(GetParam()->dissociation_constant()), 0.5, 1e-12);
}

TEST_P(LangmuirProperties, EquilibriumMonotoneAndBounded) {
    const LangmuirKinetics k(*GetParam());
    double prev = -1.0;
    for (double c = 1e-9; c < 1.0; c *= 10.0) {
        const double eq = k.equilibrium_coverage(MolarConcentration{c});
        EXPECT_GT(eq, prev);
        EXPECT_GE(eq, 0.0);
        EXPECT_LE(eq, 1.0);
        prev = eq;
    }
}

TEST_P(LangmuirProperties, StepComposesLikeAnalytic) {
    const LangmuirKinetics k(*GetParam());
    const MolarConcentration c = GetParam()->dissociation_constant() * 3.0;
    // Two half-steps equal one full step (the exact update is a semigroup).
    const double direct = k.coverage(c, Time{100.0});
    double stepped = 0.0;
    stepped = k.step(stepped, c, Time{50.0});
    stepped = k.step(stepped, c, Time{50.0});
    EXPECT_NEAR(stepped, direct, 1e-12);
}

TEST_P(LangmuirProperties, AssociationThenFullDissociationReturnsToZero) {
    const LangmuirKinetics k(*GetParam());
    const MolarConcentration c = GetParam()->dissociation_constant() * 10.0;
    const double theta = k.coverage(c, Time{1000.0});
    EXPECT_GT(theta, 0.5);
    // Many dissociation time constants later: empty surface.
    const double tau_off = 1.0 / GetParam()->k_off.value();
    EXPECT_LT(k.dissociation(Time{30.0 * tau_off}, theta), 1e-9);
}

TEST_P(LangmuirProperties, ObservedRateAtLeastKoff) {
    const LangmuirKinetics k(*GetParam());
    EXPECT_GE(k.observed_rate(MolarConcentration{0.0}).value(),
              GetParam()->k_off.value() * (1.0 - 1e-12));
    EXPECT_GT(k.observed_rate(MolarConcentration{1.0}).value(),
              GetParam()->k_off.value());
}

TEST_P(LangmuirProperties, TimeToEquilibriumConsistent) {
    const LangmuirKinetics k(*GetParam());
    const MolarConcentration c = GetParam()->dissociation_constant();
    const Time t95 = k.time_to_equilibrium(c, 0.95);
    const double eq = k.equilibrium_coverage(c);
    EXPECT_NEAR(k.coverage(c, t95) / eq, 0.95, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SpeciesLibrary, LangmuirProperties,
                         ::testing::Values(&library::igg_antigen(), &library::psa(),
                                           &library::crp(), &library::dna_20mer(),
                                           &library::bsa_nonspecific()),
                         [](const ::testing::TestParamInfo<const Analyte*>& info) {
                             std::string name = info.param->name;
                             for (auto& ch : name) {
                                 if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                             }
                             return name;
                         });

}  // namespace
