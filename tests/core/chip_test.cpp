#include <gtest/gtest.h>

#include "core/chip.hpp"

namespace {

using namespace cbs;
using namespace cbs::core;

TEST(Chip, BudgetPlausible) {
    const BiosensorChip chip(StaticSensorConfig{}, ResonantSensorConfig{}, Rng(1));
    const auto b = chip.budget();
    // One cell is a fraction of a mm^2; chip a few mm^2.
    EXPECT_GT(b.sensor_cell_area.value(), 0.01e-6);
    EXPECT_LT(b.sensor_cell_area.value(), 1e-6);
    EXPECT_GT(b.chip_area.value(), b.sensor_cell_area.value());
    // Total power: a few mW ("autonomous device operation" on a battery).
    EXPECT_GT(b.total_power.value(), 1e-3);
    EXPECT_LT(b.total_power.value(), 20e-3);
}

TEST(Chip, FromFabricatedSampleBuildsSensor) {
    const fab::ProcessMonteCarlo mc(mech::resonant_default(), fab::KohEtchConfig{},
                                    fab::ProcessVariation{}, fab::EtchMode::electrochemical_stop);
    Rng rng(5);
    const auto sample = mc.sample(rng);
    ASSERT_TRUE(sample.functional);
    auto sensor = BiosensorChip::from_fabricated(ResonantSensorConfig{}, sample, Rng(6));
    ASSERT_TRUE(sensor.has_value());
    // The fabricated device's resonance differs from nominal by the
    // thickness spread (small for the etch-stop process).
    EXPECT_NEAR(sensor->expected_resonance().value(), sample.resonance.value(),
                0.02 * sample.resonance.value());
}

TEST(Chip, NonFunctionalSampleRejected) {
    fab::DeviceSample broken;
    broken.functional = false;
    EXPECT_FALSE(
        BiosensorChip::from_fabricated(ResonantSensorConfig{}, broken, Rng(1)).has_value());
}

}  // namespace
