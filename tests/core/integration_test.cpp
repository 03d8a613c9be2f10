// End-to-end integration: the whole chip, from fabrication statistics to a
// detected analyte on both sensor systems — the complete story the paper
// tells, exercised through the public API in one flow.
#include <gtest/gtest.h>

#include "baseline/comparison.hpp"
#include "core/chip.hpp"
#include "fab/drc.hpp"
#include "fab/layout_gen.hpp"
#include "fab/ruledeck.hpp"

namespace {

using namespace cbs;
using namespace cbs::core;
using namespace cbs::literals;

TEST(Integration, FabToWorkingOscillator) {
    // Fabricate a device, close the loop around it, and verify the loop
    // locks onto the fabricated die's own resonance.
    const fab::ProcessMonteCarlo mc(mech::resonant_default(), fab::KohEtchConfig{},
                                    fab::ProcessVariation{},
                                    fab::EtchMode::electrochemical_stop);
    Rng rng(21);
    const auto device = mc.sample(rng);
    ASSERT_TRUE(device.functional);

    auto sensor = BiosensorChip::from_fabricated(ResonantSensorConfig{}, device, Rng(23));
    ASSERT_TRUE(sensor.has_value());
    const auto ms = sensor->run(0.3_s);
    ASSERT_FALSE(ms.empty());

    // The closed loop reads the die's expected resonance within 0.5%.
    const double expected = sensor->expected_resonance().value();
    EXPECT_NEAR(ms.back().frequency_hz, expected, 0.005 * expected);
}

TEST(Integration, StaticAssayDetectsAtTenNanomolarNotAtBlank) {
    StaticCantileverSystem sys(StaticSensorConfig{}, Rng(31));
    sys.calibrate_offsets();

    // Blank run: differential stays under the decision threshold.
    sys.set_concentration(MolarConcentration{0.0});
    for (int i = 0; i < 30; ++i) sys.advance_binding(60.0_s);
    const double blank = sys.differential(0, 3).value();
    EXPECT_LT(std::fabs(blank), 5e-3);

    // 10 nM dose: clearly above it.
    sys.set_concentration(10.0_nM);
    for (int i = 0; i < 30; ++i) sys.advance_binding(60.0_s);
    const double dosed = sys.differential(0, 3).value();
    EXPECT_GT(dosed, 15e-3);
    EXPECT_GT(dosed, 5.0 * std::fabs(blank));
}

TEST(Integration, ChipBudgetAndLayoutConsistent) {
    const BiosensorChip chip(StaticSensorConfig{}, ResonantSensorConfig{}, Rng(51));
    const auto budget = chip.budget();
    // The chip area must at least hold 4 static cells + 1 resonant cell.
    const auto cell = fab::CantileverCellGenerator(mech::static_default(),
                                                   fab::CantileverCellOptions{.coil_turns = 0})
                          .generate();
    const auto bb = cell.bounding_box();
    const double cell_area = (bb.x2 - bb.x1) * 1e-9 * (bb.y2 - bb.y1) * 1e-9;
    EXPECT_GT(budget.chip_area.value(), 4.0 * cell_area);
    // And the generated cells must be manufacturable (DRC clean).
    const fab::DrcEngine engine(fab::default_rule_deck());
    EXPECT_TRUE(engine.clean(cell));
}

TEST(Integration, ClaimsHoldTogether) {
    // T1 and T2 claims measured through the baseline module in one pass:
    // the cross-cutting sanity that integration wins SNR while the MOS
    // bridge wins power.
    Rng rng(61);
    const auto t1 = baseline::compare_readout_chains(Voltage{10e-6}, Time{0.5}, rng);
    EXPECT_GT(t1[0].snr_db, t1[1].snr_db);
    const auto t2 = baseline::compare_bridges(1e-4, Frequency{318e3}, Frequency{1e3},
                                              Temperature{293.15});
    EXPECT_LT(t2[1].power_w, t2[0].power_w);
    EXPECT_GT(t2[1].arm_resistance_ohm, t2[0].arm_resistance_ohm);
}

}  // namespace
