// System-level fuse equivalence (DESIGN.md §11): both paper systems — the
// resonant feedback loop and the static readout chain — run through the
// compiled form under CBS_FUSE=on and must reproduce the legacy path
// within the per-signal tolerance — measured oscillation frequency within
// 1e-9 relative, static reading within one ADC LSB — at every batch size.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circ/fuse.hpp"
#include "core/resonant_sensor.hpp"
#include "core/static_sensor.hpp"
#include "sim/batch.hpp"
#include "util/units.hpp"

namespace {

using namespace cbs;
using namespace cbs::core;
using namespace cbs::literals;

struct FuseModeGuard {
    explicit FuseModeGuard(circ::FuseMode m) { circ::set_fuse_mode(m); }
    ~FuseModeGuard() { circ::clear_fuse_mode(); }
};

struct BatchSizeGuard {
    explicit BatchSizeGuard(std::size_t n) { sim::set_batch_size(n); }
    ~BatchSizeGuard() { sim::set_batch_size(0); }
};

// ------------------------------------------------------------- resonant

std::vector<daq::FrequencyMeasurement> run_resonant(circ::FuseMode mode,
                                                    std::size_t batch) {
    FuseModeGuard fuse(mode);
    BatchSizeGuard batch_guard(batch);
    ResonantCantileverSystem s(ResonantSensorConfig{}, Rng(21));
    return s.run(0.3_s);
}

TEST(SensorFuse, ResonantSimdTierFrequencyWithinTolerance) {
    const auto reference = run_resonant(circ::FuseMode::off, 1024);
    ASSERT_GE(reference.size(), 2u);
    for (const std::size_t batch : {64u, 1024u}) {
        const auto fused = run_resonant(circ::FuseMode::simd, batch);
        ASSERT_EQ(fused.size(), reference.size()) << batch;
        for (std::size_t i = 0; i < fused.size(); ++i) {
            const double f_ref = reference[i].frequency_hz;
            EXPECT_NEAR(fused[i].frequency_hz, f_ref, 1e-9 * f_ref + 1e-3)
                << "gate " << i << " batch " << batch;
        }
    }
}

// The legacy path must be untouched by the toggle machinery: off is
// bit-identical to a run with no override at all (the env default in the
// test binary).
TEST(SensorFuse, ResonantOffMatchesNoOverride) {
    const auto with_off = run_resonant(circ::FuseMode::off, 1024);
    BatchSizeGuard batch_guard(1024);
    circ::clear_fuse_mode();
    ResonantCantileverSystem s(ResonantSensorConfig{}, Rng(21));
    const auto plain = s.run(0.3_s);
    ASSERT_EQ(plain.size(), with_off.size());
    if (circ::fuse_mode() == circ::FuseMode::off) {
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(plain[i].frequency_hz),
                      std::bit_cast<std::uint64_t>(with_off[i].frequency_hz))
                << i;
        }
    }
}

// --------------------------------------------------------------- static

ChannelReading read_static(circ::FuseMode mode) {
    FuseModeGuard fuse(mode);
    StaticCantileverSystem s(StaticSensorConfig{}, Rng(22));
    s.set_concentration(MolarConcentration{1e-9});
    s.advance_binding(Time{30.0});
    return s.read_channel(0, Time{1e-3}, Time{2e-3});
}

TEST(SensorFuse, StaticSimdTierWithinTolerance) {
    const auto reference = read_static(circ::FuseMode::off);
    // The fused run sits inside the batched acquire loop: sweep the
    // scheduler batch size.
    for (const std::size_t batch : {1u, 64u, 1024u}) {
        BatchSizeGuard guard(batch);
        const auto fused = read_static(circ::FuseMode::simd);
        // Tolerance relative to the ADC full scale (2.5 V): the compiled
        // form's reassociation stays far below one LSB of the 14-bit ADC,
        // so quantized readings almost always agree exactly; the bound
        // covers the rare reading that lands on a code boundary.
        EXPECT_NEAR(reference.output.value(), fused.output.value(), 2.5 / (1 << 14))
            << "batch " << batch;
    }
}

}  // namespace
