// Golden equivalence suite for the batched signal path (DESIGN.md §9).
//
// Contract under test: for every block, process_block over any partition of
// a sample stream produces BIT-IDENTICAL output and end state to calling
// process per sample — including noise blocks, where the prefetched bulk
// draws must reproduce the per-sample Rng::normal sequence exactly (in-repo
// polar method: it rests on libm's log/sqrt, not on the standard library's
// distributions). Batch sizes swept: {1, 2, 7, 64, 1024} (odd size 7
// exercises partitions that never align with internal strides).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "circ/adc.hpp"
#include "circ/amplifier.hpp"
#include "circ/block.hpp"
#include "circ/bridge.hpp"
#include "circ/chopper.hpp"
#include "circ/classab.hpp"
#include "circ/dda.hpp"
#include "circ/filters.hpp"
#include "circ/fuse.hpp"
#include "circ/limiter.hpp"
#include "circ/mux.hpp"
#include "circ/noise.hpp"
#include "circ/offset_comp.hpp"
#include "circ/pga.hpp"
#include "circ/phase_shifter.hpp"
#include "circ/vga.hpp"
#include "util/constants.hpp"
#include "util/random.hpp"

namespace {

using namespace cbs;
using namespace cbs::circ;

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64, 1024};
constexpr std::size_t kSamples = 2048;

/// This suite asserts the LEGACY path's bit-identity contract (batched ==
/// per-sample, exact noise draws). The CBS_FUSE simd tier intentionally
/// relaxes it to a tolerance contract, so these tests pin the mode off for
/// their duration; the fused contracts live in tests/fuse/.
class BatchEquivalence : public ::testing::Test {
protected:
    BatchEquivalence() { set_fuse_mode(FuseMode::off); }
    ~BatchEquivalence() override { clear_fuse_mode(); }
};

/// Deterministic test stimulus: a two-tone signal plus a slow ramp, scaled
/// to exercise both the linear region and (for clipping blocks) the rails.
std::vector<double> test_signal(double amplitude, std::size_t n = kSamples) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double ph = static_cast<double>(i) * 0.05;
        x[i] = amplitude * (std::sin(ph) + 0.3 * std::sin(3.7 * ph)) +
               amplitude * 1e-3 * static_cast<double>(i);
    }
    return x;
}

void expect_bits_equal(double a, double b, std::size_t index, std::size_t batch) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << "sample " << index << " differs at batch size " << batch << ": " << a << " vs " << b;
}

/// Runs `make()`-constructed blocks over `input`: once per sample, then once
/// per batch size, asserting bitwise identity of every output sample.
template <typename MakeBlock>
void check_block_equivalence(MakeBlock make, const std::vector<double>& input) {
    auto reference_block = make();
    std::vector<double> reference = input;
    for (double& v : reference) v = reference_block.process(v);
    for (const std::size_t batch : kBatchSizes) {
        auto block = make();
        std::vector<double> out = input;
        const std::span<double> span(out);
        for (std::size_t i = 0; i < out.size(); i += batch) {
            block.process_block(span.subspan(i, std::min(batch, out.size() - i)));
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            expect_bits_equal(reference[i], out[i], i, batch);
        }
    }
}

TEST_F(BatchEquivalence, GainBlock) {
    check_block_equivalence([] { return GainBlock(3.5); }, test_signal(1.0));
}

TEST_F(BatchEquivalence, OnePoleLowPass) {
    check_block_equivalence([] { return OnePoleLowPass(Frequency{1e3}, 100e3); },
                            test_signal(1.0));
}

TEST_F(BatchEquivalence, OnePoleHighPass) {
    check_block_equivalence([] { return OnePoleHighPass(Frequency{500.0}, 100e3); },
                            test_signal(1.0));
}

TEST_F(BatchEquivalence, Biquad) {
    check_block_equivalence(
        [] { return Biquad(Biquad::Type::bandpass, Frequency{5e3}, 2.0, 100e3); },
        test_signal(1.0));
}

TEST_F(BatchEquivalence, PhaseShifter) {
    check_block_equivalence([] { return PhaseShifter(Frequency{5e3}, 100e3); },
                            test_signal(1.0));
}

TEST_F(BatchEquivalence, VariableGainAmplifier) {
    check_block_equivalence(
        [] {
            VariableGainAmplifier vga(-40.0, 26.0);
            vga.set_control(0.7);
            return vga;
        },
        test_signal(1.0));
}

TEST_F(BatchEquivalence, NonlinearLimiter) {
    check_block_equivalence([] { return NonlinearLimiter(5.0, Voltage{15e-3}); },
                            test_signal(0.05));
}

TEST_F(BatchEquivalence, ProgrammableGainStageWithClipping) {
    check_block_equivalence(
        [] {
            ProgrammableGainStage pga(Voltage{1.0});
            pga.set_setting(4);  // x20: the test signal drives it into the rails
            return pga;
        },
        test_signal(0.1));
}

TEST_F(BatchEquivalence, OffsetCompensator) {
    check_block_equivalence(
        [] {
            OffsetCompensator oc(Voltage{1.2}, 12);
            oc.set_code(137);
            return oc;
        },
        test_signal(1.0));
}

TEST_F(BatchEquivalence, ClassAbBuffer) {
    check_block_equivalence([] { return ClassAbBuffer(ClassAbConfig{}, Resistance{100.0}); },
                            test_signal(1.0));
}

TEST_F(BatchEquivalence, WhiteNoise) {
    check_block_equivalence(
        [] { return WhiteNoise(VoltageNoiseDensity{20e-9}, 100e3, Rng(42)); },
        test_signal(1e-6));
}

TEST_F(BatchEquivalence, FlickerNoise) {
    check_block_equivalence([] { return FlickerNoise(1e-12, 100e3, Rng(43), 0.5); },
                            test_signal(1e-6));
}

TEST_F(BatchEquivalence, InterferencePickup) {
    check_block_equivalence(
        [] {
            InterferencePickup::Config cfg;
            cfg.mains_amplitude_v = 1e-3;
            cfg.harmonics = 3;
            cfg.rf_floor_v = 1e-5;
            return InterferencePickup(cfg, 10e3, Rng(44));
        },
        test_signal(1e-3));
}

TEST_F(BatchEquivalence, BehavioralAmplifierWithAllNonIdealities) {
    AmplifierConfig cfg;
    cfg.gain = 50.0;
    cfg.bandwidth = Frequency{20e3};
    cfg.input_offset = Voltage{1e-3};
    cfg.offset_sigma = Voltage{2e-3};
    cfg.white_noise = VoltageNoiseDensity{15e-9};
    cfg.flicker_corner = Frequency{5e3};
    cfg.saturation = Voltage{1.0};
    cfg.slew_rate_v_per_s = 2e4;  // slew-limits the larger signal excursions
    check_block_equivalence([&] { return BehavioralAmplifier(cfg, 100e3, Rng(45)); },
                            test_signal(0.05));
}

TEST_F(BatchEquivalence, DifferentialDifferenceAmplifier) {
    DdaConfig cfg;
    cfg.amplifier.gain = 20.0;
    cfg.amplifier.white_noise = VoltageNoiseDensity{12e-9};
    cfg.amplifier.flicker_corner = Frequency{2e3};
    check_block_equivalence(
        [&] { return DifferentialDifferenceAmplifier(cfg, 100e3, Rng(46)); },
        test_signal(1e-3));
}

TEST_F(BatchEquivalence, ChopperAmplifierEnabled) {
    ChopperConfig cfg;
    cfg.amplifier.gain = 100.0;
    cfg.amplifier.bandwidth = Frequency{50e3};
    cfg.amplifier.offset_sigma = Voltage{2e-3};
    cfg.amplifier.white_noise = VoltageNoiseDensity{15e-9};
    cfg.amplifier.flicker_corner = Frequency{5e3};
    cfg.chop_frequency = Frequency{10e3};
    cfg.output_cutoff = Frequency{500.0};
    check_block_equivalence([&] { return ChopperAmplifier(cfg, 200e3, Rng(47)); },
                            test_signal(1e-3));
}

TEST_F(BatchEquivalence, ChopperAmplifierDisabledAblation) {
    ChopperConfig cfg;
    cfg.amplifier.offset_sigma = Voltage{2e-3};
    cfg.amplifier.white_noise = VoltageNoiseDensity{15e-9};
    cfg.amplifier.flicker_corner = Frequency{5e3};
    cfg.enabled = false;
    check_block_equivalence([&] { return ChopperAmplifier(cfg, 200e3, Rng(48)); },
                            test_signal(1e-3));
}

TEST_F(BatchEquivalence, ChainOfMixedBlocks) {
    auto make = [] {
        auto chain = std::make_unique<Chain>();
        chain->emplace<GainBlock>(2.0);
        chain->emplace<OnePoleHighPass>(Frequency{100.0}, 100e3);
        chain->emplace<WhiteNoise>(VoltageNoiseDensity{30e-9}, 100e3, Rng(49));
        chain->emplace<Biquad>(Biquad::Type::lowpass, Frequency{8e3}, 0.707, 100e3);
        chain->emplace<NonlinearLimiter>(3.0, Voltage{0.5});
        return chain;
    };
    const auto input = test_signal(0.2);
    auto reference_chain = make();
    std::vector<double> reference = input;
    for (double& v : reference) v = reference_chain->process(v);
    for (const std::size_t batch : kBatchSizes) {
        auto chain = make();
        std::vector<double> out = input;
        const std::span<double> span(out);
        for (std::size_t i = 0; i < out.size(); i += batch) {
            chain->process_block(span.subspan(i, std::min(batch, out.size() - i)));
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            expect_bits_equal(reference[i], out[i], i, batch);
        }
    }
}

// --- Prefetch: bulk draws must reproduce the per-sample sequence. --------

TEST_F(BatchEquivalence, WhiteNoisePrefetchMatchesDirectDraws) {
    WhiteNoise direct(VoltageNoiseDensity{20e-9}, 100e3, Rng(50));
    WhiteNoise prefetched(VoltageNoiseDensity{20e-9}, 100e3, Rng(50));
    // Partial prefetch: the first 100 samples consume the buffer, the rest
    // fall back to direct draws from the same engine position.
    prefetched.prefetch(100);
    for (std::size_t i = 0; i < 300; ++i) {
        const double a = direct.process(1e-6);
        const double b = prefetched.process(1e-6);
        expect_bits_equal(a, b, i, 0);
        if (i == 150) prefetched.prefetch(50);  // mid-stream top-up
    }
}

TEST_F(BatchEquivalence, FlickerNoisePrefetchMatchesDirectDraws) {
    FlickerNoise direct(1e-12, 100e3, Rng(51), 0.5);
    FlickerNoise prefetched(1e-12, 100e3, Rng(51), 0.5);
    prefetched.prefetch(100);
    for (std::size_t i = 0; i < 300; ++i) {
        const double a = direct.process(0.0);
        const double b = prefetched.process(0.0);
        expect_bits_equal(a, b, i, 0);
        if (i == 150) prefetched.prefetch(50);
    }
}

// --- Non-Block batched kernels. ------------------------------------------

TEST_F(BatchEquivalence, SarAdcQuantizeBlockIncludingClipping) {
    const SarAdc adc(14, Voltage{2.5});
    auto input = test_signal(3.0);  // exceeds full scale: exercises clamping
    std::vector<double> reference = input;
    for (double& v : reference) v = adc.quantize(v);
    for (const std::size_t batch : kBatchSizes) {
        std::vector<double> out = input;
        const std::span<double> span(out);
        for (std::size_t i = 0; i < out.size(); i += batch) {
            adc.quantize_block(span.subspan(i, std::min(batch, out.size() - i)));
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            expect_bits_equal(reference[i], out[i], i, batch);
        }
    }
}

TEST_F(BatchEquivalence, AnalogMuxProcessBlockWithGlitchDecay) {
    const std::vector<double> inputs{1e-3, -2e-3, 0.5e-3, 4e-3};
    auto make = [] { return AnalogMux(MuxConfig{}, 200e3); };
    auto run_scalar = [&](AnalogMux& mux, std::size_t n, std::vector<double>& out) {
        for (std::size_t i = 0; i < n; ++i) out.push_back(mux.process(inputs));
    };
    for (const std::size_t batch : kBatchSizes) {
        AnalogMux ref_mux = make();
        AnalogMux mux = make();
        std::vector<double> reference;
        std::vector<double> out;
        // Two mux selections: the second injects a glitch mid-stream.
        for (const std::size_t channel : {1, 3}) {
            ref_mux.select(channel);
            mux.select(channel);
            run_scalar(ref_mux, kSamples / 2, reference);
            std::vector<double> block(kSamples / 2);
            const std::span<double> span(block);
            for (std::size_t i = 0; i < block.size(); i += batch) {
                mux.process_block(inputs, span.subspan(i, std::min(batch, block.size() - i)));
            }
            out.insert(out.end(), block.begin(), block.end());
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            expect_bits_equal(reference[i], out[i], i, batch);
        }
    }
}

// Satellite coverage for the array scan kernel: select switching *inside*
// a batch. scan_block(selects, inputs) must be bit-identical to the
// per-sample select(s); process(inputs) pair for any partition of the
// select stream — including partitions whose boundaries never align with
// the per-channel hold windows (batch 7).
TEST_F(BatchEquivalence, AnalogMuxScanBlockSelectSwitchingMidBatch) {
    const std::vector<double> inputs{1e-3, -2e-3, 0.5e-3, 4e-3};
    // Channel walk with uneven hold lengths (including length-1 holds and
    // immediate re-selects), so switches land at every batch offset.
    std::vector<std::size_t> selects;
    const std::size_t holds[] = {5, 1, 37, 2, 11, 64, 3, 1, 1, 29};
    std::size_t ch = 0;
    while (selects.size() < kSamples) {
        for (const std::size_t h : holds) {
            for (std::size_t k = 0; k < h && selects.size() < kSamples; ++k) {
                selects.push_back(ch % inputs.size());
            }
            ++ch;
        }
    }
    AnalogMux ref_mux(MuxConfig{}, 200e3);
    std::vector<double> reference(selects.size());
    for (std::size_t i = 0; i < selects.size(); ++i) {
        ref_mux.select(selects[i]);
        reference[i] = ref_mux.process(inputs);
    }
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                    std::size_t{1024}}) {
        AnalogMux mux(MuxConfig{}, 200e3);
        std::vector<double> out(selects.size());
        for (std::size_t i = 0; i < out.size(); i += batch) {
            const std::size_t n = std::min(batch, out.size() - i);
            mux.scan_block(std::span<const std::size_t>(selects).subspan(i, n), inputs,
                           std::span<double>(out).subspan(i, n));
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            expect_bits_equal(reference[i], out[i], i, batch);
        }
    }
}

// Multi-select addressing: the shared line settles to the mean of the
// selected channels plus crosstalk from the unselected ones; a
// single-channel select_many degenerates to select() exactly.
TEST_F(BatchEquivalence, AnalogMuxMultiSelect) {
    MuxConfig cfg;
    cfg.crosstalk = 1e-3;
    const std::vector<double> inputs{1e-3, -2e-3, 0.5e-3, 4e-3};

    // Steady-state check: run long enough for the RC to settle, then
    // compare against the analytic target.
    AnalogMux mux(cfg, 200e3);
    const std::vector<std::size_t> set{1, 3};
    mux.select_many(set);
    ASSERT_EQ(mux.selected_set(), set);
    double v = 0.0;
    for (int i = 0; i < 4096; ++i) v = mux.process(inputs);
    const double expected =
        0.5 * (inputs[1] + inputs[3]) + cfg.crosstalk * (inputs[0] + inputs[2]);
    EXPECT_NEAR(v, expected, 1e-12);

    // Degenerate single-channel set: bit-identical to select().
    AnalogMux a(cfg, 200e3);
    AnalogMux b(cfg, 200e3);
    a.select(2);
    const std::size_t two = 2;
    b.select_many({&two, 1});
    for (std::size_t i = 0; i < 256; ++i) {
        expect_bits_equal(a.process(inputs), b.process(inputs), i, 1);
    }

    // Multi-select process_block == per-sample process, and a scan_block
    // after a multi-select collapses the set with one glitch (same as a
    // per-sample select would).
    AnalogMux ref_mux(cfg, 200e3);
    AnalogMux blk(cfg, 200e3);
    ref_mux.select_many(set);
    blk.select_many(set);
    std::vector<double> reference(512);
    for (double& r : reference) r = ref_mux.process(inputs);
    std::vector<double> out(512);
    blk.process_block(inputs, out);
    for (std::size_t i = 0; i < out.size(); ++i) expect_bits_equal(reference[i], out[i], i, 512);

    const std::vector<std::size_t> collapse(64, 0);
    std::vector<double> ref2(collapse.size());
    for (std::size_t i = 0; i < collapse.size(); ++i) {
        ref_mux.select(collapse[i]);
        ref2[i] = ref_mux.process(inputs);
    }
    std::vector<double> out2(collapse.size());
    blk.scan_block(collapse, inputs, out2);
    for (std::size_t i = 0; i < out2.size(); ++i) expect_bits_equal(ref2[i], out2[i], i, 64);
}

TEST_F(BatchEquivalence, BridgeOutputPairMatchesSeparateSolves) {
    MosBridge bridge;
    bridge.set_mismatch({1e-3, -2e-3, 0.5e-3, -1.5e-3});
    bridge.set_temperature_offset(Temperature{3.0});
    for (const double delta : {-0.01, -1e-6, 0.0, 1e-6, 0.02}) {
        bridge.set_sense_delta(delta);
        const auto [diff, cm] = bridge.output_pair();
        expect_bits_equal(diff.value(), bridge.output().value(), 0, 0);
        expect_bits_equal(cm.value(), bridge.common_mode().value(), 1, 0);
    }
}

TEST_F(BatchEquivalence, LimiterSaturatingKernelMatchesProcessBitwise) {
    // process_saturating skips the tanh call deep in saturation, relying on
    // the runtime-verified threshold past which std::tanh returns exactly
    // +-1.0. Sweep the full magnitude range — linear region, the knee, both
    // sides of the threshold, astronomically deep saturation and infinity —
    // and require bitwise agreement with the plain tanh path for both signs.
    NonlinearLimiter lim(10.0, Voltage{0.5});
    std::vector<double> magnitudes = {0.0, 1e-300, 1e-12, 1e-3};
    for (double m = 1e-3; m < 1e9; m *= 1.13) magnitudes.push_back(m);
    // Dense sweep around the saturation threshold (in input units:
    // x = gain*in/limit crosses the threshold near in = thr*limit/gain).
    const double thr_in = circ::detail::tanh_saturation_threshold() * 0.5 / 10.0;
    if (std::isfinite(thr_in)) {
        for (double f = 0.95; f < 1.05; f += 1e-4) magnitudes.push_back(thr_in * f);
    }
    magnitudes.insert(magnitudes.end(),
                      {1e12, 1e100, 1e300, std::numeric_limits<double>::max(),
                       std::numeric_limits<double>::infinity()});
    for (const double m : magnitudes) {
        for (const double in : {m, -m}) {
            expect_bits_equal(lim.process(in), lim.process_saturating(in), 0, 0);
        }
    }
}

TEST_F(BatchEquivalence, EmptySpanIsANoOp) {
    OnePoleLowPass lp(Frequency{1e3}, 100e3);
    lp.process(0.5);
    const double before = lp.process(0.25);
    std::vector<double> empty;
    lp.process_block(std::span<double>(empty));
    // State unchanged: the next sample matches a twin that never saw the
    // empty batch.
    OnePoleLowPass twin(Frequency{1e3}, 100e3);
    twin.process(0.5);
    const double twin_before = twin.process(0.25);
    expect_bits_equal(before, twin_before, 0, 0);
    expect_bits_equal(lp.process(0.125), twin.process(0.125), 1, 0);
}

}  // namespace
