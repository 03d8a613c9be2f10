// Chain-topology fuzz: randomized mixed linear/nonlinear chains, 1–32
// blocks deep, 10k samples each, fused vs. unfused (DESIGN.md §11).
// Nonlinear blocks (limiter, saturating PGA) and noise sources are segment
// breakpoints: the fused form never crosses them, so the SIMD tier stays
// within its per-signal tolerance no matter how the linear runs land
// between them. The suite
// runs under the sanitizer jobs in CI (ASan/UBSan via the existing flags,
// TSan via the dedicated fuse leg).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "circ/block.hpp"
#include "circ/filters.hpp"
#include "circ/fuse.hpp"
#include "circ/limiter.hpp"
#include "circ/noise.hpp"
#include "circ/offset_comp.hpp"
#include "circ/pga.hpp"
#include "circ/phase_shifter.hpp"
#include "circ/vga.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace {

using namespace cbs;
using namespace cbs::circ;

constexpr std::size_t kSamples = 10000;
constexpr double kSimdEps = 1e-9;  ///< per-signal ε, relative to stream peak

struct FuseModeGuard {
    explicit FuseModeGuard(FuseMode m) { set_fuse_mode(m); }
    ~FuseModeGuard() { clear_fuse_mode(); }
};

std::vector<double> test_signal(double amplitude) {
    std::vector<double> x(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) {
        const double ph = static_cast<double>(i) * 0.05;
        x[i] = amplitude * (std::sin(ph) + 0.3 * std::sin(3.7 * ph));
    }
    return x;
}

/// Same random mixed chain for every call with the same seed: linear kinds
/// interleaved with nonlinear breakpoints at random positions, depth 1–32.
std::unique_ptr<Chain> random_mixed_chain(std::uint64_t seed) {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::uniform_int_distribution<int> depth_dist(1, 32);
    const double fs = 100e3;
    auto chain = std::make_unique<Chain>();
    const int depth = depth_dist(gen);
    for (int i = 0; i < depth; ++i) {
        switch (std::uniform_int_distribution<int>(0, 9)(gen)) {
            case 0:
                chain->emplace<GainBlock>(0.5 + 1.5 * uni(gen));
                break;
            case 1: {
                auto& vga = chain->emplace<VariableGainAmplifier>(-20.0, 12.0);
                vga.set_control(uni(gen));
                break;
            }
            case 2: {
                auto& oc = chain->emplace<OffsetCompensator>(Voltage{1.2}, 12);
                oc.set_code(static_cast<int>(uni(gen) * 2000.0) - 1000);
                break;
            }
            case 3:
                chain->emplace<OnePoleLowPass>(Frequency{500.0 + 20e3 * uni(gen)}, fs);
                break;
            case 4:
                chain->emplace<OnePoleHighPass>(Frequency{10.0 + 1e3 * uni(gen)}, fs);
                break;
            case 5:
                chain->emplace<Biquad>(Biquad::Type::lowpass,
                                       Frequency{1e3 + 20e3 * uni(gen)},
                                       0.5 + 2.0 * uni(gen), fs);
                break;
            case 6:
                chain->emplace<PhaseShifter>(Frequency{1e3 + 10e3 * uni(gen)}, fs);
                break;
            case 7:  // nonlinear breakpoint: smooth limiter
                chain->emplace<NonlinearLimiter>(1.0 + 4.0 * uni(gen),
                                                 Voltage{0.05 + 0.5 * uni(gen)});
                break;
            case 8: {  // nonlinear breakpoint: PGA driven into its rails
                auto& pga = chain->emplace<ProgrammableGainStage>(Voltage{0.5});
                pga.set_setting(std::uniform_int_distribution<int>(0, 4)(gen));
                break;
            }
            default:  // seeded noise source
                chain->emplace<WhiteNoise>(VoltageNoiseDensity{50e-9}, fs,
                                           Rng(seed * 1000 + static_cast<std::uint64_t>(i)));
                break;
        }
    }
    return chain;
}

std::vector<double> run_chain(Chain& chain, const std::vector<double>& input,
                              std::size_t batch) {
    std::vector<double> out = input;
    const std::span<double> span(out);
    for (std::size_t i = 0; i < out.size(); i += batch) {
        chain.process_block(span.subspan(i, std::min(batch, out.size() - i)));
    }
    return out;
}

TEST(ChainFuzz, SimdTierWithinToleranceOnMixedChains) {
    const auto input = test_signal(0.2);
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        std::vector<double> reference;
        {
            FuseModeGuard guard(FuseMode::off);
            auto chain = random_mixed_chain(seed);
            reference = run_chain(*chain, input, 64);
        }
        double peak = 0.0;
        for (const double v : reference) peak = std::max(peak, std::fabs(v));
        ASSERT_GT(peak, 0.0) << seed;
        FuseModeGuard guard(FuseMode::simd);
        auto chain = random_mixed_chain(seed);
        const auto out = run_chain(*chain, input, 64);
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_LE(std::fabs(out[i] - reference[i]), kSimdEps * peak)
                << "seed " << seed << " sample " << i << ": " << reference[i] << " vs "
                << out[i];
        }
    }
}

// Uneven partitions across a mixed chain: the plan's per-batch spec refill,
// the dense step's state load/store and the fast Gaussian fill (a pure
// function of its engine words, however its refills are split) are all
// partition-invariant on the SIMD tier, bit for bit.
TEST(ChainFuzz, SimdTierPartitionInvariantOnMixedChain) {
    const auto input = test_signal(0.2);
    std::vector<double> reference;
    {
        FuseModeGuard guard(FuseMode::simd);
        auto chain = random_mixed_chain(104);
        reference = run_chain(*chain, input, 1);
    }
    for (const std::size_t batch : {2u, 7u, 64u, 1024u}) {
        FuseModeGuard guard(FuseMode::simd);
        auto chain = random_mixed_chain(104);
        const auto out = run_chain(*chain, input, batch);
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                      std::bit_cast<std::uint64_t>(reference[i]))
                << "batch " << batch << " sample " << i << ": " << reference[i] << " vs "
                << out[i];
        }
    }
}

}  // namespace
