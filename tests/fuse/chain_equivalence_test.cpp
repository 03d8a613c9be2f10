// Fused-vs-legacy equivalence for randomized all-linear chains
// (DESIGN.md §11). Contract under test: CBS_FUSE=on steps the composed
// dense recurrence — per-signal tolerance contract:
// |fused − legacy| ≤ ε · max|legacy| over the stream, ε = 1e-9 (the
// measured composition error is orders of magnitude tighter; the assert
// leaves headroom for other FMA/ISA combinations), for every topology and
// every batch partition {1, 2, 7, 64, 1024}.
//
// Chains are generated from seeded RNG sweeps over every linear block kind
// the spec layer knows: gain, VGA (gain), offset compensator (affine),
// one-pole low/high-pass, all three biquad types, phase shifter
// (differentiator).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "circ/block.hpp"
#include "circ/filters.hpp"
#include "circ/fuse.hpp"
#include "circ/offset_comp.hpp"
#include "circ/phase_shifter.hpp"
#include "circ/vga.hpp"
#include "util/units.hpp"

namespace {

using namespace cbs;
using namespace cbs::circ;

constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64, 1024};
constexpr std::size_t kSamples = 4096;
constexpr double kSimdEps = 1e-9;  ///< per-signal ε, relative to stream peak

struct FuseModeGuard {
    explicit FuseModeGuard(FuseMode m) { set_fuse_mode(m); }
    ~FuseModeGuard() { clear_fuse_mode(); }
};

std::vector<double> test_signal(double amplitude, std::size_t n = kSamples) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double ph = static_cast<double>(i) * 0.05;
        x[i] = amplitude * (std::sin(ph) + 0.3 * std::sin(3.7 * ph)) +
               amplitude * 1e-3 * static_cast<double>(i);
    }
    return x;
}

/// Appends one randomly parameterized linear block of the given kind.
void append_linear_block(Chain& chain, int kind, std::mt19937_64& gen) {
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const double fs = 100e3;
    switch (kind) {
        case 0:
            chain.emplace<GainBlock>(0.25 + 4.0 * uni(gen));
            break;
        case 1: {
            auto& vga = chain.emplace<VariableGainAmplifier>(-40.0, 26.0);
            vga.set_control(uni(gen));
            break;
        }
        case 2: {
            auto& oc = chain.emplace<OffsetCompensator>(Voltage{1.2}, 12);
            oc.set_code(static_cast<int>(uni(gen) * 4000.0) - 2000);
            break;
        }
        case 3:
            chain.emplace<OnePoleLowPass>(Frequency{200.0 + 20e3 * uni(gen)}, fs);
            break;
        case 4:
            chain.emplace<OnePoleHighPass>(Frequency{10.0 + 2e3 * uni(gen)}, fs);
            break;
        case 5:
            chain.emplace<Biquad>(Biquad::Type::lowpass, Frequency{1e3 + 20e3 * uni(gen)},
                                  0.5 + 2.0 * uni(gen), fs);
            break;
        case 6:
            chain.emplace<Biquad>(Biquad::Type::highpass, Frequency{50.0 + 2e3 * uni(gen)},
                                  0.5 + 2.0 * uni(gen), fs);
            break;
        case 7:
            chain.emplace<Biquad>(Biquad::Type::bandpass, Frequency{1e3 + 10e3 * uni(gen)},
                                  0.7 + 4.0 * uni(gen), fs);
            break;
        default:
            chain.emplace<PhaseShifter>(Frequency{1e3 + 10e3 * uni(gen)}, fs);
            break;
    }
}

/// LinearSpec kind of each append_linear_block kind.
constexpr LinearSpec::Kind kSpecKind[] = {
    LinearSpec::Kind::gain,       LinearSpec::Kind::gain,       LinearSpec::Kind::affine,
    LinearSpec::Kind::onepole_lp, LinearSpec::Kind::onepole_hp, LinearSpec::Kind::biquad,
    LinearSpec::Kind::biquad,     LinearSpec::Kind::biquad,     LinearSpec::Kind::differentiator,
};

/// Builds the same random all-linear chain every call for a given seed;
/// adds the spec kinds it drew to `kinds` when given.
std::unique_ptr<Chain> random_linear_chain(std::uint64_t seed,
                                           std::set<LinearSpec::Kind>* kinds = nullptr) {
    std::mt19937_64 gen(seed);
    std::uniform_int_distribution<int> kind(0, 8);
    std::uniform_int_distribution<int> depth(2, 8);
    auto chain = std::make_unique<Chain>();
    const int n = depth(gen);
    for (int i = 0; i < n; ++i) {
        const int k = kind(gen);
        append_linear_block(*chain, k, gen);
        if (kinds != nullptr) kinds->insert(kSpecKind[k]);
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

/// The SIMD tier's per-signal contract: |out − reference| ≤ ε·max|reference|.
void expect_within_eps(const std::vector<double>& reference, const std::vector<double>& out) {
    double peak = 0.0;
    for (const double v : reference) peak = std::max(peak, std::fabs(v));
    ASSERT_GT(peak, 0.0);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_LE(std::fabs(out[i] - reference[i]), kSimdEps * peak)
            << "sample " << i << ": " << reference[i] << " vs " << out[i];
    }
}

// The legacy reference itself must not depend on the batch partition
// (DESIGN.md §9) — anchors the SIMD-tier comparisons below.
TEST(ChainEquivalence, LegacyReferenceIsPartitionInvariant) {
    FuseModeGuard guard(FuseMode::off);
    const auto input = test_signal(0.2);
    auto ref_chain = random_linear_chain(3);
    const auto reference = run_chain(*ref_chain, input, 1);
    auto chain = random_linear_chain(3);
    const auto out = run_chain(*chain, input, 1024);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(reference[i]),
                  std::bit_cast<std::uint64_t>(out[i]))
            << i;
    }
}

// SIMD tier: per-signal tolerance relative to the stream's peak. The seeds
// draw every LinearSpec::Kind, so each kind's spec is checked against its
// block's own kernel.
TEST(ChainEquivalence, SimdTierWithinPerSignalTolerance) {
    const auto input = test_signal(0.2);
    std::set<LinearSpec::Kind> kinds;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        std::vector<double> reference;
        {
            FuseModeGuard guard(FuseMode::off);
            auto chain = random_linear_chain(seed, &kinds);
            reference = run_chain(*chain, input, 64);
        }
        for (const std::size_t batch : kBatchSizes) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " batch " << batch);
            FuseModeGuard guard(FuseMode::simd);
            auto chain = random_linear_chain(seed);
            expect_within_eps(reference, run_chain(*chain, input, batch));
            if (HasFatalFailure()) return;
        }
    }
    EXPECT_EQ(kinds.size(), 6u) << "a LinearSpec::Kind is missing from the sweep";
}

// Fused and legacy paths must interleave freely: states are stored back
// through the live pointers, so switching modes mid-stream continues the
// same trajectory (within the SIMD tier's tolerance).
TEST(ChainEquivalence, SimdTierInterleavesWithLegacyMidStream) {
    const auto input = test_signal(0.2);
    std::vector<double> reference;
    {
        FuseModeGuard guard(FuseMode::off);
        auto chain = random_linear_chain(7);
        reference = run_chain(*chain, input, 64);
    }
    auto chain = random_linear_chain(7);
    std::vector<double> out = input;
    const std::span<double> span(out);
    std::size_t i = 0;
    for (std::size_t step = 0; i < out.size(); ++step) {
        // Alternate fused and legacy batches.
        FuseModeGuard guard(step % 2 == 0 ? FuseMode::simd : FuseMode::off);
        const std::size_t n = std::min<std::size_t>(97, out.size() - i);
        chain->process_block(span.subspan(i, n));
        i += n;
    }
    expect_within_eps(reference, out);
}

// Parameter sweeps: the compiled plan must track coefficient changes made
// between batches exactly (the spec refill catches retuned blocks), so the
// fused stream stays within the SIMD tier's tolerance of the legacy one.
TEST(ChainEquivalence, RetunedBlockBetweenBatchesTracksExactly) {
    const auto input = test_signal(0.2, 1024);
    auto run = [&](FuseMode mode) {
        FuseModeGuard guard(mode);
        auto chain = std::make_unique<Chain>();
        auto& vga = chain->emplace<VariableGainAmplifier>(-40.0, 26.0);
        vga.set_control(0.3);
        chain->emplace<OnePoleLowPass>(Frequency{2e3}, 100e3);
        chain->emplace<Biquad>(Biquad::Type::bandpass, Frequency{5e3}, 2.0, 100e3);
        std::vector<double> out = input;
        const std::span<double> span(out);
        for (std::size_t i = 0; i < out.size(); i += 128) {
            vga.set_control(0.3 + 0.05 * static_cast<double>(i / 128));
            chain->process_block(span.subspan(i, 128));
        }
        return out;
    };
    expect_within_eps(run(FuseMode::off), run(FuseMode::simd));
}

// A chain with a single linear block has nothing to fuse (no run of 2+):
// the fused entry point must decline and the legacy path must produce the
// stream untouched by the plan machinery.
TEST(ChainEquivalence, SingleBlockChainFallsBackBitIdentical) {
    const auto input = test_signal(0.2, 512);
    auto run = [&](FuseMode mode) {
        FuseModeGuard guard(mode);
        Chain chain;
        chain.emplace<OnePoleLowPass>(Frequency{1e3}, 100e3);
        return run_chain(chain, input, 64);
    };
    const auto reference = run(FuseMode::off);
    const auto out = run(FuseMode::simd);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(reference[i]),
                  std::bit_cast<std::uint64_t>(out[i]))
            << i;
    }
}

}  // namespace
