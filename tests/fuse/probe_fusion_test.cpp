// Probe/fusion interaction (DESIGN.md §11): armed probes at chain
// boundaries are segment breakpoints. The fused form must either split its
// segmentation at an armed tap — materializing the tapped node's exact
// stream — or report tapped values identical to the legacy path. Swept at
// batch sizes {1, 64, 1024}.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circ/block.hpp"
#include "circ/filters.hpp"
#include "circ/fuse.hpp"
#include "circ/limiter.hpp"
#include "circ/vga.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "util/units.hpp"

namespace {

using namespace cbs;
using namespace cbs::circ;

constexpr std::size_t kBatchSizes[] = {1, 64, 1024};
// Under the waveform capacity so the decimation stride stays 1 and the
// recorded waveform is the complete tapped stream.
constexpr std::size_t kSamples = 2000;
constexpr double kSimdEps = 1e-9;

struct FuseModeGuard {
    explicit FuseModeGuard(FuseMode m) { set_fuse_mode(m); }
    ~FuseModeGuard() { clear_fuse_mode(); }
};

struct LevelGuard {
    explicit LevelGuard(obs::Level l) : prev_(obs::level()) { obs::set_level(l); }
    ~LevelGuard() { obs::set_level(prev_); }
    obs::Level prev_;
};

std::vector<double> test_signal(double amplitude) {
    std::vector<double> x(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) {
        const double ph = static_cast<double>(i) * 0.05;
        x[i] = amplitude * (std::sin(ph) + 0.3 * std::sin(3.7 * ph));
    }
    return x;
}

/// gain -> lp -> vga -> biquad -> limiter: a 4-block linear run the fuser
/// wants to collapse, ending in a nonlinear breakpoint.
std::unique_ptr<Chain> probed_chain() {
    auto chain = std::make_unique<Chain>();
    chain->emplace<GainBlock>(2.0);
    chain->emplace<OnePoleLowPass>(Frequency{2e3}, 100e3);
    auto& vga = chain->emplace<VariableGainAmplifier>(-20.0, 12.0);
    vga.set_control(0.6);
    chain->emplace<Biquad>(Biquad::Type::lowpass, Frequency{8e3}, 0.707, 100e3);
    chain->emplace<NonlinearLimiter>(3.0, Voltage{0.5});
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

std::vector<double> waveform_values(const std::string& probe_name) {
    obs::Probe* p = obs::ProbeRegistry::instance().find(probe_name);
    EXPECT_NE(p, nullptr) << probe_name;
    if (p == nullptr) return {};
    EXPECT_EQ(p->waveform_stride(), 1u) << probe_name;
    std::vector<double> values;
    for (const auto& s : p->waveform()) values.push_back(s.value);
    return values;
}

// All boundaries armed: every fusable segment splits down to single
// blocks, so taps AND output are bit-identical on both tiers.
TEST(ProbeFusion, FullyProbedChainBitIdenticalOnEveryTier) {
    LevelGuard obs_guard(obs::Level::trace);
    const auto input = test_signal(0.2);
    int run_id = 0;
    auto run_probed = [&](FuseMode mode, std::size_t batch) {
        FuseModeGuard guard(mode);
        const std::string prefix = "fusetest.full" + std::to_string(run_id++);
        auto chain = probed_chain();
        chain->attach_probes(prefix);
        auto out = run_chain(*chain, input, batch);
        std::vector<std::vector<double>> taps;
        for (std::size_t b = 0; b < chain->size(); ++b) {
            taps.push_back(waveform_values(prefix + ".b" + std::to_string(b)));
        }
        return std::pair{std::move(out), std::move(taps)};
    };
    const auto [ref_out, ref_taps] = run_probed(FuseMode::off, 64);
    for (const auto& t : ref_taps) ASSERT_EQ(t.size(), kSamples);
    for (const std::size_t batch : kBatchSizes) {
        const auto [out, taps] = run_probed(FuseMode::simd, batch);
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(ref_out[i]),
                      std::bit_cast<std::uint64_t>(out[i]))
                << "output sample " << i << " batch " << batch;
        }
        ASSERT_EQ(taps.size(), ref_taps.size());
        for (std::size_t b = 0; b < taps.size(); ++b) {
            ASSERT_EQ(taps[b].size(), ref_taps[b].size()) << "boundary " << b;
            for (std::size_t i = 0; i < taps[b].size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(ref_taps[b][i]),
                          std::bit_cast<std::uint64_t>(taps[b][i]))
                    << "boundary " << b << " sample " << i << " batch " << batch;
            }
        }
    }
}

// One armed probe inside the linear run: the segmentation must split
// there. The upstream segment is reassociated, so the tapped stream
// carries the per-signal tolerance — but every tapped sample must still be
// recorded (no boundary skipped by the fused form).
TEST(ProbeFusion, PartiallyArmedProbeSplitsSegment) {
    LevelGuard obs_guard(obs::Level::trace);
    const auto input = test_signal(0.2);
    int run_id = 0;
    auto run_partial = [&](FuseMode mode, std::size_t batch) {
        FuseModeGuard guard(mode);
        const std::string prefix = "fusetest.part" + std::to_string(run_id++);
        auto chain = probed_chain();
        chain->attach_probes(prefix);
        // Disarm everything except the boundary inside the linear run
        // (output of the VGA, boundary b2).
        for (std::size_t b = 0; b < chain->size(); ++b) {
            if (b == 2) continue;
            obs::Probe* p = obs::ProbeRegistry::instance().find(prefix + ".b" +
                                                               std::to_string(b));
            EXPECT_NE(p, nullptr);  // ASSERT_* would break the lambda's return type
            if (p != nullptr) p->set_armed(false);
        }
        auto out = run_chain(*chain, input, batch);
        return std::pair{std::move(out), waveform_values(prefix + ".b2")};
    };
    const auto [ref_out, ref_tap] = run_partial(FuseMode::off, 64);
    ASSERT_EQ(ref_tap.size(), kSamples);
    double peak = 0.0;
    for (const double v : ref_tap) peak = std::max(peak, std::fabs(v));
    double out_peak = 0.0;
    for (const double v : ref_out) out_peak = std::max(out_peak, std::fabs(v));

    for (const std::size_t batch : kBatchSizes) {
        const auto [out, tap] = run_partial(FuseMode::simd, batch);
        ASSERT_EQ(tap.size(), kSamples) << batch;
        for (std::size_t i = 0; i < kSamples; ++i) {
            ASSERT_LE(std::fabs(tap[i] - ref_tap[i]), kSimdEps * peak)
                << "tap sample " << i << " batch " << batch;
            ASSERT_LE(std::fabs(out[i] - ref_out[i]), kSimdEps * out_peak)
                << "output sample " << i << " batch " << batch;
        }
    }
}

// Arming state is re-read every batch: a probe armed mid-stream starts
// splitting (and recording) from the next batch on, without a structural
// chain change.
TEST(ProbeFusion, ArmingMidStreamTakesEffectNextBatch) {
    LevelGuard obs_guard(obs::Level::trace);
    const auto input = test_signal(0.2);
    FuseModeGuard guard(FuseMode::simd);
    const std::string prefix = "fusetest.midarm";
    auto chain = probed_chain();
    chain->attach_probes(prefix);
    obs::Probe* p2 = obs::ProbeRegistry::instance().find(prefix + ".b2");
    ASSERT_NE(p2, nullptr);
    for (std::size_t b = 0; b < chain->size(); ++b) {
        obs::Probe* p =
            obs::ProbeRegistry::instance().find(prefix + ".b" + std::to_string(b));
        ASSERT_NE(p, nullptr);
        p->set_armed(false);
    }
    std::vector<double> out = input;
    const std::span<double> span(out);
    const std::uint64_t taps_before = p2->sample_count();
    chain->process_block(span.subspan(0, 1000));
    EXPECT_EQ(p2->sample_count(), taps_before);  // disarmed: nothing recorded
    p2->set_armed(true);
    chain->process_block(span.subspan(1000, 1000));
    EXPECT_EQ(p2->sample_count(), taps_before + 1000);  // armed: every sample
}

}  // namespace
