#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "circ/adc.hpp"
#include "circ/block.hpp"
#include "circ/bridge.hpp"
#include "circ/chopper.hpp"
#include "circ/dda.hpp"
#include "circ/filters.hpp"
#include "circ/limiter.hpp"
#include "circ/mux.hpp"
#include "circ/noise.hpp"
#include "circ/phase_shifter.hpp"
#include "circ/vga.hpp"
#include "daq/counter.hpp"
#include "ledger.hpp"
#include "mech/beam.hpp"
#include "mech/hydrodynamics.hpp"
#include "mech/resonator.hpp"
#include "util/constants.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using namespace cbs;

// The loops run their blocks in batches of 64 samples (the default batch);
// replays use the same block size over chunks of this many samples.
constexpr std::size_t kBlock = 64;
constexpr std::size_t kChunk = 4096;

// Replay results nobody reads are stored here so the work is not elided.
volatile double g_sink = 0.0;

/// Calls `chunk()` (which processes `per_call` units) once to warm up, then
/// repeatedly until `units` units ran or `budget_s` passed; ns per unit.
template <class F>
double ns_per_unit(F&& chunk, std::size_t per_call, double units, double budget_s) {
    chunk();
    const auto t0 = Clock::now();
    double done = 0.0;
    double elapsed = 0.0;
    do {
        chunk();
        done += static_cast<double>(per_call);
        elapsed = seconds_between(t0, Clock::now());
    } while (done < units && elapsed < budget_s);
    return elapsed * 1e9 / done;
}

/// Runs `block_fn` over `buf` in kBlock-sample blocks.
template <class F>
void by_blocks(std::vector<double>& buf, F&& block_fn) {
    for (std::size_t i = 0; i < buf.size(); i += kBlock) {
        block_fn(std::span<double>(buf).subspan(i, std::min(kBlock, buf.size() - i)));
    }
}

/// Sine of amplitude `amp` at `f_hz` sampled at `fs`, continuing in phase
/// across successive calls.
class Sine {
public:
    Sine(double amp, double f_hz, double fs) : amp_(amp), w_(2.0 * std::numbers::pi * f_hz / fs) {}
    void fill(std::span<double> out) {
        for (double& v : out) v = amp_ * std::sin(w_ * static_cast<double>(n_++));
    }

private:
    double amp_;
    double w_;
    std::uint64_t n_ = 0;
};

}  // namespace

ResonantReplay replay_resonant(const core::ResonantSensorConfig& cfg,
                               const core::ResonantCantileverSystem& sys, double ticks,
                               double budget_s) {
    const double fs = sys.sample_rate();
    const double dt = 1.0 / fs;
    const mech::EulerBernoulliBeam beam(cfg.geometry);
    const mech::FluidLoading fl = mech::HydrodynamicModel(beam, cfg.fluid).solve();
    const double f0 = fl.resonance.value();
    const double share = budget_s / 7.0;
    Rng rng(0x7e51a7);
    ResonantReplay r;
    std::vector<double> buf(kChunk);

    {
        mech::ModalResonator res(
            mech::make_resonator_params(beam, fl.resonance, sys.loaded_q(), fl.added_modal_mass));
        Sine drive(1e-9, f0, fs);
        std::vector<double> force(kChunk);
        r.resonator = ns_per_unit(
            [&] {
                drive.fill(force);
                for (const double f : force) res.step_exact(Force{f}, Time{dt});
            },
            kChunk, ticks, share);
    }
    {
        circ::Chain chain;
        chain.emplace<circ::DifferentialDifferenceAmplifier>(cfg.dda, fs, rng.fork());
        chain.emplace<circ::Biquad>(circ::Biquad::Type::bandpass, Frequency{f0}, 1.0, fs);
        chain.emplace<circ::OnePoleHighPass>(cfg.highpass_corner, fs);
        chain.emplace<circ::OnePoleHighPass>(cfg.highpass_corner, fs);
        chain.emplace<circ::PhaseShifter>(Frequency{f0}, fs);
        chain.emplace<circ::VariableGainAmplifier>(cfg.vga_min_db, cfg.vga_max_db)
            .set_control(sys.vga_control());
        Sine bridge(1e-4, f0, fs);
        r.loop_linear = ns_per_unit(
            [&] {
                bridge.fill(buf);
                by_blocks(buf, [&](std::span<double> b) { chain.process_block(b); });
            },
            kChunk, ticks, share);
    }
    {
        circ::NonlinearLimiter limiter(cfg.limiter_gain, cfg.limiter_level);
        // Drive the limiter as hard as the loop does: the loop-gain target
        // times the input that reaches its limit level.
        Sine in(cfg.loop_gain_target * cfg.limiter_level.value() / cfg.limiter_gain, f0, fs);
        r.limiter = ns_per_unit(
            [&] {
                in.fill(buf);
                by_blocks(buf, [&](std::span<double> b) { limiter.process_block(b); });
            },
            kChunk, ticks, share);
    }
    {
        const circ::MosBridge bridge(cfg.bridge);
        circ::WhiteNoise noise(bridge.thermal_noise_density(cfg.temperature), fs, rng.fork());
        r.white_noise = ns_per_unit(
            [&] {
                std::fill(buf.begin(), buf.end(), 0.0);
                by_blocks(buf, [&](std::span<double> b) { noise.process_block(b); });
            },
            kChunk, ticks, share);
        const double en = bridge.thermal_noise_density(cfg.temperature).value();
        circ::FlickerNoise flicker(en * en * bridge.flicker_corner().value(), fs / 64.0,
                                   rng.fork(), 1.0);
        r.flicker = ns_per_unit(
            [&] {
                std::fill(buf.begin(), buf.end(), 0.0);
                by_blocks(buf, [&](std::span<double> b) { flicker.process_block(b); });
            },
            kChunk, ticks / 64.0, share);
    }
    {
        daq::ReciprocalCounter counter(cfg.counter_gate, cfg.limiter_level.value() * 0.2);
        Sine in(cfg.limiter_level.value(), f0, fs);
        std::vector<double> t(kBlock);
        std::vector<daq::FrequencyMeasurement> out;
        double now = 0.0;
        r.counter = ns_per_unit(
            [&] {
                in.fill(buf);
                by_blocks(buf, [&](std::span<double> b) {
                    for (std::size_t j = 0; j < b.size(); ++j) t[j] = (now += dt);
                    counter.feed_block(std::span<const double>(t).first(b.size()), b, out);
                });
                out.clear();
            },
            kChunk, ticks, share);
    }
    {
        Rng draws(0xf0ce);
        r.rng_normal = ns_per_unit([&] { draws.fill_raw_normal(buf); }, kChunk, ticks, share);
    }
    return r;
}

StaticReplay replay_static(const core::StaticSensorConfig& cfg, double samples,
                           double budget_s) {
    const double fs = cfg.sample_rate_hz;
    const double share = budget_s / 5.0;
    Rng rng(0x57a71c);
    StaticReplay r;
    std::vector<double> buf(kChunk);
    const auto zero_blocks = [&](auto&& block_fn) {
        std::fill(buf.begin(), buf.end(), 0.0);
        by_blocks(buf, block_fn);
    };
    {
        const auto& amp = cfg.chopper.amplifier;
        circ::FlickerNoise flicker(
            amp.white_noise.value() * amp.white_noise.value() * amp.flicker_corner.value(), fs,
            rng.fork());
        r.flicker = ns_per_unit(
            [&] { zero_blocks([&](std::span<double> b) { flicker.process_block(b); }); },
            kChunk, samples, share);
    }
    {
        circ::ChopperAmplifier chopper(cfg.chopper, fs, rng.fork());
        r.chopper = ns_per_unit(
            [&] {
                std::fill(buf.begin(), buf.end(), 1e-5);
                by_blocks(buf, [&](std::span<double> b) { chopper.process_block(b); });
            },
            kChunk, samples, share);
    }
    {
        const circ::SarAdc adc(cfg.adc_bits, cfg.adc_full_scale);
        Sine in(0.9 * cfg.adc_full_scale.value(), 50.0, fs);
        r.adc = ns_per_unit(
            [&] {
                in.fill(buf);
                by_blocks(buf, [&](std::span<double> b) { adc.quantize_block(b); });
            },
            kChunk, samples, share);
    }
    {
        circ::AnalogMux mux(cfg.mux, fs);
        const std::vector<double> inputs = {1e-3, -2e-3, 3e-3, 0.0};
        std::size_t sel = 0;
        r.mux = ns_per_unit(
            [&] {
                mux.select(sel++ % cfg.mux.channels);
                by_blocks(buf, [&](std::span<double> b) { mux.process_block(inputs, b); });
            },
            kChunk, samples, share);
    }
    {
        const circ::DiffusedBridge bridge(cfg.bridge);
        circ::WhiteNoise noise(bridge.thermal_noise_density(constants::T_room), fs, rng.fork());
        r.bridge_noise = ns_per_unit(
            [&] { zero_blocks([&](std::span<double> b) { noise.process_block(b); }); }, kChunk,
            samples, share);
    }
    return r;
}

double replay_mux_scan(const array::ScanConfig& cfg, std::size_t cols, double samples,
                       double budget_s) {
    auto mux_cfg = cfg.mux;
    mux_cfg.channels = cols;
    circ::AnalogMux mux(mux_cfg, cfg.sample_rate_hz);
    const std::size_t per_site = cfg.settle_samples + cfg.dwell_samples;
    std::vector<std::size_t> selects(cols * per_site);
    for (std::size_t c = 0; c < cols; ++c) {
        std::fill_n(selects.begin() + static_cast<std::ptrdiff_t>(c * per_site), per_site, c);
    }
    std::vector<double> inputs(cols);
    for (std::size_t c = 0; c < cols; ++c) inputs[c] = 1e-3 * static_cast<double>(c % 7);
    std::vector<double> out(selects.size());
    return ns_per_unit([&] { mux.scan_block(selects, inputs, out); }, selects.size(), samples,
                       budget_s);
}

YieldReplay replay_yield(const fab::ProcessMonteCarlo& mc, std::uint64_t seed, double trials,
                         double budget_s) {
    // Streams are built and consumed in 64-trial chunks, like the study's.
    constexpr std::size_t chunk = fab::ProcessMonteCarlo::kTrialChunk;
    std::vector<Rng> streams;
    streams.reserve(chunk);
    std::uint64_t next = 0;
    double sink = 0.0;
    const auto make_streams = [&] {
        streams.clear();
        for (std::size_t j = 0; j < chunk; ++j) streams.push_back(Rng::for_stream(seed, next++));
    };
    YieldReplay r;
    r.stream = ns_per_unit(
        [&] {
            make_streams();
            for (auto& s : streams) sink += s.normal();
        },
        chunk, trials, budget_s / 2.0);
    // Fresh streams per chunk, built outside the timed region.
    double sample_s = 0.0;
    double done = 0.0;
    const auto t_budget = Clock::now();
    do {
        make_streams();
        const auto t0 = Clock::now();
        for (auto& s : streams) sink += mc.sample(s).resonance.value();
        sample_s += seconds_between(t0, Clock::now());
        done += static_cast<double>(chunk);
    } while (done < trials && seconds_between(t_budget, Clock::now()) < budget_s / 2.0);
    r.sample = sample_s * 1e9 / done;
    g_sink = sink;
    return r;
}

}  // namespace perfbench
