// Performance microbenchmarks (google-benchmark): throughput of the
// simulation kernels that dominate the figure benches.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "array/grid.hpp"
#include "array/scan.hpp"
#include "circ/block.hpp"
#include "circ/chopper.hpp"
#include "circ/filters.hpp"
#include "circ/fuse.hpp"
#include "circ/noise.hpp"
#include "core/resonant_sensor.hpp"
#include "core/static_sensor.hpp"
#include "daq/counter.hpp"
#include "sim/batch.hpp"
#include "exec/threadpool.hpp"
#include "fab/drc.hpp"
#include "fab/layout_gen.hpp"
#include "fab/montecarlo.hpp"
#include "fab/ruledeck.hpp"
#include "mech/resonator.hpp"
#include "obs/obs.hpp"
#include "surrogate/tier.hpp"
#include "util/dft.hpp"
#include "util/random.hpp"

namespace {

using namespace cbs;

void BM_ResonatorStepExact(benchmark::State& state) {
    mech::ResonatorParams p;
    p.omega0 = AngularFrequency{2e6};
    p.q = 300.0;
    p.effective_mass = Mass{1.8e-11};
    mech::ModalResonator r(p);
    r.set_state(Length{1e-9}, Velocity{0.0});
    const Time dt{1e-7};
    for (auto _ : state) {
        r.step_exact(Force{1e-9}, dt);
        benchmark::DoNotOptimize(r.displacement());
    }
}
BENCHMARK(BM_ResonatorStepExact);

void BM_ChopperSample(benchmark::State& state) {
    circ::ChopperConfig cfg;
    cfg.amplifier.gain = 100.0;
    cfg.amplifier.bandwidth = Frequency{50e3};
    cfg.amplifier.white_noise = VoltageNoiseDensity{15e-9};
    cfg.amplifier.flicker_corner = Frequency{5e3};
    circ::ChopperAmplifier amp(cfg, 200e3, Rng(1));
    for (auto _ : state) benchmark::DoNotOptimize(amp.process(1e-6));
}
BENCHMARK(BM_ChopperSample);

void BM_ResonantLoopTick(benchmark::State& state) {
    core::ResonantCantileverSystem sensor(core::ResonantSensorConfig{}, Rng(2));
    // One tick = run for one sample period.
    const Time dt{1.0 / sensor.sample_rate()};
    for (auto _ : state) {
        (void)sensor.run(dt);
    }
}
BENCHMARK(BM_ResonantLoopTick);

void BM_CounterFeed(benchmark::State& state) {
    daq::ReciprocalCounter counter(Time{0.1});
    double t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(counter.feed(t, std::sin(2e6 * t)));
        t += 1e-7;
    }
}
BENCHMARK(BM_CounterFeed);

void BM_DrcFullCell(benchmark::State& state) {
    const auto cell = fab::CantileverCellGenerator(mech::resonant_default()).generate();
    const fab::DrcEngine engine(fab::default_rule_deck());
    for (auto _ : state) benchmark::DoNotOptimize(engine.check(cell));
}
BENCHMARK(BM_DrcFullCell);

void BM_Fft4096(benchmark::State& state) {
    Rng rng(3);
    std::vector<std::complex<double>> x(4096);
    for (auto& c : x) c = {rng.normal(), 0.0};
    for (auto _ : state) {
        auto y = x;
        fft(y);
        benchmark::DoNotOptimize(y[1]);
    }
}
BENCHMARK(BM_Fft4096);

// --- Observability overhead ------------------------------------------------
//
// The acceptance bar for the obs layer: with CBS_OBS=off the instrumented
// hot paths must stay within 5% of their uninstrumented throughput. Compare
// the Off/Summary variants of the same kernel to see what opting in costs.

/// Temporarily forces the observability level for one benchmark.
class ObsLevelGuard {
public:
    explicit ObsLevelGuard(obs::Level l) : prev_(obs::level()) { obs::set_level(l); }
    ~ObsLevelGuard() { obs::set_level(prev_); }

private:
    obs::Level prev_;
};

void BM_ObsCounterAdd_Off(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::off);
    auto* c = obs::MetricsRegistry::instance().counter("bench.counter");
    for (auto _ : state) {
        c->add();
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_ObsCounterAdd_Off);

void BM_ObsCounterAdd_Summary(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::summary);
    auto* c = obs::MetricsRegistry::instance().counter("bench.counter");
    for (auto _ : state) {
        c->add();
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_ObsCounterAdd_Summary);

void BM_ObsHistogramObserve_Summary(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::summary);
    auto* h = obs::MetricsRegistry::instance().histogram("bench.histogram");
    double v = 50.0;
    for (auto _ : state) {
        h->observe(v);
        v = v < 1e8 ? v * 1.1 : 50.0;
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_ObsHistogramObserve_Summary);

void BM_ChopperSample_ObsOff(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::off);
    circ::ChopperConfig cfg;
    cfg.amplifier.gain = 100.0;
    cfg.amplifier.bandwidth = Frequency{50e3};
    cfg.amplifier.white_noise = VoltageNoiseDensity{15e-9};
    cfg.amplifier.flicker_corner = Frequency{5e3};
    circ::ChopperAmplifier amp(cfg, 200e3, Rng(1));
    for (auto _ : state) benchmark::DoNotOptimize(amp.process(1e-6));
}
BENCHMARK(BM_ChopperSample_ObsOff);

void BM_ChopperSample_ObsSummary(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::summary);
    circ::ChopperConfig cfg;
    cfg.amplifier.gain = 100.0;
    cfg.amplifier.bandwidth = Frequency{50e3};
    cfg.amplifier.white_noise = VoltageNoiseDensity{15e-9};
    cfg.amplifier.flicker_corner = Frequency{5e3};
    circ::ChopperAmplifier amp(cfg, 200e3, Rng(1));
    for (auto _ : state) benchmark::DoNotOptimize(amp.process(1e-6));
}
BENCHMARK(BM_ChopperSample_ObsSummary);

// 64 loop ticks per run() call — the short end of realistic usage (fig
// benches run millions of ticks per call), so the per-run span/counter
// cost is amortized the way it is in practice. Compare Off vs Summary
// per-item times for the instrumentation overhead.
void BM_ResonantLoopRun64_ObsOff(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::off);
    core::ResonantCantileverSystem sensor(core::ResonantSensorConfig{}, Rng(2));
    const Time dt{64.0 / sensor.sample_rate()};
    for (auto _ : state) {
        (void)sensor.run(dt);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ResonantLoopRun64_ObsOff);

void BM_ResonantLoopRun64_ObsSummary(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::summary);
    core::ResonantCantileverSystem sensor(core::ResonantSensorConfig{}, Rng(2));
    const Time dt{64.0 / sensor.sample_rate()};
    for (auto _ : state) {
        (void)sensor.run(dt);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ResonantLoopRun64_ObsSummary);

// --- Probe overhead ----------------------------------------------------------
//
// Paired rows for the signal-probe tap cost on the static read chain
// (bridge / chopper / adc taps, 600 samples per read):
//   Off          — CBS_OBS=off: taps must be free (acceptance: <=1%).
//   AttachedIdle — probes registered at the tap sites but not armed: the
//                  per-tap cost is one relaxed atomic load (soft bar: <=5%
//                  vs Off; CI's bench diff reads these rows).
//   Recording    — probes armed: full streaming-stats + ring + waveform.

/// Temporarily forces the probe arming spec for one benchmark.
class ProbeSpecGuard {
public:
    explicit ProbeSpecGuard(std::string spec)
        : prev_(obs::ProbeRegistry::instance().spec()) {
        obs::ProbeRegistry::instance().set_spec(std::move(spec));
    }
    ~ProbeSpecGuard() { obs::ProbeRegistry::instance().set_spec(prev_); }

private:
    std::string prev_;
};

void BM_ProbeOverheadStaticChain_Off(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::off);
    const ProbeSpecGuard spec("");
    core::StaticSensorConfig cfg;
    cfg.probe_scope = "bench.probe.off";
    core::StaticCantileverSystem sensor(cfg, Rng(7));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensor.read_channel(0, Time{1e-3}, Time{2e-3}));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 600));
}
BENCHMARK(BM_ProbeOverheadStaticChain_Off)->Unit(benchmark::kMicrosecond);

void BM_ProbeOverheadStaticChain_AttachedIdle(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::summary);
    const ProbeSpecGuard spec("");  // probes exist, none armed
    core::StaticSensorConfig cfg;
    cfg.probe_scope = "bench.probe.idle";
    core::StaticCantileverSystem sensor(cfg, Rng(7));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensor.read_channel(0, Time{1e-3}, Time{2e-3}));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 600));
}
BENCHMARK(BM_ProbeOverheadStaticChain_AttachedIdle)->Unit(benchmark::kMicrosecond);

void BM_ProbeOverheadStaticChain_Recording(benchmark::State& state) {
    const ObsLevelGuard guard(obs::Level::summary);
    const ProbeSpecGuard spec("bench.probe.rec.*");
    core::StaticSensorConfig cfg;
    cfg.probe_scope = "bench.probe.rec";
    core::StaticCantileverSystem sensor(cfg, Rng(7));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensor.read_channel(0, Time{1e-3}, Time{2e-3}));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 600));
}
BENCHMARK(BM_ProbeOverheadStaticChain_Recording)->Unit(benchmark::kMicrosecond);

// --- Telemetry overhead ------------------------------------------------------
//
// Paired rows for the continuous-telemetry cost on the resonant loop, both
// at CBS_OBS=summary so the delta isolates telemetry itself:
//   Off      — CBS_OBS_TELEMETRY unset (the default): the freq-series push
//              is one relaxed load per gated measurement, maybe_sample one
//              relaxed load per batch.
//   Sampling — a 10 ms cadence into a JSONL sink: windowed Welford + EWMA +
//              streaming Allan per measurement, plus record emission.
// Acceptance bar: Sampling within 5% of Off (measurements arrive per
// 0.1 s gate, so even full telemetry touches ~1 sample per 100k ticks);
// CI hard-gates both rows against BENCH_baseline.json via cbs-obs-diff
// --only BM_TelemetryOverhead.

/// Temporarily configures telemetry (interval + throwaway sink) for one
/// benchmark; restores the disabled default and clears collected state.
class TelemetryGuard {
public:
    explicit TelemetryGuard(double interval_s) {
        auto& t = obs::Telemetry::instance();
        t.configure(interval_s);
        if (interval_s >= 0.0) {
            t.set_sink(obs::out_dir() + "/bench_telemetry_scratch.jsonl");
        }
        t.reset();
    }
    ~TelemetryGuard() {
        auto& t = obs::Telemetry::instance();
        t.reset();
        t.configure(-1.0);
        t.set_sink("");  // next activation re-derives the default sink
    }
};

void BM_TelemetryOverheadOff(benchmark::State& state) {
    const ObsLevelGuard obs_guard(obs::Level::summary);
    const TelemetryGuard telemetry(-1.0);
    core::ResonantCantileverSystem sensor(core::ResonantSensorConfig{}, Rng(2));
    constexpr std::size_t kTicks = 4096;
    const Time window{static_cast<double>(kTicks) / sensor.sample_rate()};
    for (auto _ : state) {
        (void)sensor.run(window);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTicks));
}
BENCHMARK(BM_TelemetryOverheadOff)->Unit(benchmark::kMicrosecond);

void BM_TelemetryOverheadSampling(benchmark::State& state) {
    const ObsLevelGuard obs_guard(obs::Level::summary);
    const TelemetryGuard telemetry(0.01);
    core::ResonantCantileverSystem sensor(core::ResonantSensorConfig{}, Rng(2));
    constexpr std::size_t kTicks = 4096;
    const Time window{static_cast<double>(kTicks) / sensor.sample_rate()};
    for (auto _ : state) {
        (void)sensor.run(window);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTicks));
}
BENCHMARK(BM_TelemetryOverheadSampling)->Unit(benchmark::kMicrosecond);

// --- Batched signal path ----------------------------------------------------
//
// Paired per-sample vs batched timings for the three hot paths of the
// batched refactor (DESIGN.md §9). Arg is the batch size: Arg(1) is the
// legacy per-sample path, Arg(64)/Arg(1024) the batched path. Results are
// bit-identical across all of them (asserted by the equivalence tests);
// these rows show what batching buys. items/s = samples/s for cross-row
// comparison; the recorded pairs live in BENCH_signalpath.json.

/// Temporarily forces the batch size for one benchmark.
class BatchSizeGuard {
public:
    explicit BatchSizeGuard(std::size_t n) { sim::set_batch_size(n); }
    ~BatchSizeGuard() { sim::set_batch_size(0); }
};

void BM_SignalPathResonantLoop(benchmark::State& state) {
    const BatchSizeGuard guard(static_cast<std::size_t>(state.range(0)));
    core::ResonantCantileverSystem sensor(core::ResonantSensorConfig{}, Rng(2));
    constexpr std::size_t kTicks = 4096;
    const Time window{static_cast<double>(kTicks) / sensor.sample_rate()};
    for (auto _ : state) {
        (void)sensor.run(window);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTicks));
}
BENCHMARK(BM_SignalPathResonantLoop)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// Temporarily forces the fuse mode for one benchmark (the compiled-form
/// SIMD tier, DESIGN.md Â§11); pairs with the unfused row above it in
/// BENCH_signalpath.json.
class FuseModeBenchGuard {
public:
    explicit FuseModeBenchGuard(circ::FuseMode m) { circ::set_fuse_mode(m); }
    ~FuseModeBenchGuard() { circ::clear_fuse_mode(); }
};

void BM_SignalPathResonantLoopFused(benchmark::State& state) {
    const FuseModeBenchGuard fuse(circ::FuseMode::simd);
    const BatchSizeGuard guard(static_cast<std::size_t>(state.range(0)));
    core::ResonantCantileverSystem sensor(core::ResonantSensorConfig{}, Rng(2));
    constexpr std::size_t kTicks = 4096;
    const Time window{static_cast<double>(kTicks) / sensor.sample_rate()};
    for (auto _ : state) {
        (void)sensor.run(window);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTicks));
}
BENCHMARK(BM_SignalPathResonantLoopFused)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_SignalPathStaticChain(benchmark::State& state) {
    const BatchSizeGuard guard(static_cast<std::size_t>(state.range(0)));
    core::StaticCantileverSystem sensor(core::StaticSensorConfig{}, Rng(7));
    // 1 ms settle + 2 ms integrate at 200 kHz = 600 chain samples per read.
    constexpr std::size_t kSamplesPerRead = 600;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensor.read_channel(0, Time{1e-3}, Time{2e-3}));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSamplesPerRead));
}
BENCHMARK(BM_SignalPathStaticChain)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_SignalPathStaticChainFused(benchmark::State& state) {
    const FuseModeBenchGuard fuse(circ::FuseMode::simd);
    const BatchSizeGuard guard(static_cast<std::size_t>(state.range(0)));
    core::StaticCantileverSystem sensor(core::StaticSensorConfig{}, Rng(7));
    constexpr std::size_t kSamplesPerRead = 600;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sensor.read_channel(0, Time{1e-3}, Time{2e-3}));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSamplesPerRead));
}
BENCHMARK(BM_SignalPathStaticChainFused)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_SignalPathChain16(benchmark::State& state) {
    // A 16-block mixed chain: per-sample traversal pays 16 virtual calls
    // per sample; batched traversal pays 16 per batch.
    const auto batch = static_cast<std::size_t>(state.range(0));
    circ::Chain chain;
    for (int group = 0; group < 4; ++group) {
        chain.emplace<circ::GainBlock>(1.01);
        chain.emplace<circ::OnePoleLowPass>(Frequency{20e3}, 200e3);
        chain.emplace<circ::Biquad>(circ::Biquad::Type::lowpass, Frequency{40e3}, 0.707, 200e3);
        chain.emplace<circ::WhiteNoise>(VoltageNoiseDensity{10e-9}, 200e3,
                                        Rng(100 + static_cast<std::uint64_t>(group)));
    }
    std::vector<double> buffer(4096);
    for (std::size_t i = 0; i < buffer.size(); ++i) {
        buffer[i] = 1e-3 * std::sin(static_cast<double>(i) * 0.05);
    }
    std::vector<double> scratch(buffer.size());
    for (auto _ : state) {
        scratch = buffer;
        if (batch == 1) {
            for (double& v : scratch) v = chain.process(v);
        } else {
            const std::span<double> span(scratch);
            for (std::size_t i = 0; i < scratch.size(); i += batch) {
                chain.process_block(span.subspan(i, std::min(batch, scratch.size() - i)));
            }
        }
        benchmark::DoNotOptimize(scratch.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * buffer.size()));
}
BENCHMARK(BM_SignalPathChain16)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_SignalPathChain16Fused(benchmark::State& state) {
    const FuseModeBenchGuard fuse(circ::FuseMode::simd);
    const auto batch = static_cast<std::size_t>(state.range(0));
    circ::Chain chain;
    for (int group = 0; group < 4; ++group) {
        chain.emplace<circ::GainBlock>(1.01);
        chain.emplace<circ::OnePoleLowPass>(Frequency{20e3}, 200e3);
        chain.emplace<circ::Biquad>(circ::Biquad::Type::lowpass, Frequency{40e3}, 0.707, 200e3);
        chain.emplace<circ::WhiteNoise>(VoltageNoiseDensity{10e-9}, 200e3,
                                        Rng(100 + static_cast<std::uint64_t>(group)));
    }
    std::vector<double> buffer(4096);
    for (std::size_t i = 0; i < buffer.size(); ++i) {
        buffer[i] = 1e-3 * std::sin(static_cast<double>(i) * 0.05);
    }
    std::vector<double> scratch(buffer.size());
    for (auto _ : state) {
        scratch = buffer;
        const std::span<double> span(scratch);
        for (std::size_t i = 0; i < scratch.size(); i += batch) {
            chain.process_block(span.subspan(i, std::min(batch, scratch.size() - i)));
        }
        benchmark::DoNotOptimize(scratch.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * buffer.size()));
}
BENCHMARK(BM_SignalPathChain16Fused)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// --- Array scan --------------------------------------------------------------
//
// Shared-readout scan of an N-site ArrayGrid (DESIGN.md §12). Args are
// {sites, pool threads}: threads == 0 is the serial in-thread reference,
// threads == 4 shards the row scans over a ThreadPool. Results are
// bit-identical across the pairs (asserted by tests/array); the paired
// rows show what the row sharding buys at 64 / 1024 / 10000 sites.
// items/s = sites/s. The fused rows run the same scan through the
// CBS_FUSE=simd chain tier.

void run_array_scan_bench(benchmark::State& state) {
    const auto sites = static_cast<std::size_t>(state.range(0));
    const auto threads = static_cast<std::size_t>(state.range(1));
    const auto side = static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(sites))));
    const fab::ProcessMonteCarlo mc(mech::resonant_default(), fab::KohEtchConfig{},
                                    fab::ProcessVariation{},
                                    fab::EtchMode::electrochemical_stop);
    array::ArrayConfig gcfg;
    gcfg.rows = side;
    gcfg.cols = side;
    gcfg.seed = 17;
    gcfg.reference_columns = {side - 1};
    array::ArrayGrid grid(gcfg, mc, nullptr);
    grid.set_concentration(MolarConcentration{1e-8});
    grid.advance_binding(Time{60.0});
    array::ScanConfig cfg;
    cfg.noise_density = VoltageNoiseDensity{20e-9};
    cfg.neighbor_coupling = 0.02;
    cfg.log_scan = false;
    const array::ScanController controller(grid, cfg);
    std::unique_ptr<exec::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(controller.scan(pool.get()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * grid.site_count()));
}

void BM_ArrayScan(benchmark::State& state) { run_array_scan_bench(state); }
BENCHMARK(BM_ArrayScan)
    ->Args({64, 0})->Args({64, 4})
    ->Args({1024, 0})->Args({1024, 4})
    ->Args({10000, 0})->Args({10000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_ArrayScanFused(benchmark::State& state) {
    const FuseModeBenchGuard fuse(circ::FuseMode::simd);
    run_array_scan_bench(state);
}
BENCHMARK(BM_ArrayScanFused)
    ->Args({64, 0})->Args({64, 4})
    ->Args({1024, 0})->Args({1024, 4})
    ->Args({10000, 0})->Args({10000, 4})
    ->Unit(benchmark::kMillisecond);

// --- Deterministic parallel execution ---------------------------------------
//
// Paired serial-vs-parallel Monte-Carlo timings. Arg(0) is the serial
// in-thread reference (no pool); Arg(k) shards the same seeded workload
// over a k-worker ThreadPool. Results are bit-identical across all of
// them (asserted by tests/exec); these rows show what the parallelism
// buys in wall time. items/s = trials/s for cross-row comparison.
void BM_MonteCarloRun(benchmark::State& state) {
    const auto threads = static_cast<std::size_t>(state.range(0));
    const fab::ProcessMonteCarlo mc(mech::resonant_default(), fab::KohEtchConfig{},
                                    fab::ProcessVariation{},
                                    fab::EtchMode::electrochemical_stop);
    std::unique_ptr<exec::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
    constexpr std::size_t kTrials = 4096;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mc.run_seeded(kTrials, 42, 0.05, pool.get()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTrials));
}
BENCHMARK(BM_MonteCarloRun)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Paired row: the same study through the CBS_SURROGATE fast path. The fit
// is primed once before the timing loop (the cache amortizes it across a
// real study's millions of trials), so the row measures steady-state
// surrogate evaluation; compare against BM_MonteCarloRun at equal Arg.
void BM_MonteCarloSurrogate(benchmark::State& state) {
    struct SurrogateTierGuard {
        SurrogateTierGuard() { surrogate::set_tier(surrogate::Tier::on); }
        ~SurrogateTierGuard() { surrogate::clear_tier(); }
    } guard;
    const auto threads = static_cast<std::size_t>(state.range(0));
    const fab::ProcessMonteCarlo mc(mech::resonant_default(), fab::KohEtchConfig{},
                                    fab::ProcessVariation{},
                                    fab::EtchMode::electrochemical_stop);
    std::unique_ptr<exec::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
    constexpr std::size_t kTrials = 4096;
    benchmark::DoNotOptimize(mc.run_seeded(kTrials, 42, 0.05, pool.get()));  // warm fit
    for (auto _ : state) {
        benchmark::DoNotOptimize(mc.run_seeded(kTrials, 42, 0.05, pool.get()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTrials));
}
BENCHMARK(BM_MonteCarloSurrogate)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN plus a BenchSession, so `CBS_OBS=summary` also prints the
// metrics run report (exec per-worker task counts, pool utilization, mc.*
// counters) after the google-benchmark table.
int main(int argc, char** argv) {
    const cbs::obs::BenchSession session("perf_microbench");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
