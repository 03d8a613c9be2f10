#include "workloads.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "array/grid.hpp"
#include "array/scan.hpp"
#include "bio/functionalization.hpp"
#include "core/resonant_sensor.hpp"
#include "core/static_sensor.hpp"
#include "exec/threadpool.hpp"
#include "fab/montecarlo.hpp"
#include "mech/geometry.hpp"
#include "phys/fluid.hpp"
#include "replay.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using namespace cbs;
using namespace cbs::literals;

/// Formats a check's description (kept by the ledger when the check fails).
template <class... Args>
std::string describe(const char* fmt, Args... args) {
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return buf;
}

double seconds_of(const std::map<std::string, SelfTime>& self, const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.seconds;
}

std::size_t calls_of(const std::map<std::string, SelfTime>& self, const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0 : it->second.calls;
}

double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

// ---------------------------------------------------------------------------
// resonant_assay: closed-loop mass assays (Fig. 5) in air and in water, one
// system after another on one thread; one operation is one counter gate.

struct MediumPlan {
    const phys::Fluid& (*fluid)();
    int gates;        ///< counter gates the system runs
    int step_after;   ///< binding step (set_coverage) after this many gates
    double freq_tol;  ///< |f / expected_resonance() - 1| allowed per gate
    double mass_tol;  ///< |recovered / bound_mass() - 1| after the step; 0: unchecked
};

// EXPERIMENTS.md Fig. 5: the loop runs -0.012 % off the expected resonance
// in air (deterministic loop-phase pulling); in water the pulling measured
// +0.14 %. Tolerances leave about 4x that margin; gate-to-gate scatter
// (0.03-0.2 Hz in air, Fig. 5c; about 10 Hz in water) is far inside both.
// Fig. 2: the closed loop reproduces the analytic mass shift to within
// 2.7 % (0.02-0.06 % at coverage 0.5-1.0); air allows 5 %. In water the
// gate scatter is more than the few-Hz shift of a full
// monolayer on 56 ng of co-moving water, so there only the frequency is
// checked.
constexpr std::array<MediumPlan, 2> kResonantPlan = {{
    {&phys::fluids::air, 8, 4, 5e-4, 0.05},
    {&phys::fluids::water, 6, 3, 6e-3, 0.0},
}};

class ResonantAssay final : public Workload {
public:
    explicit ResonantAssay(std::uint64_t seed) : seed_(seed) {}

    void setup(Tracer& tracer) override { start_system(tracer); }

    /// One full plan cycle: every medium, its binding step and, in air, the
    /// mass recovery after it.
    [[nodiscard]] std::size_t min_ops() const override {
        std::size_t n = 0;
        for (const auto& p : kResonantPlan) n += static_cast<std::size_t>(p.gates);
        return n;
    }

    void op(Tracer& tracer, FailureLedger& failures, Digest& digest) override {
        if (gate_ == plan().gates) {
            ++system_;
            start_system(tracer);
        }
        const MediumPlan& p = plan();
        if (gate_ == p.step_after) {
            // Binding step: the seeded coverage the assay jumps to.
            Rng plan_rng(mix_seed(seed_, 0x5e7 + system_));
            sys_->set_coverage(plan_rng.uniform(0.5, 1.0));
        }
        const Time gate = sys_->config().counter_gate;
        std::vector<daq::FrequencyMeasurement> ms;
        {
            const Scope span(tracer, "core.resonant.run");
            ms = sys_->run(gate);
        }
        const std::size_t medium = system_ % kResonantPlan.size();
        ticks_[medium] += static_cast<double>(
            static_cast<std::size_t>(gate.value() * sys_->sample_rate()));
        sim_s_ += gate.value();

        const double f_exp = sys_->expected_resonance().value();
        failures.check(!ms.empty() || gate_ == 0,
                       describe("system %llu gate %d: %zu counter gates completed",
                                static_cast<unsigned long long>(system_), gate_, ms.size()));
        for (const auto& m : ms) {
            digest.add(m.frequency_hz);
            digest.add(m.gate_end);
            digest.add(static_cast<std::uint64_t>(m.edges));
            const double err = m.frequency_hz / f_exp - 1.0;
            failures.check(std::isfinite(m.frequency_hz) && std::abs(err) < p.freq_tol,
                           describe("medium %zu gate %d: f %.3f Hz vs expected %.3f Hz (%+.4f %%)",
                                    medium, gate_, m.frequency_hz, f_exp, 100.0 * err));
        }
        // Gates 0 and 1 carry the start-up transient; later pre-step gates
        // are the baseline.
        if (!ms.empty() && gate_ >= 2 && gate_ < p.step_after) {
            base_sum_ += ms.back().frequency_hz;
            ++base_n_;
            f_exp_base_ = f_exp;
        }
        if (p.mass_tol > 0.0 && !ms.empty() && gate_ > p.step_after && base_n_ > 0) {
            // Differential readout (the gate that straddles the step is
            // skipped): the measured shift from the baseline, placed on the
            // model's unloaded resonance, so the loop's constant pulling
            // cancels.
            const double shift = ms.back().frequency_hz - base_sum_ / static_cast<double>(base_n_);
            const double dm = sys_->mass_from_frequency(Frequency{f_exp_base_ + shift}).value() -
                              sys_->mass_from_frequency(Frequency{f_exp_base_}).value();
            const double bound = sys_->bound_mass().value();
            const double rel = dm / bound - 1.0;
            failures.check(std::abs(rel) < p.mass_tol,
                           describe("medium %zu gate %d: recovered %.4g kg vs bound %.4g kg "
                                    "(%+.2f %%)",
                                    medium, gate_, dm, bound, 100.0 * rel));
        }
        ++gate_;
    }

    [[nodiscard]] double work() const override { return sim_s_; }
    [[nodiscard]] std::string_view work_metric() const override { return "sim_rt"; }
    [[nodiscard]] std::string_view work_unit() const override { return "sim_s/s"; }

    void pool_checks(FailureLedger&, Metrics&) override {}  // single-threaded by design

    void layer_rows(const std::map<std::string, SelfTime>& setup_self, std::size_t,
                    const std::map<std::string, SelfTime>& op_self, std::size_t ops,
                    double replay_s, Metrics& out) override {
        const double run_s = seconds_of(op_self, "core.resonant.run");
        const double ticks = ticks_[0] + ticks_[1];
        out["core.resonant.run_s"] = {per(run_s, static_cast<double>(ops)), "s/op"};
        out["core.resonant.ns_per_tick"] = {per(run_s * 1e9, ticks), "ns/tick"};
        out["core.resonant.auto_gain_s"] = {
            per(seconds_of(setup_self, "core.resonant.auto_gain"),
                static_cast<double>(calls_of(setup_self, "core.resonant.auto_gain"))),
            "s/call"};
        // Replays at each medium's configuration, weighted by its ticks.
        ResonantReplay w{};
        for (std::size_t m = 0; m < kResonantPlan.size(); ++m) {
            if (ticks_[m] <= 0.0) continue;
            const auto cfg = config(m);
            const core::ResonantCantileverSystem sys(cfg, Rng(1));
            const auto r = replay_resonant(cfg, sys, ticks_[m], replay_s * ticks_[m] / ticks);
            const double share = ticks_[m] / ticks;
            w.resonator += share * r.resonator;
            w.loop_linear += share * r.loop_linear;
            w.limiter += share * r.limiter;
            w.white_noise += share * r.white_noise;
            w.counter += share * r.counter;
            w.rng_normal += share * r.rng_normal;
            w.flicker += share * r.flicker;
        }
        out["mech.resonator.ns_per_step"] = {w.resonator, "ns/step"};
        out["circ.loop_linear.ns_per_sample"] = {w.loop_linear, "ns/sample"};
        out["circ.limiter.ns_per_sample"] = {w.limiter, "ns/sample"};
        out["circ.white_noise.ns_per_sample"] = {w.white_noise, "ns/sample"};
        out["daq.counter.ns_per_sample"] = {w.counter, "ns/sample"};
        out["util.rng.normal_ns"] = {w.rng_normal, "ns/draw"};
        const double sum_ns = w.resonator + w.loop_linear + w.limiter + w.white_noise + w.counter +
                 w.rng_normal;
        const std::array<LayerTerm, 2> terms = {{{sum_ns, ticks}, {w.flicker, ticks / 64.0}}};
        out["core.resonant.residual_frac"] = {residual_frac(terms, run_s), "ratio"};
    }

private:
    [[nodiscard]] const MediumPlan& plan() const {
        return kResonantPlan[system_ % kResonantPlan.size()];
    }

    [[nodiscard]] static core::ResonantSensorConfig config(std::size_t medium) {
        core::ResonantSensorConfig cfg;
        cfg.fluid = kResonantPlan[medium].fluid();
        return cfg;
    }

    void start_system(Tracer& tracer) {
        gate_ = 0;
        base_sum_ = 0.0;
        base_n_ = 0;
        {
            const Scope span(tracer, "core.resonant.construct");
            sys_ = std::make_unique<core::ResonantCantileverSystem>(
                config(system_ % kResonantPlan.size()), Rng(mix_seed(seed_, system_)));
        }
        const Scope span(tracer, "core.resonant.auto_gain");
        sys_->auto_gain();
    }

    std::uint64_t seed_;
    std::uint64_t system_ = 0;
    int gate_ = 0;
    std::unique_ptr<core::ResonantCantileverSystem> sys_;
    double base_sum_ = 0.0;
    std::size_t base_n_ = 0;
    double f_exp_base_ = 0.0;
    std::array<double, kResonantPlan.size()> ticks_{};
    double sim_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// static_assay: the Fig. 4 assay on one timeline. Each step advances binding,
// reads the 4-channel chopper chain and scans a 32x32 array on the pool.

constexpr double kStepSeconds = 6.0;            // assay time per step
constexpr std::size_t kGridRows = 32;
constexpr std::size_t kGridCols = 32;
// EXPERIMENTS.md Fig. 4: reading noise 1.30 mV rms with the chopper on; the
// blocked reference reads 0.35 mV at 30 nM. The reference must stay within
// 6 sigma of zero.
constexpr double kReadingNoise = 1.30e-3;
constexpr double kRefTol = 6.0 * kReadingNoise;
// Differential vs the model's responsivity x surface stress: 6 sigma of a
// two-reading difference plus 10 % for what the linear model leaves out
// (bridge nonlinearity and per-channel bridge mismatch: Fig. 4 reads 48 mV
// at coverage 0.75 where the linear model gives 55 mV, 13 % below it).
constexpr double kDiffAbsTol = 6.0 * std::numbers::sqrt2 * kReadingNoise;
constexpr double kDiffRelTol = 0.10;
// Known cbs defect: ChopperAmplifier derives the carrier sign from time
// accumulated in floating point, and with 20 samples per chop period the
// half-period edges land exactly on sample instants, so rounding makes some
// half periods 9 or 11 samples long and leaks the amplified core offset.
// The readings get heavy tails (reference readings to -8.2 mV, differentials
// 23 % off the model); with the sign taken from an integer sample index
// they are Gaussian again. Readings beyond the envelopes above but within
// 10 sigma / 25 % are counted in chopper_edge_readings instead of failing;
// beyond that they fail.
constexpr double kRefDefectTol = 10.0 * kReadingNoise;
constexpr double kDiffDefectAbsTol = 10.0 * std::numbers::sqrt2 * kReadingNoise;
constexpr double kDiffDefectRelTol = 0.25;
// examples/array_assay.cpp calls a row positive above 0.05 mV of
// baseline-subtracted, drift-cancelled signal. A row is bound when the
// model's signal (chain gain x the change of its sites' bridge outputs
// since the baseline scan) clears that threshold by 6 sigma of a row mean's
// scatter about the model (0.013 mV, measured on three 32x32 grids over 150
// steps); bound rows must be called positive.
constexpr double kCallThreshold = 0.05e-3;
constexpr double kRowNoise = 0.013e-3;
constexpr double kBoundRowSignal = kCallThreshold + 6.0 * kRowNoise;

class StaticAssay final : public Workload {
public:
    StaticAssay(std::uint64_t seed, std::size_t threads)
        : seed_(seed),
          threads_(threads),
          mc_(mech::resonant_default(), fab::KohEtchConfig{}, fab::ProcessVariation{},
              fab::EtchMode::electrochemical_stop) {
        gcfg_.rows = kGridRows;
        gcfg_.cols = kGridCols;
        gcfg_.seed = mix_seed(seed, 0xa77a);
        gcfg_.reference_columns = {kGridCols - 1};
        gcfg_.row_coatings = {bio::antibody_coating(bio::library::igg_antigen()),
                              bio::antibody_coating(bio::library::psa()),
                              bio::antibody_coating(bio::library::crp()), bio::dna_coating()};
        scfg_.name = "perfbench";
        scfg_.common_mode_v = 5e-3;
        scfg_.neighbor_coupling = 0.01;
        scfg_.noise_density = VoltageNoiseDensity{20e-9};
        scfg_.noise_seed = mix_seed(seed, 0x5ca7);
    }

    void setup(Tracer& tracer) override {
        {
            const Scope span(tracer, "exec.pool_start");
            pool_ = std::make_unique<exec::ThreadPool>(threads_);
        }
        {
            const Scope span(tracer, "core.static.construct");
            sys_ = std::make_unique<core::StaticCantileverSystem>(cfg_,
                                                                 Rng(mix_seed(seed_, 0x57a7)));
            sys_->set_coating(1, bio::antibody_coating(bio::library::psa()));
            sys_->set_coating(2, bio::antibody_coating(bio::library::crp()));
        }
        {
            const Scope span(tracer, "core.static.calibrate");
            sys_->calibrate_offsets();
        }
        {
            const Scope span(tracer, "array.grid_build");
            scan_.reset();
            grid_ = std::make_unique<array::ArrayGrid>(gcfg_, mc_, pool_.get());
            scan_ = std::make_unique<array::ScanController>(*grid_, scfg_);
        }
        {
            const Scope span(tracer, "array.scan");
            baseline_ = scan_->scan(pool_.get());
        }
        baseline_source_v_ = source_voltages();
        sys_->set_concentration(30.0_nM);
        grid_->set_concentration(10.0_nM);
    }

    [[nodiscard]] std::size_t min_ops() const override { return 2; }

    void op(Tracer& tracer, FailureLedger& failures, Digest& digest) override {
        {
            const Scope span(tracer, "bio.advance_binding");
            sys_->advance_binding(Time{kStepSeconds});
            grid_->advance_binding(Time{kStepSeconds});
        }
        std::array<core::ChannelReading, core::StaticCantileverSystem::channel_count> r{};
        for (std::size_t ch = 0; ch < r.size(); ++ch) {
            const Scope span(tracer, "core.static.read");
            r[ch] = sys_->read_channel(ch);
        }
        array::ScanResult scan;
        {
            const Scope span(tracer, "array.scan");
            scan = scan_->scan(pool_.get());
        }
        ++steps_;
        check_readings(r, failures, digest);
        check_scan(scan, failures, digest);
    }

    [[nodiscard]] double work() const override { return static_cast<double>(steps_); }
    [[nodiscard]] std::string_view work_metric() const override { return "steps_per_s"; }
    [[nodiscard]] std::string_view work_unit() const override { return "steps/s"; }

    void pool_checks(FailureLedger& failures, Metrics& out) override {
        std::vector<double> serial_s, pooled_s;
        for (int rep = 0; rep < 5; ++rep) {
            auto t0 = Clock::now();
            const auto a = scan_->scan(nullptr);
            serial_s.push_back(seconds_between(t0, Clock::now()));
            t0 = Clock::now();
            const auto b = scan_->scan(pool_.get());
            pooled_s.push_back(seconds_between(t0, Clock::now()));
            failures.begin_op();
            bool same = a.readings.size() == b.readings.size() &&
                        a.row_reference_v == b.row_reference_v;
            for (std::size_t i = 0; same && i < a.readings.size(); ++i) {
                same = a.readings[i].raw_v == b.readings[i].raw_v &&
                       a.readings[i].compensated_v == b.readings[i].compensated_v;
            }
            failures.check(same, describe("pooled scan differs from the serial scan"));
            failures.end_op();
        }
        out["exec.scan_speedup"] = {median(serial_s) / median(pooled_s), "x"};
    }

    void layer_rows(const std::map<std::string, SelfTime>& setup_self, std::size_t setups,
                    const std::map<std::string, SelfTime>& op_self, std::size_t ops,
                    double replay_s, Metrics& out) override {
        const double n_ops = static_cast<double>(ops);
        const double read_s = seconds_of(op_self, "core.static.read");
        const double samples = static_cast<double>(calls_of(op_self, "core.static.read")) *
                               static_cast<double>(samples_per_read());
        const double scan_s = seconds_of(op_self, "array.scan");
        out["core.static.read_s"] = {per(read_s, n_ops), "s/op"};
        out["core.static.ns_per_sample"] = {per(read_s * 1e9, samples), "ns/sample"};
        out["core.static.calibrate_s"] = {
            per(seconds_of(setup_self, "core.static.calibrate"), static_cast<double>(setups)),
            "s/setup"};
        out["array.grid_build_s"] = {
            per(seconds_of(setup_self, "array.grid_build"), static_cast<double>(setups)),
            "s/setup"};
        out["array.scan_s"] = {per(scan_s, n_ops), "s/op"};
        out["array.ns_per_site"] = {
            per(scan_s * 1e9, n_ops * static_cast<double>(grid_->site_count())), "ns/site"};
        out["bio.advance_binding_s"] = {per(seconds_of(op_self, "bio.advance_binding"), n_ops),
                                        "s/op"};
        const auto r = replay_static(cfg_, samples, 0.75 * replay_s);
        out["circ.flicker.ns_per_sample"] = {r.flicker, "ns/sample"};
        out["circ.chopper.ns_per_sample"] = {r.chopper, "ns/sample"};
        out["circ.adc.ns_per_sample"] = {r.adc, "ns/sample"};
        const std::size_t per_site = scfg_.settle_samples + scfg_.dwell_samples;
        const double scan_samples =
            n_ops * static_cast<double>(kGridRows * (kGridCols + 1) * per_site);
        out["circ.mux.ns_per_sample"] = {
            replay_mux_scan(scfg_, kGridCols, scan_samples, 0.25 * replay_s), "ns/sample"};
        // The chopper replay already contains its amplifier's flicker noise.
        const std::array<LayerTerm, 4> terms = {
            {{r.chopper, samples}, {r.adc, samples}, {r.mux, samples}, {r.bridge_noise, samples}}};
        out["core.static.residual_frac"] = {residual_frac(terms, read_s), "ratio"};
    }

    void extra_rows(Metrics& out) const override {
        out["static.chopper_edge_readings"] = {static_cast<double>(defect_readings_), "count"};
    }

private:
    [[nodiscard]] std::size_t samples_per_read() const {
        // read_channel's default settle (10 ms) + integrate (20 ms) windows.
        return static_cast<std::size_t>(10e-3 * cfg_.sample_rate_hz) +
               static_cast<std::size_t>(20e-3 * cfg_.sample_rate_hz);
    }

    [[nodiscard]] std::vector<double> source_voltages() const {
        std::vector<double> v(grid_->site_count());
        for (std::size_t row = 0; row < kGridRows; ++row) {
            grid_->row_source_voltages(row, std::span(v).subspan(row * kGridCols, kGridCols));
        }
        return v;
    }

    /// Within `tol`: passes; within `defect_tol`: counted as a reading hit
    /// by the chopper-edge defect; beyond: fails.
    bool within(double err, double tol, double defect_tol) {
        if (err < tol) return true;
        if (!(err < defect_tol)) return false;  // NaN fails too
        ++defect_readings_;
        return true;
    }

    void check_readings(const std::array<core::ChannelReading, 4>& r, FailureLedger& failures,
                        Digest& digest) {
        const double fs = cfg_.adc_full_scale.value();
        for (const auto& x : r) {
            const double v = x.output.value();
            digest.add(v);
            failures.check(std::isfinite(v) && std::abs(v) < 0.98 * fs,
                           describe("channel %zu reads %.4g V (non-finite or clipped)", x.channel,
                                    v));
        }
        const double ref = r[3].output.value();
        failures.check(within(std::abs(ref), kRefTol, kRefDefectTol),
                       describe("blocked reference reads %.3f mV", ref * 1e3));
        const double resp = sys_->stress_responsivity().value();
        for (std::size_t ch = 0; ch < 3; ++ch) {
            const double diff = r[ch].output.value() - ref;
            const double model =
                resp * sys_->coating(ch).surface_stress(sys_->coverage(ch)).value();
            const double tol = kDiffAbsTol + kDiffRelTol * std::abs(model);
            const double defect_tol = kDiffDefectAbsTol + kDiffDefectRelTol * std::abs(model);
            failures.check(within(std::abs(diff - model), tol, defect_tol),
                           describe("channel %zu differential %.3f mV vs model %.3f mV "
                                    "(coverage %.3f)",
                                    ch, diff * 1e3, model * 1e3, sys_->coverage(ch)));
        }
    }

    void check_scan(const array::ScanResult& scan, FailureLedger& failures,
                    Digest& digest) const {
        const double fs = scfg_.adc_full_scale.value();
        double worst = 0.0;
        for (const auto& s : scan.readings) {
            digest.add(s.compensated_v);
            worst = std::isfinite(s.raw_v) ? std::max(worst, std::abs(s.raw_v)) : HUGE_VAL;
        }
        failures.check(scan.readings.size() == grid_->site_count() && worst < 0.98 * fs,
                       describe("largest scan reading %.4g V (non-finite or clipped)", worst));
        const std::vector<double> source_v = source_voltages();
        for (std::size_t row = 0; row < kGridRows; ++row) {
            double delta = 0.0, model = 0.0;
            std::size_t n = 0;
            for (std::size_t c = 0; c < kGridCols; ++c) {
                const auto& s = scan.readings[row * kGridCols + c];
                if (!s.functional || s.reference) continue;
                delta += s.compensated_v - baseline_.readings[s.index].compensated_v;
                model += source_v[s.index] - baseline_source_v_[s.index];
                ++n;
            }
            if (n == 0) continue;
            delta /= static_cast<double>(n);
            model *= scan_->chain_gain() / static_cast<double>(n);
            if (std::abs(model) < kBoundRowSignal) continue;
            failures.check(std::abs(delta) > kCallThreshold,
                           describe("row %zu (model %.4f mV) reads %.4f mV: not called positive",
                                    row, model * 1e3, delta * 1e3));
        }
    }

    std::uint64_t seed_;
    std::size_t threads_;
    std::unique_ptr<exec::ThreadPool> pool_;
    core::StaticSensorConfig cfg_{};
    fab::ProcessMonteCarlo mc_;
    array::ArrayConfig gcfg_{};
    array::ScanConfig scfg_{};
    std::unique_ptr<core::StaticCantileverSystem> sys_;
    std::unique_ptr<array::ArrayGrid> grid_;
    std::unique_ptr<array::ScanController> scan_;
    array::ScanResult baseline_;
    std::vector<double> baseline_source_v_;  ///< per-site bridge output at the baseline scan
    std::size_t steps_ = 0;
    std::size_t defect_readings_ = 0;
};

// ---------------------------------------------------------------------------
// yield_study: seeded process Monte-Carlo studies on the pool, alternating
// electrochemical etch-stop and timed etch (Fig. 3, ablation A2).

constexpr std::size_t kTrials = 65536;
constexpr double kF0Tolerance = 0.05;  // the +-5 % f0 yield window
// EXPERIMENTS.md Fig. 3 (2000 trials): yield 98.9 % vs 2.0 %, f0 sigma
// 6.4 kHz vs 242 kHz.
struct YieldRef {
    double yield;
    double f0_sigma_hz;
};
constexpr YieldRef kEtchStopRef{0.989, 6.4e3};
constexpr YieldRef kTimedRef{0.020, 242e3};
constexpr double kRefTrials = 2000.0;
// Yield: five binomial sigmas of the reference and the study combined.
// f0 sigma: five relative standard errors of a 2000-sample sigma.
constexpr double kSigmaRelTol = 5.0 / 63.25;  // 5 / sqrt(2 * 2000)

class YieldStudy final : public Workload {
public:
    YieldStudy(std::uint64_t seed, std::size_t threads) : seed_(seed), threads_(threads) {}

    void setup(Tracer& tracer) override {
        {
            const Scope span(tracer, "exec.pool_start");
            pool_ = std::make_unique<exec::ThreadPool>(threads_);
        }
        const Scope span(tracer, "fab.mc.construct");
        stop_ = std::make_unique<fab::ProcessMonteCarlo>(
            mech::resonant_default(), fab::KohEtchConfig{}, fab::ProcessVariation{},
            fab::EtchMode::electrochemical_stop);
        timed_ = std::make_unique<fab::ProcessMonteCarlo>(
            mech::resonant_default(), fab::KohEtchConfig{}, fab::ProcessVariation{},
            fab::EtchMode::timed);
    }

    /// One study of each etch mode.
    [[nodiscard]] std::size_t min_ops() const override { return 2; }

    void op(Tracer& tracer, FailureLedger& failures, Digest& digest) override {
        const bool etch_stop = studies_ % 2 == 0;
        fab::MonteCarloStats s;
        {
            const Scope span(tracer, "fab.mc.run");
            s = study(etch_stop, studies_, pool_.get());
        }
        ++studies_;
        for (const double v : {s.f0_mean_hz, s.f0_sigma_hz, s.thickness_mean_m,
                               s.thickness_sigma_m, s.yield}) {
            digest.add(v);
        }
        const YieldRef& ref = etch_stop ? kEtchStopRef : kTimedRef;
        const double p = ref.yield;
        const double tol =
            5.0 * std::sqrt(p * (1.0 - p) / kRefTrials + p * (1.0 - p) / double(kTrials));
        failures.check(s.samples == kTrials && std::abs(s.yield - p) < tol,
                       describe("%s study: yield %.4f vs %.4f +- %.4f",
                                etch_stop ? "etch-stop" : "timed", s.yield, p, tol));
        const double rel = s.f0_sigma_hz / ref.f0_sigma_hz - 1.0;
        failures.check(std::isfinite(s.f0_sigma_hz) && std::abs(rel) < kSigmaRelTol,
                       describe("%s study: f0 sigma %.1f Hz vs %.1f Hz (%+.2f %%)",
                                etch_stop ? "etch-stop" : "timed", s.f0_sigma_hz,
                                ref.f0_sigma_hz, 100.0 * rel));
    }

    [[nodiscard]] double work() const override {
        return static_cast<double>(studies_ * kTrials);
    }
    [[nodiscard]] std::string_view work_metric() const override { return "trials_per_s"; }
    [[nodiscard]] std::string_view work_unit() const override { return "trials/s"; }

    void pool_checks(FailureLedger& failures, Metrics& out) override {
        std::vector<double> serial_s, pooled_s;
        for (std::uint64_t rep = 0; rep < 2; ++rep) {
            const bool etch_stop = rep % 2 == 0;
            auto t0 = Clock::now();
            const auto a = study(etch_stop, rep, nullptr);
            serial_s.push_back(seconds_between(t0, Clock::now()));
            t0 = Clock::now();
            const auto b = study(etch_stop, rep, pool_.get());
            pooled_s.push_back(seconds_between(t0, Clock::now()));
            failures.begin_op();
            failures.check(a.samples == b.samples && a.f0_mean_hz == b.f0_mean_hz &&
                               a.f0_sigma_hz == b.f0_sigma_hz &&
                               a.thickness_mean_m == b.thickness_mean_m &&
                               a.thickness_sigma_m == b.thickness_sigma_m && a.yield == b.yield,
                           describe("pooled study %llu differs from the serial study",
                                    static_cast<unsigned long long>(rep)));
            failures.end_op();
        }
        out["exec.mc_speedup"] = {median(serial_s) / median(pooled_s), "x"};
    }

    void layer_rows(const std::map<std::string, SelfTime>&, std::size_t,
                    const std::map<std::string, SelfTime>& op_self, std::size_t ops,
                    double replay_s, Metrics& out) override {
        const double run_s = seconds_of(op_self, "fab.mc.run");
        const double trials = static_cast<double>(ops * kTrials);
        out["fab.mc.run_s"] = {per(run_s, static_cast<double>(ops)), "s/op"};
        out["fab.mc.ns_per_trial"] = {per(run_s * 1e9, trials), "ns/trial"};
        // Half the trials ran each etch mode.
        const auto a = replay_yield(*stop_, seed_, trials / 2.0, replay_s / 2.0);
        const auto b = replay_yield(*timed_, seed_, trials / 2.0, replay_s / 2.0);
        out["fab.sample_ns"] = {0.5 * (a.sample + b.sample), "ns/trial"};
        out["util.rng.stream_ns"] = {0.5 * (a.stream + b.stream), "ns/stream"};
    }

private:
    fab::MonteCarloStats study(bool etch_stop, std::uint64_t index,
                               exec::ThreadPool* pool) const {
        const auto& mc = etch_stop ? *stop_ : *timed_;
        return mc.run_seeded(kTrials, mix_seed(seed_, 0x1000 + index), kF0Tolerance, pool);
    }

    std::uint64_t seed_;
    std::size_t threads_;
    std::unique_ptr<exec::ThreadPool> pool_;
    std::unique_ptr<fab::ProcessMonteCarlo> stop_;
    std::unique_ptr<fab::ProcessMonteCarlo> timed_;
    std::uint64_t studies_ = 0;
};

}  // namespace

std::optional<Kind> parse_kind(std::string_view name) {
    for (const Kind k : kAllKinds) {
        if (kind_name(k) == name) return k;
    }
    return std::nullopt;
}

std::string_view kind_name(Kind kind) {
    switch (kind) {
        case Kind::resonant_assay: return "resonant_assay";
        case Kind::static_assay: return "static_assay";
        case Kind::yield_study: return "yield_study";
    }
    return "?";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::unique_ptr<Workload> make_workload(Kind kind, std::uint64_t seed, std::size_t threads) {
    switch (kind) {
        case Kind::resonant_assay: return std::make_unique<ResonantAssay>(seed);
        case Kind::static_assay: return std::make_unique<StaticAssay>(seed, threads);
        case Kind::yield_study: return std::make_unique<YieldStudy>(seed, threads);
    }
    return nullptr;
}

}  // namespace perfbench
