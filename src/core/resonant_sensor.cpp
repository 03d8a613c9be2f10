#include "core/resonant_sensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/batch.hpp"
#include "util/constants.hpp"
#include "util/expect.hpp"
#include "util/stats.hpp"

namespace cbs::core {

namespace {

mech::FluidLoading solve_fluid(const mech::EulerBernoulliBeam& beam, const phys::Fluid& fluid) {
    return mech::HydrodynamicModel(beam, fluid).solve();
}

}  // namespace

circ::DdaConfig ResonantSensorConfig::default_dda() {
    circ::DdaConfig d;
    d.amplifier.gain = 20.0;
    d.amplifier.bandwidth = Frequency{2e6};
    d.amplifier.white_noise = VoltageNoiseDensity{12e-9};
    d.amplifier.saturation = Voltage{2.5};
    d.cmrr_db = 90.0;
    return d;
}

ResonantCantileverSystem::ResonantCantileverSystem(const ResonantSensorConfig& config, Rng rng)
    : cfg_(config),
      beam_(config.geometry),
      fluid_loading_(solve_fluid(beam_, config.fluid)),
      fs_(config.oversample * fluid_loading_.resonance.value()),
      dt_(1.0 / fs_),
      resonator_(mech::make_resonator_params(beam_, fluid_loading_.resonance, loaded_q(),
                                             fluid_loading_.added_modal_mass)),
      mass_model_(beam_),
      force_noise_sigma_(0.0),
      force_rng_(rng.fork()),
      bridge_(config.bridge),
      bridge_thermal_(circ::MosBridge(config.bridge).thermal_noise_density(config.temperature),
                      fs_, rng.fork()),
      bridge_flicker_(
          [&] {
              const circ::MosBridge b(config.bridge);
              const double en = b.thermal_noise_density(config.temperature).value();
              return en * en * b.flicker_corner().value();
          }(),
          fs_ / static_cast<double>(flicker_stride_), rng.fork(), /*f_min_hz=*/1.0),
      dda_(config.dda, fs_, rng.fork()),
      loop_bandpass_(circ::Biquad::Type::bandpass, fluid_loading_.resonance, 1.0, fs_),
      hp1_(config.highpass_corner, fs_),
      hp2_(config.highpass_corner, fs_),
      phase_shifter_(fluid_loading_.resonance, fs_),
      vga_(config.vga_min_db, config.vga_max_db),
      limiter_(config.limiter_gain, config.limiter_level),
      buffer_(config.buffer, circ::LorentzActuator(config.coil).coil_resistance()),
      actuator_(config.coil),
      readout_bandpass_(circ::Biquad::Type::bandpass, fluid_loading_.resonance, 5.0, fs_),
      counter_(config.counter_gate, /*hysteresis=*/config.limiter_level.value() * 0.2),
      displacement_trace_(/*decimation=*/16),
      obs_tick_hist_(obs::MetricsRegistry::instance().histogram("proc.resonant_loop")),
      obs_ticks_(obs::MetricsRegistry::instance().counter("resonant.ticks")),
      obs_coverage_(obs::MetricsRegistry::instance().gauge("resonant.coverage")),
      probe_bridge_(obs::ProbeRegistry::instance().probe(config.probe_scope + ".bridge")),
      probe_loop_(obs::ProbeRegistry::instance().probe(config.probe_scope + ".loop")),
      probe_displacement_(
          obs::ProbeRegistry::instance().probe(config.probe_scope + ".displacement")),
      telemetry_freq_(obs::Telemetry::instance().series(
          config.probe_scope + ".freq", config.counter_gate.value(), 256)) {
    CBS_EXPECTS(config.intrinsic_q > 0.0);
    CBS_EXPECTS(config.oversample >= 16.0);
    CBS_EXPECTS(config.loop_gain_target > 1.0);
    cfg_.coating.validate();

    // Thermomechanical force noise at the loaded Q.
    const mech::ThermalNoiseModel noise(beam_, loaded_q(), config.temperature);
    force_noise_sigma_ = noise.force_noise_density().value() * std::sqrt(fs_ / 2.0);

    // Gauge slope: dR/R per metre of tip displacement (clamped-edge bridge).
    const mech::PiezoResistor gauge(config.geometry.material,
                                    mech::ResistorOrientation::longitudinal,
                                    mech::ResistorPlacement::clamped_edge);
    drr_per_metre_ = gauge.relative_change_tip_deflection(beam_, Length{1.0});

    auto_gain();
    retune();

    // Default health detectors (idempotent per (kind, probe)). The limiter
    // pins the steady loop amplitude at ~limiter_level, so its |v| envelope
    // passing a quarter of that level means the loop locked; a later
    // collapse of the envelope is a lost oscillation. Displacement beyond
    // 20x the steady amplitude the limiter can sustain means the resonator
    // state diverged (an exploding filter, a broken dt).
    const double limit = cfg_.limiter_level.value();
    probe_loop_->add_watchdog(std::make_unique<obs::LockLossWatchdog>(0.25 * limit));
    const double amps_per_volt =
        1.0 / (cfg_.buffer.output_resistance.value() + actuator_.coil_resistance().value());
    const double x_steady = limit * amps_per_volt * actuator_.force_per_current().value() *
                            loaded_q() / resonator_.params().modal_stiffness().value();
    probe_displacement_->add_watchdog(
        std::make_unique<obs::RangeWatchdog>(-20.0 * x_steady, 20.0 * x_steady));
}

Frequency ResonantCantileverSystem::expected_resonance() const {
    return mass_model_.loaded_frequency(bound_mass(), mech::MassDistribution::uniform) *
           (fluid_loading_.resonance.value() / mass_model_.unloaded_frequency().value());
}

double ResonantCantileverSystem::loaded_q() const {
    return mech::HydrodynamicModel::combined_q(fluid_loading_.quality_factor, cfg_.intrinsic_q);
}

double ResonantCantileverSystem::loop_gain() const {
    // Displacement -> bridge -> DDA -> VGA -> limiter (small-signal) ->
    // buffer -> coil current -> force -> displacement (x Q/k at resonance).
    const double v_per_m = drr_per_metre_ * bridge_.sensitivity().value();
    const double electronics =
        cfg_.dda.amplifier.gain * vga_.gain_linear() * cfg_.limiter_gain;
    const double amps_per_volt =
        1.0 / (cfg_.buffer.output_resistance.value() + actuator_.coil_resistance().value());
    const double newtons_per_amp = actuator_.force_per_current().value();
    const double metres_per_newton =
        loaded_q() / resonator_.params().modal_stiffness().value();
    return v_per_m * electronics * amps_per_volt * newtons_per_amp * metres_per_newton;
}

double ResonantCantileverSystem::required_vga_gain() const {
    const double at_unity_vga = loop_gain() / vga_.gain_linear();
    return cfg_.loop_gain_target / at_unity_vga;
}

void ResonantCantileverSystem::auto_gain() {
    vga_.set_control(vga_.control_for_gain(required_vga_gain()));
}

void ResonantCantileverSystem::set_concentration(MolarConcentration c) {
    CBS_EXPECTS(c.value() >= 0.0);
    concentration_ = c;
}

void ResonantCantileverSystem::set_coverage(double theta) {
    CBS_EXPECTS(theta >= 0.0 && theta <= 1.0);
    theta_ = theta;
    retune();
}

Mass ResonantCantileverSystem::bound_mass() const {
    return cfg_.coating.bound_mass(theta_, cfg_.geometry.plan_area());
}

void ResonantCantileverSystem::retune() {
    // Bound analyte adds distributed mass: shift the resonator target.
    const Mass dm_modal =
        mass_model_.modal_added_mass(bound_mass(), mech::MassDistribution::uniform);
    auto params = resonator_.params();
    const Mass base = beam_.effective_mass(1) + fluid_loading_.added_modal_mass;
    params.effective_mass = base + dm_modal;
    const double scale = std::sqrt(base.value() / params.effective_mass.value());
    params.omega0 = 2.0 * constants::pi * fluid_loading_.resonance * scale;
    params.q = loaded_q();
    resonator_.set_params(params);
}

void ResonantCantileverSystem::tick(double dt) {
    // 1. Mechanics -> bridge.
    const double x = resonator_.displacement().value();
    bridge_.set_sense_delta(std::max(drr_per_metre_ * x, -0.99));
    double v = bridge_.output().value();
    v = bridge_thermal_.process(v);
    if (flicker_counter_++ % flicker_stride_ == 0) {
        flicker_value_ = bridge_flicker_.process(0.0);
    }
    v += flicker_value_;
    probe_bridge_->tap(v);
    // 2. Analog loop.
    v = dda_.process_pair(v, bridge_.common_mode().value() - cfg_.bridge.bias.value() / 2.0);
    v = loop_bandpass_.process(v);
    v = hp1_.process(v);
    v = hp2_.process(v);
    v = phase_shifter_.process(v);
    v = vga_.process(v);
    v = limiter_.process(v);
    probe_loop_->tap(v);
    probe_displacement_->tap(x);
    const double v_coil = buffer_.process(v);
    (void)v_coil;
    // 3. Actuation + thermomechanical noise -> mechanics.
    const double f_drive = actuator_.force(buffer_.load_current()).value();
    // Consume a chunk-prefetched draw when one is buffered (bit-identical:
    // raw * sigma + mean is normal()'s own final operation).
    const double f_noise = force_pos_ < force_raw_.size()
                               ? force_raw_[force_pos_++] * force_noise_sigma_ + 0.0
                               : force_rng_.normal(0.0, force_noise_sigma_);
    resonator_.step_exact(Force{f_drive + f_noise}, Time{dt});
    // 4. Readout.
    if (auto m = counter_.feed(t_, readout_bandpass_.process(v))) {
        last_ = *m;
        if (sink_ != nullptr) sink_->push_back(*m);
    }
    displacement_trace_.push(t_, x);
    t_ += dt;
}

void ResonantCantileverSystem::run_batch(std::size_t n,
                                         std::vector<daq::FrequencyMeasurement>& out) {
    // The loop is a feedback system, so the ticks themselves stay serial;
    // the batch pays the per-tick overheads once instead of n times:
    //  * every generator runs on the fast bulk engine (same word stream),
    //    with the draws interleaved into the serial loop where out-of-order
    //    execution hides them in the feedback chain's dependency stalls,
    //  * the bridge solves both outputs from one set of arm resistances,
    //  * loop invariants are hoisted out of the tick,
    //  * the readout filter runs as a second pass, off the feedback path,
    //  * the counter and trace each get one batched append.
    // Every arithmetic step matches tick() exactly — bit-identity is the
    // contract (DESIGN.md §9), locked by the batch-size-sweep tests.
    // Under CBS_FUSE=on the analog chain runs through the compiled form
    // instead (dense state-space recurrence with a tolerance contract —
    // DESIGN.md §11).
    const circ::FuseMode fuse =
        fuse_latched_off_ ? circ::FuseMode::off : circ::fuse_mode();
    if (force_raw_.size() - force_pos_ < n) {
        force_raw_.erase(force_raw_.begin(), force_raw_.begin() + static_cast<std::ptrdiff_t>(force_pos_));
        force_pos_ = 0;
        const std::size_t have = force_raw_.size();
        // Chunked refill, like WhiteNoise::prefetch: drawing ahead is
        // bit-invisible (same raw words onto the same ticks) and the
        // per-fill setup amortizes over many batches. Small fills keep the
        // bit-exact path: the fast sweep's vector setup dominates below
        // ~64 draws.
        force_raw_.resize(std::max<std::size_t>(n, 4096));
        const std::span<double> fill = std::span<double>(force_raw_).subspan(have);
        if (fuse == circ::FuseMode::simd && fill.size() >= 64) {
            force_rng_.fill_raw_normal_fast(fill);
        } else {
            force_rng_.fill_raw_normal(fill);
        }
    }
    force_batch_ = force_raw_.data() + force_pos_;
    force_pos_ += n;
    const std::size_t offset = (flicker_stride_ - flicker_counter_ % flicker_stride_)
                               % flicker_stride_;
    if (offset < n) bridge_flicker_.prefetch(1 + (n - 1 - offset) / flicker_stride_);
    t_scratch_.resize(n);
    x_scratch_.resize(n);
    readout_scratch_.resize(n);
    const double half_bias = cfg_.bridge.bias.value() / 2.0;
    const double sigma = force_noise_sigma_;
    if (fuse == circ::FuseMode::simd && run_batch_fused(n)) {
        finish_batch(out);
        return;
    }
    // The fused loop pulls its white draws through peek_raw (which
    // prefetches internally); only the per-sample loop below needs the
    // buffers filled up front.
    bridge_thermal_.prefetch(n);
    dda_.prefetch_noise(n);
    for (std::size_t j = 0; j < n; ++j) {
        const double x = resonator_.displacement().value();
        bridge_.set_sense_delta(std::max(drr_per_metre_ * x, -0.99));
        const auto [diff, cm] = bridge_.output_pair();
        double v = bridge_thermal_.process(diff.value());
        if (flicker_counter_++ % flicker_stride_ == 0) {
            flicker_value_ = bridge_flicker_.process(0.0);
        }
        v += flicker_value_;
        // Per-sample tap (the bridge value is never stored to a scratch
        // array): disarmed this is one relaxed load, preserving the batch
        // speedup; recording sees the exact per-tick sample stream.
        probe_bridge_->tap(v);
        // Header-inline kernels of the per-sample blocks (each bit-identical
        // to its process() counterpart): the whole serial chain fuses into
        // this loop, so filter/amplifier/resonator state lives in registers
        // across the batch instead of round-tripping through memory at
        // every out-of-line call.
        v = dda_.process_pair_fast(v, cm.value() - half_bias);
        v = loop_bandpass_.process(v);
        v = hp1_.process(v);
        v = hp2_.process(v);
        v = phase_shifter_.process(v);
        v = vga_.process(v);
        v = limiter_.process_saturating(v);
        (void)buffer_.process_sample(v);
        const double f_drive = actuator_.force(buffer_.load_current()).value();
        const double f_noise = force_batch_[j] * sigma + 0.0;  // == normal(0, sigma)
        resonator_.step_exact_inline(f_drive + f_noise, dt_);
        readout_scratch_[j] = v;
        t_scratch_[j] = t_;
        x_scratch_[j] = x;
        t_ += dt_;
    }
    finish_batch(out);
}

// Shared batch tail: taps, readout filtering, counter and trace — runs
// after the serial loop regardless of which path (legacy or fused)
// produced the scratch arrays.
void ResonantCantileverSystem::finish_batch(std::vector<daq::FrequencyMeasurement>& out) {
    // Loop and displacement taps consume the whole batch in one gate +
    // lock each. The loop tap MUST run before the readout band-pass below,
    // which filters readout_scratch_ in place — the probe observes the
    // limiter output, the same node tick() taps.
    probe_loop_->tap_block(readout_scratch_);
    probe_displacement_->tap_block(x_scratch_);
    // Readout is outside the feedback loop: filtering the stored limiter
    // outputs in a second pass sees the same input sequence as the inline
    // call in tick() (bit-identical filter state), and keeps the biquad's
    // latency off the serial chain above. The fused SIMD loop has already
    // run the biquad in its latency shadow (probes are disarmed on that
    // path, so the pre-filter tap stream is not observed).
    if (!readout_prefiltered_) readout_bandpass_.process_block(readout_scratch_);
    readout_prefiltered_ = false;
    if (counter_.feed_block(t_scratch_, readout_scratch_, out) != 0) last_ = out.back();
    displacement_trace_.push_block(t_scratch_, x_scratch_);
}

bool ResonantCantileverSystem::run_batch_fused(std::size_t n) {
    // Per-batch compilation (matrix build, state load/store) amortizes over
    // the batch; below this size the exact loop is faster.
    if (n < 16) return false;
    const circ::BehavioralAmplifier::FusedView view = dda_.core().fused_view();
    // Eligibility: the fused form folds the DDA's offset and white noise
    // around its gain + pole, but not 1/f (resonant configs leave the DDA
    // flicker-free) or an armed NaN injection (the injected sample consumes
    // no raw variate, breaking the 1:1 raw mapping). Armed probes need the
    // exact per-tick stream (the resonant analogue of a chain segment split
    // is falling back to the exact loop), and the slew limiter must be
    // provably inactive — with max_step >= 2·saturation and the pole
    // output inside ±saturation, consecutive outputs can never be farther
    // apart than the slew allows, so the recurrence may drop the clamp.
    if (view.flicker != nullptr) return false;
    if (view.white != nullptr && view.white->nan_injection_armed()) return false;
    if (bridge_thermal_.nan_injection_armed()) return false;
    if (probe_bridge_->armed() || probe_loop_->armed() || probe_displacement_->armed()) {
        return false;
    }
    if (!(view.max_step >= 2.0 * view.saturation)) return false;

    // The loop's linear run as exact kernel specs: DDA gain -> DDA pole ->
    // loop band-pass -> hp1 -> hp2 -> phase shifter -> VGA. Refilled every
    // batch — the VGA gain can move, and the fill re-anchors state pointers.
    loop_specs_[0] = circ::LinearSpec{};
    loop_specs_[0].kind = circ::LinearSpec::Kind::gain;
    loop_specs_[0].c0 = view.gain;
    if (!view.pole->linear_spec(loop_specs_[1]) || !loop_bandpass_.linear_spec(loop_specs_[2]) ||
        !hp1_.linear_spec(loop_specs_[3]) || !hp2_.linear_spec(loop_specs_[4]) ||
        !phase_shifter_.linear_spec(loop_specs_[5]) || !vga_.linear_spec(loop_specs_[6])) {
        return false;
    }

    // The dense matrices are a pure function of the spec coefficients;
    // rebuild only when a spec changed (the VGA gain moves between runs,
    // not between batches), so steady-state batches skip the composition.
    if (!loop_ss_valid_ || loop_specs_ != loop_specs_built_) {
        circ::build_state_space(loop_specs_, loop_ss_);
        loop_specs_built_ = loop_specs_;
        loop_ss_valid_ = true;
#if defined(__x86_64__) || defined(_M_X64)
        fused_consts_.valid = false;  // gd folds ss.d
#endif
    }
    loop_x_.resize(loop_ss_.n4);
    loop_xn_.resize(loop_ss_.n4);
    circ::load_states(loop_ss_, loop_x_.data());
    // Raw variates are peeked, not consumed: the value each tick adds is
    // raw[j]·sigma, the same expression as the exact path, and consumption
    // commits once at the end of the batch.
    const std::span<const double> thermal_raw = bridge_thermal_.peek_raw(n);
    const double thermal_sigma = bridge_thermal_.sigma_per_sample();
    std::span<const double> dda_raw{};
    double dda_sigma = 0.0;
    if (view.white != nullptr) {
        dda_raw = view.white->peek_raw(n);
        dda_sigma = view.white->sigma_per_sample();
    }
    const double half_bias = cfg_.bridge.bias.value() / 2.0;
    const double sigma = force_noise_sigma_;
    const double inv_cm_den = 1.0 / dda_.common_mode_denominator();  // reassociated: ε contract
    const double amp_offset = view.offset;
    double pole_peak = 0.0;
#if defined(__x86_64__) || defined(_M_X64)
    static const bool have_avx2 =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    // The hand-fused loop drops the buffer's supply/current clamps from
    // the serial chain; it is only eligible when the limiter bound proves
    // them inactive (|y_lim| <= limit always -- tanh magnitude < 1).
    // Margin factor: the fused rational tanh can exceed unit magnitude by
    // ~2e-15, so the proof needs |y_lim| <= limit*(1 + 4e-15).
    const double lim_bound = limiter_.limit_level().value() * (1.0 + 4e-15);
    const bool clamps_inactive =
        lim_bound <= buffer_.config().supply.value() &&
        lim_bound * buffer_.inv_total_r() <= buffer_.config().current_limit.value();
    if (have_avx2 && loop_ss_.n4 == 8 && clamps_inactive) {
        pole_peak = run_fused_simd_loop_avx2(
            n, view, thermal_raw.data(), thermal_sigma,
            view.white != nullptr ? dda_raw.data() : nullptr, dda_sigma, half_bias,
            inv_cm_den);
        circ::store_states(loop_ss_, loop_x_.data());
        *view.out_state = std::clamp(loop_x_[0], -view.saturation, view.saturation);
        bridge_thermal_.consume_raw(n);
        if (view.white != nullptr) view.white->consume_raw(n);
        if (pole_peak > view.saturation) fuse_latched_off_ = true;
        return true;
    }
#endif
    // Portable fallback: two-phase recurrence through the dispatched
    // kernels. prepare() does the matvec while this tick's u is still being
    // produced by the mechanics/bridge/noise chain (the CPU overlaps them —
    // neither depends on the other), so the loop's serial dependency cycle
    // only carries finish()'s single FMA from u to y.
    double y_part = circ::state_space_prepare(loop_ss_, loop_x_.data(), loop_xn_.data());
    for (std::size_t j = 0; j < n; ++j) {
        const double x = resonator_.displacement().value();
        bridge_.set_sense_delta(std::max(drr_per_metre_ * x, -0.99));
        const auto [diff, cm] = bridge_.output_pair();
        double v = diff.value() + (thermal_raw[j] * thermal_sigma + 0.0);
        if (flicker_counter_++ % flicker_stride_ == 0) {
            flicker_value_ = bridge_flicker_.process(0.0);
        }
        v += flicker_value_;
        double u = v + (cm.value() - half_bias) * inv_cm_den + amp_offset;
        if (view.white != nullptr) u += dda_raw[j] * dda_sigma;
        const double y =
            circ::state_space_finish(loop_ss_, loop_x_.data(), loop_xn_.data(), u, y_part);
        pole_peak = std::max(pole_peak, std::fabs(loop_x_[0]));
        y_part = circ::state_space_prepare(loop_ss_, loop_x_.data(), loop_xn_.data());
        const double y_lim = limiter_.process_saturating_fast(y);
        (void)buffer_.process_sample_fast(y_lim);
        const double f_drive = actuator_.force(buffer_.load_current()).value();
        const double f_noise = force_batch_[j] * sigma + 0.0;
        resonator_.step_exact_inline(f_drive + f_noise, dt_);
        readout_scratch_[j] = y_lim;
        t_scratch_[j] = t_;
        x_scratch_[j] = x;
        t_ += dt_;
    }
    circ::store_states(loop_ss_, loop_x_.data());
    // Slot 0 is the DDA pole state == the DDA output while the guard holds;
    // clamping keeps the slew/saturation memory in range for any later
    // exact-path batch.
    *view.out_state = std::clamp(loop_x_[0], -view.saturation, view.saturation);
    bridge_thermal_.consume_raw(n);
    if (view.white != nullptr) view.white->consume_raw(n);
    if (pole_peak > view.saturation) {
        // The exact DDA would have clamped somewhere in this batch: the
        // dense form's results are the unclamped linear extension, outside
        // the tolerance contract. Latch this instance off the SIMD tier so
        // every subsequent batch runs exact (DESIGN.md §11).
        fuse_latched_off_ = true;
    }
    return true;
}

#if defined(__x86_64__) || defined(_M_X64)

__attribute__((target("avx2,fma"))) double ResonantCantileverSystem::run_fused_simd_loop_avx2(
    std::size_t n, const circ::BehavioralAmplifier::FusedView& view, const double* thermal_raw,
    double thermal_sigma, const double* dda_raw, double dda_sigma, double half_bias,
    double inv_cm_den) {
    // The loop is one serial dependency cycle per tick:
    //   u -> y -> tanh -> displacement -> bridge divide -> u
    // Every linear constant along it is folded into the cycle's minimal
    // algebraic form, and the two remaining non-linear steps are fused so
    // the cycle carries exactly two divides and a handful of FMAs:
    //
    //  * tanh runs as an odd rational targ*P(targ^2)/Q(targ^2) (max rel
    //    error 2.6e-15 on |targ| <= 19.1, fitted by Remez exchange; +-1
    //    past 19.1, where both the rational and libm round to exactly 1),
    //  * the rational's divide never executes on the cycle: with
    //    tl = xP/Q the next displacement is x' = (xP/Q)*lkq + bx, so the
    //    bridge divides multiply through by Q,
    //      v_plus = (xP*n1k + (vbc1d*bx + vbc1)*Q) / (xP*d1k + (c1d*bx + cr1)*Q)
    //    and both operands are FMAs on values available while the previous
    //    divide is still in flight. tl itself (for the limiter output and
    //    the state update) divides off-cycle in the latency shadow.
    //
    // All folds are exact-constant refactorings of the scalar kernels;
    // association differs, covered by the SIMD tier's tolerance contract
    // (DESIGN.md §11). Everything off the cycle (the dense-recurrence
    // matvec, noise sums, the readout biquad, scratch stores) runs in the
    // cycle's shadow.
    const double drr = drr_per_metre_;
    const mech::ModalResonator::Propagator pr = resonator_.propagator(dt_);
    FusedLoopConsts& fc = fused_consts_;
    if (!fc.valid || pr.p11 != fc.pr11 || pr.p12 != fc.pr12 || pr.p21 != fc.pr21 ||
        pr.p22 != fc.pr22) {
        fc.pr11 = pr.p11;
        fc.pr12 = pr.p12;
        fc.pr21 = pr.p21;
        fc.pr22 = pr.p22;
        // Bridge divider, pre-folded onto the displacement. With
        // a = 1 + drr*x:
        //   v_plus  = vb*(c1*a)/(c1*a + r0),  c1 = k1*ts
        //   v_minus = vb*r3/(c2*a + r3),      c2 = k2*ts
        // so numerators and denominators are single FMAs on x.
        const circ::WheatstoneBridge::FusedConstants bc = bridge_.fused_constants();
        const double c1 = bc.k1 * bc.ts;
        const double c2 = bc.k2 * bc.ts;
        const double r0 = bc.k0 * bc.ts;
        const double r3 = bc.k3 * bc.ts;
        fc.h = 0.5 * inv_cm_den;
        fc.vbc1 = bc.vb * c1;
        fc.vbc1d = fc.vbc1 * drr;
        fc.vbr3 = bc.vb * r3;
        fc.c1d = c1 * drr;
        fc.cr1 = c1 + r0;
        fc.c2d = c2 * drr;
        fc.cr2 = c2 + r3;
        // half_bias is bias/2, so 2*half_bias is exact; the common-mode
        // error term cancels (v_plus + v_minus ~ bias) BEFORE any scaling,
        // the same cancellation structure as the exact kernel -- scaling
        // the two divider branches separately would amplify their rounding
        // by the ~1e6 cancellation ratio into per-tick noise the loop
        // integrates. The single-rounding FMA h*(v_plus + v_minus) - h*bias2
        // keeps that property (no intermediate rounding of the large sum).
        fc.hb2 = fc.h * (2.0 * half_bias);
        // Limiter: targ = (gain/limit)*y; y_lim = limit*tanh(targ).
        fc.g_lim = limiter_.small_signal_gain() * limiter_.inv_limit();
        fc.limit = limiter_.limit_level().value();
        fc.gd = fc.g_lim * loop_ss_.d;
        // Buffer -> actuator -> resonator, folded. The caller proved the
        // supply/current clamps inactive (|y_lim| <= limit), so
        //   x' = p11*x + p12*v + xp*(1 - p11),  v' = p21*x + p22*v - p21*xp,
        //   xp = ((y_lim -+ dz)*invR*n_per_amp + f_noise) / k
        // collapses to one FMA plus a deadband-sign correction per state.
        const double dz = buffer_.config().crossover_deadband.value();
        const double k_drive = buffer_.inv_total_r() * actuator_.force_per_current().value();
        const double inv_stiff = 1.0 / resonator_.params().modal_stiffness().value();
        fc.isq = inv_stiff * (1.0 - pr.p11);
        fc.isp = inv_stiff * pr.p21;
        fc.lkq = fc.limit * k_drive * fc.isq;
        fc.dzq = dz * k_drive * fc.isq;
        fc.lkp = fc.limit * k_drive * fc.isp;
        fc.dzp = dz * k_drive * fc.isp;
        // Deadband predicate in targ space: |limit*tanh(targ)| < dz iff
        // |targ| < atanh(dz/limit) (tanh is monotone; boundary ticks may
        // round differently from the exact |y_lim| < dz compare --
        // contract).
        const double dz_ratio = dz * limiter_.inv_limit();
        fc.targ_db = dz_ratio < 1.0 ? std::atanh(dz_ratio)
                                    : std::numeric_limits<double>::infinity();
        // Q-multiplied bridge fold constants (see header comment).
        fc.d1k = fc.c1d * fc.lkq;
        fc.n1k = fc.vbc1d * fc.lkq;
        fc.d2k = fc.c2d * fc.lkq;
        fc.valid = true;
    }
    const double h = fc.h, hb2 = fc.hb2;
    const double vbc1 = fc.vbc1, vbc1d = fc.vbc1d, vbr3 = fc.vbr3;
    const double c1d = fc.c1d, cr1 = fc.cr1, c2d = fc.c2d, cr2 = fc.cr2;
    const double g_lim = fc.g_lim, limit = fc.limit, gd = fc.gd;
    const double isq = fc.isq, isp = fc.isp;
    const double lkq = fc.lkq, dzq = fc.dzq, lkp = fc.lkp, dzp = fc.dzp;
    const double targ_db = fc.targ_db;
    const double d1k = fc.d1k, n1k = fc.n1k, d2k = fc.d2k;
    const double k_base = view.offset;
    // tanh(x) = x*P(x^2)/Q(x^2), Remez-fitted on [0, 19.1] (max rel error
    // 2.6e-15 in double); past the cut both this and libm produce +-1.
    constexpr double kTanhCut = 19.1;
    constexpr double kP0 = 0.9999999999999985055, kP1 = 0.1506502726988090792;
    constexpr double kP2 = 0.005802072768052303268, kP3 = 8.71037225276473881e-5;
    constexpr double kP4 = 5.897706667694234419e-7, kP5 = 1.856640184640964733e-9;
    constexpr double kP6 = 2.556205123125128639e-12, kP7 = 1.260185322437516454e-15;
    constexpr double kP8 = 1.123897522572397584e-19, kP9 = -4.13394968691319614e-24;
    constexpr double kQ0 = 1.0, kQ1 = 0.4839836060321253069;
    constexpr double kQ2 = 0.03379660811212790309, kQ3 = 0.0007897462571782601323;
    constexpr double kQ4 = 7.885738783279575753e-6, kQ5 = 3.647122666156695819e-8;
    constexpr double kQ6 = 7.700742527962750083e-11, kQ7 = 6.595983799841367288e-14;
    constexpr double kQ8 = 1.626512295278274643e-17;
    const double dt = dt_;
    const double sigma = force_noise_sigma_;
    const double* fr = force_batch_;
    double* rd = readout_scratch_.data();
    double* t_arr = t_scratch_.data();
    double* x_arr = x_scratch_.data();
    const circ::StateSpace& ss = loop_ss_;
    const double* am = ss.a.data();
    const double* cv = ss.c.data();
    const double* bv = ss.b.data();
    const double* fv = ss.f.data();
    const double e_aff = ss.e;
    // Readout band-pass, folded into the loop shadow (it is off the
    // feedback path; running it here hides its recurrence latency).
    circ::LinearSpec rspec;
    const bool have_rspec = readout_bandpass_.linear_spec(rspec);
    CBS_EXPECTS(have_rspec);
    const double rb0 = rspec.c0, rb1 = rspec.c1, rb2 = rspec.c2;
    const double ra1 = rspec.c3, ra2 = rspec.c4;
    double rz1 = *rspec.s0, rz2 = *rspec.s1;
    // Loop-filter state lives in this aligned staging buffer: the matvec
    // broadcasts read lanes straight from L1.
    alignas(32) double xs[8];
    for (int i = 0; i < 8; ++i) xs[i] = loop_x_[i];
    double xr = resonator_.displacement().value();
    double vr = resonator_.velocity().value();
    double t = t_;
    double peak = 0.0;
    double last_ylim = 0.0;
    // Smallest bridge arm scale seen: the exact path clamps
    // delta = drr*x at -0.99, so a < 0.01 means the fused linear extension
    // diverged from the exact clamp -- latch off like the DDA guard.
    double amin = 1.0;
    std::size_t flick = flicker_counter_;
    double flick_v = flicker_value_;
    // Carried bridge divide operands for the first tick (Q fold = 1).
    double n_pl = vbc1d * xr + vbc1;
    double d_pl = c1d * xr + cr1;
    double n_mi = vbr3;
    double d_mi = c2d * xr + cr2;
    for (std::size_t j = 0; j < n; ++j) {
        // prepare: xn = f + A*x and y_part = e + C*x from last tick's
        // state. Issues immediately -- the matvec runs in the shadow of
        // the serial chain below, which does not depend on it.
        const __m256d x0 = _mm256_load_pd(xs);
        const __m256d x1 = _mm256_load_pd(xs + 4);
        __m256d acc = _mm256_fmadd_pd(_mm256_loadu_pd(cv + 4), x1,
                                      _mm256_mul_pd(_mm256_loadu_pd(cv), x0));
        const __m128d lo =
            _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
        const double y_part = e_aff + _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
        const double gy = g_lim * y_part;
        // Two accumulator pairs halve the fmadd dependency chain.
        __m256d xn0a = _mm256_loadu_pd(fv);
        __m256d xn1a = _mm256_loadu_pd(fv + 4);
        __m256d xn0b = _mm256_setzero_pd();
        __m256d xn1b = _mm256_setzero_pd();
        for (int k = 0; k < 8; k += 2) {
            const __m256d xja = _mm256_broadcast_sd(xs + k);
            const __m256d xjb = _mm256_broadcast_sd(xs + k + 1);
            xn0a = _mm256_fmadd_pd(_mm256_loadu_pd(am + k * 8), xja, xn0a);
            xn1a = _mm256_fmadd_pd(_mm256_loadu_pd(am + k * 8 + 4), xja, xn1a);
            xn0b = _mm256_fmadd_pd(_mm256_loadu_pd(am + (k + 1) * 8), xjb, xn0b);
            xn1b = _mm256_fmadd_pd(_mm256_loadu_pd(am + (k + 1) * 8 + 4), xjb, xn1b);
        }
        const __m256d xn0 = _mm256_add_pd(xn0a, xn0b);
        const __m256d xn1 = _mm256_add_pd(xn1a, xn1b);
        // Bridge outputs for this tick: operands were folded at the end of
        // the previous iteration, so the divides issue right away.
        const double vp = n_pl / d_pl;
        const double vm = n_mi / d_mi;
        amin = std::min(amin, drr * xr + 1.0);
        if (flick++ % flicker_stride_ == 0) flick_v = bridge_flicker_.process(0.0);
        double base = (thermal_raw[j] * thermal_sigma + 0.0) + flick_v + k_base;
        if (dda_raw != nullptr) base += dda_raw[j] * dda_sigma;
        const double u = ((vp - vm) + base) + std::fma(h, vp + vm, -hb2);
        // finish: u -> y is one FMA; u -> x' one FMA per panel.
        const __m256d uv = _mm256_set1_pd(u);
        _mm256_store_pd(xs, _mm256_fmadd_pd(_mm256_loadu_pd(bv), uv, xn0));
        _mm256_store_pd(xs + 4, _mm256_fmadd_pd(_mm256_loadu_pd(bv + 4), uv, xn1));
        peak = std::max(peak, std::fabs(xs[0]));
        const double targ = std::fma(gd, u, gy);
        const double sgn = std::copysign(1.0, targ);
        const double at = std::fabs(targ);
        // Odd rational tanh, Estrin-evaluated (the powers and the two
        // polynomial halves run in parallel).
        const double s = targ * targ;
        const double s2 = s * s;
        const double s4 = s2 * s2;
        const double s8 = s4 * s4;
        const double pe0 = std::fma(kP1, s, kP0);
        const double pe1 = std::fma(kP3, s, kP2);
        const double pe2 = std::fma(kP5, s, kP4);
        const double pe3 = std::fma(kP7, s, kP6);
        const double pe4 = std::fma(kP9, s, kP8);
        const double pf0 = std::fma(pe1, s2, pe0);
        const double pf1 = std::fma(pe3, s2, pe2);
        const double qe0 = std::fma(kQ1, s, kQ0);
        const double qe1 = std::fma(kQ3, s, kQ2);
        const double qe2 = std::fma(kQ5, s, kQ4);
        const double qe3 = std::fma(kQ7, s, kQ6);
        const double qf0 = std::fma(qe1, s2, qe0);
        const double qf1 = std::fma(qe3, s2, qe2);
        const double num_t = std::fma(pe4, s8, std::fma(pf1, s4, pf0));
        const double den_t = std::fma(kQ8, s8, std::fma(qf1, s4, qf0));
        const double xP = targ * num_t;
        // Off-cycle divide: tl for the limiter output and the state update.
        const bool sat = at >= kTanhCut;
        const double tq = sat ? sgn : xP / den_t;
        const double y_lim = limit * tq;
        last_ylim = y_lim;
        // Readout biquad (same op order as Biquad::process).
        const double w = rb0 * y_lim + rz1;
        rz1 = rb1 * y_lim - ra1 * w + rz2;
        rz2 = rb2 * y_lim - ra2 * w;
        rd[j] = w;
        t_arr[j] = t;
        x_arr[j] = xr;
        t += dt;
        const double fn = fr[j] * sigma + 0.0;
        const double tailx = (pr.p11 * xr + pr.p12 * vr) + fn * isq;
        const double tailv = (pr.p21 * xr + pr.p22 * vr) - fn * isp;
        // State update + next tick's bridge fold. sgn carries the deadband
        // correction's sign: dzq/dzp inherit the propagator entries' signs
        // (p21 < 0), which a bare copysign would discard.
        double bx, xPf, qf;
        if (at >= targ_db) {
            bx = tailx - sgn * dzq;
            xr = std::fma(tq, lkq, bx);
            vr = (tailv + sgn * dzp) - tq * lkp;
            xPf = sat ? sgn : xP;
            qf = sat ? 1.0 : den_t;
        } else {
            bx = tailx;
            xr = tailx;
            vr = tailv;
            xPf = 0.0;
            qf = 1.0;
        }
        n_pl = std::fma(xPf, n1k, std::fma(vbc1d, bx, vbc1) * qf);
        d_pl = std::fma(xPf, d1k, std::fma(c1d, bx, cr1) * qf);
        d_mi = std::fma(xPf, d2k, std::fma(c2d, bx, cr2) * qf);
        n_mi = vbr3 * qf;
    }
    for (int i = 0; i < 8; ++i) loop_x_[i] = xs[i];
    resonator_.set_state(Length{xr}, Velocity{vr});
    bridge_.set_sense_delta(std::max(drr * x_arr[n - 1], -0.99));
    // Re-derive the buffer's delivered-current state from the last limiter
    // output through its own kernel (clamps included).
    (void)buffer_.process_sample_fast(last_ylim);
    *rspec.s0 = rz1;
    *rspec.s1 = rz2;
    readout_prefiltered_ = true;
    t_ = t;
    flicker_counter_ = flick;
    flicker_value_ = flick_v;
    if (amin < 0.0101) fuse_latched_off_ = true;
    return peak;
}

#endif  // x86-64

std::vector<daq::FrequencyMeasurement> ResonantCantileverSystem::run(Time duration) {
    CBS_EXPECTS(duration.value() > 0.0);
    const obs::ScopedTimer span("resonant.run", "core");
    std::vector<daq::FrequencyMeasurement> out;
    sink_ = &out;
    const auto steps = static_cast<std::size_t>(duration.value() * fs_);
    const bio::LangmuirKinetics kinetics(cfg_.coating.target);
    // Per-tick wall time of the closed loop — the dominant cost of every
    // resonant bench — recorded only when CBS_OBS is enabled. A tick is
    // ~300 ns and two clock reads cost ~50 ns, so only every 61st tick is
    // timed to keep the enabled overhead inside the ≤5% budget (prime
    // stride: it must not alias the 64-tick flicker-update cycle, which
    // would bias the sample toward the expensive ticks); the histogram is
    // a uniform sample, `resonant.ticks` has the exact count.
    // The phase persists across run() calls so short runs still sample.
    const bool timed = obs::enabled();
    constexpr std::size_t kTimingStride = 61;
    using clock = std::chrono::steady_clock;
    // Telemetry: gated frequency readings stream into the freq series as
    // they complete (they only appear every counter-gate ~0.1 s, so this
    // never runs per tick); the sampler decides whether a record is due.
    auto& telemetry = obs::Telemetry::instance();
    std::size_t telemetered = 0;
    const auto push_new_measurements = [&] {
        for (; telemetered < out.size(); ++telemetered) {
            telemetry_freq_->push(out[telemetered].frequency_hz);
        }
        telemetry.maybe_sample("resonant");
    };
    // Binding advances in coarse sub-intervals; the loop retunes after each.
    const std::size_t bio_stride = std::max<std::size_t>(1, static_cast<std::size_t>(fs_ * 0.01));
    const std::size_t batch = sim::batch_size();
    if (batch > 1) {
        // Batched stepping (bit-identical to the per-tick loop below; see
        // run_batch). Batches are clamped to the bio sub-interval boundary
        // so kinetics advance at exactly the same step indices. Timing is
        // observed per batch as wall time / n, keeping the histogram in
        // ns-per-tick units; two clock reads per batch are cheap enough to
        // time every batch instead of sampling 1-in-61.
        std::size_t i = 0;
        while (i < steps) {
            const std::size_t n = std::min({batch, steps - i, bio_stride - i % bio_stride});
            if (timed) {
                const auto t0 = clock::now();
                run_batch(n, out);
                obs_tick_hist_->observe(
                    std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
                    static_cast<double>(n));
            } else {
                run_batch(n, out);
            }
            i += n;
            push_new_measurements();
            if (i % bio_stride == 0) {
                const double theta_next =
                    kinetics.step(theta_, concentration_, Time{bio_stride * dt_});
                if (std::abs(theta_next - theta_) > 1e-9) {
                    theta_ = theta_next;
                    retune();
                }
            }
        }
    } else {
        for (std::size_t i = 0; i < steps; ++i) {
            if (timed && obs_timing_phase_++ % kTimingStride == 0) {
                const auto t0 = clock::now();
                tick(dt_);
                obs_tick_hist_->observe(
                    std::chrono::duration<double, std::nano>(clock::now() - t0).count());
            } else {
                tick(dt_);
            }
            if ((i + 1) % bio_stride == 0) {
                push_new_measurements();
                const double theta_next =
                    kinetics.step(theta_, concentration_, Time{bio_stride * dt_});
                if (std::abs(theta_next - theta_) > 1e-9) {
                    theta_ = theta_next;
                    retune();
                }
            }
        }
    }
    push_new_measurements();
    if (timed) {
        obs_ticks_->add(steps);
        obs_coverage_->set(theta_);
    }
    sink_ = nullptr;
    return out;
}

std::optional<daq::FrequencyMeasurement> ResonantCantileverSystem::last_measurement() const {
    return last_;
}

Length ResonantCantileverSystem::oscillation_amplitude() const {
    const auto v = displacement_trace_.values();
    if (v.size() < 16) return Length{0.0};
    // RMS of the recent window * sqrt(2) for a sine.
    const std::size_t window = std::min<std::size_t>(v.size(), 4096);
    const auto recent = v.subspan(v.size() - window);
    return Length{stats::rms(recent) * std::sqrt(2.0)};
}

Mass ResonantCantileverSystem::mass_from_frequency(Frequency measured) const {
    // Remove the fluid-loading scale, then invert the mass model.
    const double fluid_scale =
        fluid_loading_.resonance.value() / mass_model_.unloaded_frequency().value();
    const Frequency in_vacuum_equivalent{measured.value() / fluid_scale};
    return mass_model_.mass_from_frequency(in_vacuum_equivalent,
                                           mech::MassDistribution::uniform);
}

Power ResonantCantileverSystem::static_power() const {
    return bridge_.power() + buffer_.supply_power();
}

}  // namespace cbs::core
