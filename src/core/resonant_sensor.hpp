// Resonant cantilever biosensor system (paper Figure 5):
//
//   cantilever --(piezoresistive MOS bridge)--> DDA instrumentation amp
//     --> high-pass filters --> variable-gain amplifier
//     --> non-linear limiting amplifier --> class-AB buffer --> coil
//     --(Lorentz force, package magnet)--> cantilever   [feedback loop]
//
//   readout: digital counter on the loop signal.
//
// The loop self-starts from thermomechanical noise, grows until the
// limiter's describing gain brings the loop gain to unity, and oscillates
// at the (mass-dependent) loaded resonance. Analyte binding shifts the
// oscillation frequency (Figure 2); the counter tracks it.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "bio/functionalization.hpp"
#include "bio/langmuir.hpp"
#include "circ/bridge.hpp"
#include "circ/classab.hpp"
#include "circ/dda.hpp"
#include "circ/filters.hpp"
#include "circ/fuse.hpp"
#include "circ/limiter.hpp"
#include "circ/lorentz.hpp"
#include "circ/noise.hpp"
#include "circ/phase_shifter.hpp"
#include "circ/vga.hpp"
#include "daq/counter.hpp"
#include "mech/hydrodynamics.hpp"
#include "mech/mass_loading.hpp"
#include "mech/piezoresistance.hpp"
#include "mech/resonator.hpp"
#include "mech/thermal_noise.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "phys/fluid.hpp"
#include "sim/trace.hpp"
#include "util/random.hpp"

namespace cbs::core {

struct ResonantSensorConfig {
    mech::CantileverGeometry geometry = mech::resonant_default();
    phys::Fluid fluid = phys::fluids::air();
    double intrinsic_q = 3000.0;  ///< anchor/material losses (combined with fluid)
    Temperature temperature{293.15};

    circ::MosBridge::Config bridge{};
    circ::DdaConfig dda = default_dda();
    Frequency highpass_corner{20e3};
    double vga_min_db = -40.0;
    double vga_max_db = 26.0;
    double limiter_gain = 5.0;
    Voltage limiter_level{15e-3};
    circ::ClassAbConfig buffer{};
    circ::LorentzCoilConfig coil{};

    /// Loop-gain target the auto-gain routine sets via the VGA (> 1 for
    /// guaranteed startup; amplitude is then set by the limiter).
    double loop_gain_target = 4.0;

    /// Oversampling of the loaded resonance.
    double oversample = 32.0;

    Time counter_gate{0.1};
    bio::Coating coating = bio::antibody_coating(bio::library::igg_antigen());
    /// obs probe namespace for this instance: the system registers
    /// `<scope>.bridge`, `<scope>.loop` and `<scope>.displacement` taps
    /// (armed only when CBS_OBS_PROBES matches). Array sweeps give each
    /// element its own scope so per-element health stays separable.
    std::string probe_scope = "resonant";

    static circ::DdaConfig default_dda();
};

class ResonantCantileverSystem {
public:
    ResonantCantileverSystem(const ResonantSensorConfig& config, Rng rng);

    /// Loaded (fluid + bound mass) resonance the loop should find.
    [[nodiscard]] Frequency expected_resonance() const;
    /// Total loaded quality factor.
    [[nodiscard]] double loaded_q() const;
    /// Small-signal loop gain at resonance at the current VGA setting.
    [[nodiscard]] double loop_gain() const;
    /// VGA gain needed to hit the configured loop-gain target.
    [[nodiscard]] double required_vga_gain() const;
    /// Programs the VGA for the loop-gain target ("adjust to different
    /// mechanical damping ... due to different liquids").
    void auto_gain();
    [[nodiscard]] double vga_control() const { return vga_.control(); }

    /// Sets the analyte concentration over the sensor.
    void set_concentration(MolarConcentration c);
    /// Presets the coverage (e.g. a pre-incubated sensor) and retunes the
    /// mechanics accordingly.
    void set_coverage(double theta);
    /// Analyte coverage and the bound mass it represents.
    [[nodiscard]] double coverage() const { return theta_; }
    [[nodiscard]] Mass bound_mass() const;

    /// Runs the closed loop for `duration`; binding advances continuously;
    /// completed counter gates are appended to the returned vector.
    std::vector<daq::FrequencyMeasurement> run(Time duration);

    /// Last completed counter measurement, if any.
    [[nodiscard]] std::optional<daq::FrequencyMeasurement> last_measurement() const;

    /// Steady-state oscillation amplitude estimate from the recent
    /// displacement trace.
    [[nodiscard]] Length oscillation_amplitude() const;

    /// Inverts the mass-loading model: added mass explaining a measured
    /// frequency.
    [[nodiscard]] Mass mass_from_frequency(Frequency measured) const;

    /// Static power: bridge + buffer (the MOS bridge advantage shows here).
    [[nodiscard]] Power static_power() const;

    [[nodiscard]] const ResonantSensorConfig& config() const { return cfg_; }
    [[nodiscard]] double sample_rate() const { return fs_; }

private:
    /// Re-solves the resonator parameters for the current bound mass.
    void retune();
    /// One loop tick.
    void tick(double dt);
    /// `n` consecutive loop ticks with the per-tick invariants hoisted and
    /// the noise draws prefetched in bulk — bit-identical to n tick() calls
    /// (DESIGN.md §9). Completed counter gates are appended to `out`.
    void run_batch(std::size_t n, std::vector<daq::FrequencyMeasurement>& out);
    /// Compiled-form serial loop (CBS_FUSE=on, DESIGN.md §11): steps the
    /// loop's linear run as the composed dense recurrence with reassociated
    /// kernels (tolerance contract). Returns false when the configuration
    /// is ineligible (1/f in the DDA, armed fault injection, armed probes
    /// or insufficient slew margin) and the caller must run the legacy loop.
    bool run_batch_fused(std::size_t n);
    /// Batch tail shared by the legacy and fused loops: probe taps, readout
    /// filtering, counter feed and trace append.
    void finish_batch(std::vector<daq::FrequencyMeasurement>& out);
#if defined(__x86_64__) || defined(_M_X64)
    /// Hand-fused AVX2 body of the SIMD tier (8-state loop cascade only):
    /// the dense recurrence is inlined as intrinsics and every per-tick
    /// constant (bridge arm products, reciprocals) is hoisted to a
    /// register, leaving tanh as the loop's only out-of-line call.
    /// Returns the batch's peak |DDA pole output| for the saturation guard.
    __attribute__((target("avx2,fma"))) double run_fused_simd_loop_avx2(
        std::size_t n, const circ::BehavioralAmplifier::FusedView& view,
        const double* thermal_raw, double thermal_sigma, const double* dda_raw,
        double dda_sigma, double half_bias, double inv_cm_den);
#endif

    ResonantSensorConfig cfg_;
    mech::EulerBernoulliBeam beam_;
    mech::FluidLoading fluid_loading_;
    double fs_;
    double dt_;

    // Mechanics.
    mech::ModalResonator resonator_;
    mech::MassLoadingModel mass_model_;
    double force_noise_sigma_;  // per-sample thermomechanical force
    Rng force_rng_;

    // Bio.
    double theta_ = 0.0;
    MolarConcentration concentration_{0.0};
    double drr_per_metre_;  // bridge gauge slope vs tip displacement

    // Circuit chain.
    circ::MosBridge bridge_;
    circ::WhiteNoise bridge_thermal_;
    // The MOS bridge's 1/f noise is band-limited far below f0, so it is
    // generated at fs/flicker_stride and held between updates — a 64x
    // saving on the dominant per-tick cost.
    static constexpr std::size_t flicker_stride_ = 64;
    circ::FlickerNoise bridge_flicker_;
    std::size_t flicker_counter_ = 0;
    double flicker_value_ = 0.0;
    circ::DifferentialDifferenceAmplifier dda_;
    // Mild in-loop band-pass around the mechanical resonance: without it
    // the VGA-amplified broadband bridge noise (important in liquids,
    // where the VGA gain is high) competes with the oscillation.
    circ::Biquad loop_bandpass_;
    circ::OnePoleHighPass hp1_;
    circ::OnePoleHighPass hp2_;
    // Displacement-to-velocity phase shift: makes the Lorentz feedback pump
    // energy (Barkhausen phase condition at the mechanical resonance).
    circ::PhaseShifter phase_shifter_;
    circ::VariableGainAmplifier vga_;
    circ::NonlinearLimiter limiter_;
    circ::ClassAbBuffer buffer_;
    circ::LorentzActuator actuator_;

    // Readout: the counter's input conditioning — a resonance-centred
    // band-pass that keeps out-of-band noise from producing spurious
    // zero crossings in the comparator.
    circ::Biquad readout_bandpass_;
    daq::ReciprocalCounter counter_;
    std::optional<daq::FrequencyMeasurement> last_;
    sim::Trace displacement_trace_;

    double t_ = 0.0;
    std::vector<daq::FrequencyMeasurement>* sink_ = nullptr;

    // Batched-path scratch (sized per batch, reused across batches).
    // The thermomechanical force draws are chunk-prefetched like the noise
    // blocks' buffers (raw words map 1:1 onto ticks, so drawing ahead is
    // bit-invisible); force_batch_ points at this batch's n draws.
    std::vector<double> force_raw_;
    std::size_t force_pos_ = 0;
    const double* force_batch_ = nullptr;
    std::vector<double> t_scratch_;
    std::vector<double> x_scratch_;
    std::vector<double> readout_scratch_;

    // Compiled loop (CBS_FUSE): the linear run DDA gain + pole -> loop
    // band-pass -> hp1 -> hp2 -> phase shifter -> VGA as one dense
    // state-space recurrence, rebuilt per batch (the VGA gain can move
    // between batches). `fuse_latched_off_` latches the instance off the
    // SIMD tier once the DDA saturation guard trips (DESIGN.md §11).
    std::array<circ::LinearSpec, 7> loop_specs_{};
    // Compiled-form cache: the dense matrices are rebuilt only when the
    // specs' coefficients change (checked per batch by value).
    std::array<circ::LinearSpec, 7> loop_specs_built_{};
    bool loop_ss_valid_ = false;
    circ::StateSpace loop_ss_;
    std::vector<double> loop_x_;
    std::vector<double> loop_xn_;
    bool fuse_latched_off_ = false;
#if defined(__x86_64__) || defined(_M_X64)
    // Cached prologue constants of the hand-fused AVX2 loop (they cost
    // divides and an atanh to derive): pure functions of the instance
    // config, the compiled state space and the resonator propagator, so
    // they are recomputed only when the state space is rebuilt or the
    // propagator changes (retune), not per batch.
    struct FusedLoopConsts {
        bool valid = false;
        double pr11 = 0.0, pr12 = 0.0, pr21 = 0.0, pr22 = 0.0;  // cache key
        double h = 0.0, hb2 = 0.0, vbc1 = 0.0, vbc1d = 0.0, vbr3 = 0.0;
        double c1d = 0.0, cr1 = 0.0, c2d = 0.0, cr2 = 0.0;
        double g_lim = 0.0, limit = 0.0, gd = 0.0;
        double isq = 0.0, isp = 0.0, lkq = 0.0, dzq = 0.0, lkp = 0.0, dzp = 0.0;
        double targ_db = 0.0, d1k = 0.0, n1k = 0.0, d2k = 0.0;
    };
    FusedLoopConsts fused_consts_;
#endif
    // Set by the fused SIMD loop when it already ran the readout band-pass
    // in its latency shadow; finish_batch() then skips the second pass.
    bool readout_prefiltered_ = false;

    // Observability: metric pointers resolved once at construction so run()
    // never pays a registry lookup; the timing phase persists across run()
    // calls so the 1-in-61 wall-time sampling holds even for short runs.
    obs::Histogram* obs_tick_hist_;
    obs::Counter* obs_ticks_;
    obs::Gauge* obs_coverage_;
    std::size_t obs_timing_phase_ = 0;
    // Signal taps (Figure 5's internal nodes): post-noise bridge voltage,
    // limiter output (the loop's amplitude-regulated signal, tapped before
    // the readout band-pass filters it in place) and tip displacement.
    // Disarmed probes cost one relaxed load per tap.
    obs::Probe* probe_bridge_;
    obs::Probe* probe_loop_;
    obs::Probe* probe_displacement_;
    // Telemetry: each gated frequency measurement feeds the
    // "<probe_scope>.freq" series (tau0 = counter gate), whose streaming
    // Allan ladder is the sensor's live stability floor. Inactive cost is
    // one relaxed load per completed measurement, not per tick.
    obs::TelemetrySeries* telemetry_freq_;
};

}  // namespace cbs::core
