// Kernel replays: each inner layer's public kernel run on its own, at a
// workload's parameters, for as many units as the workload consumed (or
// until its time budget runs out). Costs come back in ns per unit, so the
// traced run can reconcile them against the loop that encloses them.
#pragma once

#include <cstdint>

#include "array/scan.hpp"
#include "core/resonant_sensor.hpp"
#include "core/static_sensor.hpp"
#include "fab/montecarlo.hpp"

namespace perfbench {

/// ns per loop tick of each stage of the resonant loop (Fig. 5).
struct ResonantReplay {
    double resonator = 0.0;    ///< ModalResonator::step_exact
    double loop_linear = 0.0;  ///< DDA -> band-pass -> HP -> HP -> phase shifter -> VGA
    double limiter = 0.0;      ///< NonlinearLimiter
    double white_noise = 0.0;  ///< bridge thermal WhiteNoise
    double counter = 0.0;      ///< ReciprocalCounter::feed_block
    double rng_normal = 0.0;   ///< one bulk normal draw (the force noise)
    double flicker = 0.0;      ///< one bridge FlickerNoise update (every 64th tick)
};
/// `sys` supplies the loaded resonance, Q, VGA setting and sample rate.
[[nodiscard]] ResonantReplay replay_resonant(const cbs::core::ResonantSensorConfig& cfg,
                                             const cbs::core::ResonantCantileverSystem& sys,
                                             double ticks, double budget_s);

/// ns per 200 kHz sample of the static chain's stages (Fig. 4).
struct StaticReplay {
    double flicker = 0.0;       ///< the chopper amplifier's FlickerNoise alone
    double chopper = 0.0;       ///< ChopperAmplifier (modulator, core amp incl. noise, boxcar)
    double adc = 0.0;           ///< SarAdc::quantize_block
    double mux = 0.0;           ///< AnalogMux::process_block (the 4-channel read)
    double bridge_noise = 0.0;  ///< the bridge's thermal WhiteNoise
};
[[nodiscard]] StaticReplay replay_static(const cbs::core::StaticSensorConfig& cfg,
                                         double samples, double budget_s);

/// ns per scanned sample of AnalogMux::scan_block over one row of `cols`
/// sites at the scan's settle + dwell pattern.
[[nodiscard]] double replay_mux_scan(const cbs::array::ScanConfig& cfg, std::size_t cols,
                                     double samples, double budget_s);

/// ns per trial of the serial Monte-Carlo pieces.
struct YieldReplay {
    double sample = 0.0;  ///< ProcessMonteCarlo::sample on a fresh trial stream
    double stream = 0.0;  ///< Rng::for_stream plus its first normal draw
};
[[nodiscard]] YieldReplay replay_yield(const cbs::fab::ProcessMonteCarlo& mc,
                                       std::uint64_t seed, double trials, double budget_s);

}  // namespace perfbench
