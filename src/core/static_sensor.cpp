#include "core/static_sensor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/batch.hpp"
#include "util/constants.hpp"
#include "util/expect.hpp"

namespace cbs::core {

circ::ChopperConfig StaticSensorConfig::default_chopper() {
    circ::ChopperConfig c;
    c.amplifier.gain = 100.0;
    c.amplifier.bandwidth = Frequency{50e3};
    c.amplifier.offset_sigma = Voltage{2e-3};
    c.amplifier.white_noise = VoltageNoiseDensity{15e-9};
    c.amplifier.flicker_corner = Frequency{5e3};
    c.amplifier.saturation = Voltage{2.5};
    c.chop_frequency = Frequency{10e3};
    c.output_cutoff = Frequency{500.0};
    return c;
}

StaticCantileverSystem::StaticCantileverSystem(const StaticSensorConfig& config, Rng rng)
    : cfg_(config),
      stoney_(config.geometry),
      gauge_(config.geometry.material, mech::ResistorOrientation::longitudinal,
             mech::ResistorPlacement::distributed),
      channels_{Channel{bio::antibody_coating(bio::library::igg_antigen()), 0.0,
                        circ::DiffusedBridge(config.bridge), 0},
                Channel{bio::antibody_coating(bio::library::igg_antigen()), 0.0,
                        circ::DiffusedBridge(config.bridge), 0},
                Channel{bio::antibody_coating(bio::library::igg_antigen()), 0.0,
                        circ::DiffusedBridge(config.bridge), 0},
                Channel{bio::reference_coating(), 0.0, circ::DiffusedBridge(config.bridge), 0}},
      mux_(config.mux, config.sample_rate_hz),
      chopper_(config.chopper, config.sample_rate_hz, rng.fork()),
      post_filter_(Frequency{200.0}, config.sample_rate_hz),
      offset_(config.offset_range, config.offset_bits),
      pga1_(config.adc_full_scale),
      pga2_(config.adc_full_scale),
      adc_(config.adc_bits, config.adc_full_scale),
      bridge_noise_(circ::DiffusedBridge(config.bridge).thermal_noise_density(constants::T_room),
                    config.sample_rate_hz, rng.fork()),
      obs_tick_hist_(obs::MetricsRegistry::instance().histogram("proc.static_chain")),
      obs_readings_(obs::MetricsRegistry::instance().counter("static.readings")),
      probe_bridge_(obs::ProbeRegistry::instance().probe(config.probe_scope + ".bridge")),
      probe_chopper_(obs::ProbeRegistry::instance().probe(config.probe_scope + ".chopper")),
      probe_adc_(obs::ProbeRegistry::instance().probe(config.probe_scope + ".adc")),
      // tau0 is nominal: readings are paced by the caller (run_assay's
      // reading_interval, or back-to-back in sweeps), so the series' Allan
      // taus read "per 10 ms of acquisition", not wall time.
      telemetry_read_(obs::Telemetry::instance().series(config.probe_scope + ".read",
                                                        0.01, 64)) {
    CBS_EXPECTS(config.mux.channels == channel_count);
    CBS_EXPECTS(config.sample_rate_hz > 0.0);
    // Default health detectors (idempotent per (kind, probe) — repeated
    // construction on a shared scope doesn't stack duplicates). The bridge
    // carries thermal noise, so 256 bit-identical samples mean the noise
    // source died; the chopper output clipping at the amplifier rails is
    // watched just inside them because saturated samples clamp to exactly
    // ±sat and would never leave a [-sat, sat] window.
    probe_bridge_->add_watchdog(std::make_unique<obs::StuckAtWatchdog>(256));
    const double sat = config.chopper.amplifier.saturation.value();
    probe_chopper_->add_watchdog(
        std::make_unique<obs::RangeWatchdog>(-0.999 * sat, 0.999 * sat));
    // Fabrication mismatch per channel.
    for (auto& ch : channels_) {
        std::array<double, 4> mm{};
        for (auto& m : mm) m = rng.normal(0.0, cfg_.bridge_mismatch_sigma);
        ch.bridge.set_mismatch(mm);
    }
    pga1_.set_setting(4);  // x20
    pga2_.set_setting(2);  // x5
}

void StaticCantileverSystem::set_coating(std::size_t channel, const bio::Coating& coating) {
    CBS_EXPECTS(channel < channel_count);
    coating.validate();
    channels_[channel].coating = coating;
    channels_[channel].theta = 0.0;
}

void StaticCantileverSystem::set_concentration(MolarConcentration c) {
    CBS_EXPECTS(c.value() >= 0.0);
    concentration_ = c;
}

void StaticCantileverSystem::advance_binding(Time dt) {
    CBS_EXPECTS(dt.value() > 0.0);
    for (auto& ch : channels_) {
        const bio::LangmuirKinetics kinetics(ch.coating.target);
        ch.theta = kinetics.step(ch.theta, concentration_, dt);
    }
}

double StaticCantileverSystem::bridge_output(Channel& ch) const {
    const auto stress = ch.coating.surface_stress(ch.theta);
    ch.bridge.set_sense_delta(gauge_.relative_change_surface_stress(stoney_, stress));
    return ch.bridge.output().value();
}

double StaticCantileverSystem::acquire(Time settle, Time integrate) {
    CBS_EXPECTS(settle.value() > 0.0 && integrate.value() > 0.0);
    std::array<double, channel_count> inputs{};
    for (std::size_t i = 0; i < channel_count; ++i) {
        inputs[i] = bridge_output(channels_[i]);
    }
    const auto settle_steps =
        static_cast<std::size_t>(settle.value() * cfg_.sample_rate_hz);
    const auto integrate_steps =
        static_cast<std::size_t>(integrate.value() * cfg_.sample_rate_hz);
    // Per-tick wall time of the mux->chopper->PGA->ADC chain, recorded only
    // when CBS_OBS is enabled. Every 61st tick is timed (prime stride, so
    // the sample cannot alias any periodic per-tick cost) to keep the
    // clock reads inside the ≤5% enabled-overhead budget; the
    // phase persists across acquire() calls so short windows still sample.
    const bool timed = obs::enabled();
    constexpr std::size_t kTimingStride = 61;
    using clock = std::chrono::steady_clock;
    const std::size_t total = settle_steps + integrate_steps;
    double acc = 0.0;
    const std::size_t batch = sim::batch_size();
    if (batch > 1) {
        // Batched stepping: the chain is feed-forward, so running each
        // stage over the whole block (stage-major) produces bit-identical
        // samples to the per-tick loop below (DESIGN.md §9) while paying
        // one virtual dispatch, one obs check and bulk noise draws per
        // stage per batch. Timing observes wall time / n per batch to keep
        // the histogram in ns-per-tick units.
        const double inv_fs = 1.0 / cfg_.sample_rate_hz;
        std::size_t i = 0;
        while (i < total) {
            const std::size_t n = std::min(batch, total - i);
            chain_buf_.resize(n);
            const auto t0 = timed ? clock::now() : clock::time_point{};
            mux_.process_block(inputs, chain_buf_);
            bridge_noise_.process_block(chain_buf_);
            probe_bridge_->tap_block(chain_buf_);
            chopper_.process_block(chain_buf_);
            probe_chopper_->tap_block(chain_buf_);
            // The chain's linear run — post-filter -> offset — executes
            // through the compiled form under CBS_FUSE=on (dense recurrence
            // with the §11 tolerance contract). The chopper, the PGAs'
            // output saturation and the ADC stay exact breakpoints around it.
            if (circ::fuse_mode() == circ::FuseMode::simd &&
                post_filter_.linear_spec(fuse_specs_[0]) && offset_.linear_spec(fuse_specs_[1])) {
                circ::fused_specs_process_block(fuse_specs_, fuse_cache_, chain_buf_);
            } else {
                post_filter_.process_block(chain_buf_);
                offset_.process_block(chain_buf_);
            }
            pga1_.process_block(chain_buf_);
            pga2_.process_block(chain_buf_);
            adc_.quantize_block(chain_buf_);
            probe_adc_->tap_block(chain_buf_);
            if (timed) {
                obs_tick_hist_->observe(
                    std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
                    static_cast<double>(n));
            }
            // Same accumulation order (and settle/integrate boundary) as
            // the per-tick loop.
            for (std::size_t j = 0; j < n; ++j) {
                if (i + j >= settle_steps) acc += chain_buf_[j];
            }
            for (std::size_t j = 0; j < n; ++j) sim_time_ += inv_fs;
            i += n;
        }
    } else {
        for (std::size_t i = 0; i < total; ++i) {
            const bool sample_timing = timed && obs_timing_phase_++ % kTimingStride == 0;
            const auto t0 = sample_timing ? clock::now() : clock::time_point{};
            double v = mux_.process(inputs);
            v = bridge_noise_.process(v);
            probe_bridge_->tap(v);
            v = chopper_.process(v);
            probe_chopper_->tap(v);
            v = post_filter_.process(v);
            v = offset_.process(v);
            v = pga1_.process(v);
            v = pga2_.process(v);
            v = adc_.quantize(v);
            probe_adc_->tap(v);
            if (sample_timing) {
                obs_tick_hist_->observe(
                    std::chrono::duration<double, std::nano>(clock::now() - t0).count());
            }
            if (i >= settle_steps) acc += v;
            sim_time_ += 1.0 / cfg_.sample_rate_hz;
        }
    }
    return acc / static_cast<double>(integrate_steps);
}

void StaticCantileverSystem::calibrate_offsets(Time settle, Time integrate) {
    const obs::ScopedTimer span("static.calibrate_offsets", "core");
    // The uncompensated offset (bridge mismatch x chopper gain, ~0.25 V at
    // the compensation node) saturates the chain at full gain, so the
    // measurement is taken with both PGAs at x1 — the same sequencing a
    // real chain uses.
    const auto g1 = pga1_.setting();
    const auto g2 = pga2_.setting();
    pga1_.set_setting(0);
    pga2_.set_setting(0);
    for (std::size_t k = 0; k < channel_count; ++k) {
        mux_.select(k);
        offset_.set_code(0);
        const double out = acquire(settle, integrate);
        offset_.calibrate(Voltage{out});
        channels_[k].offset_code = offset_.code();
    }
    pga1_.set_setting(g1);
    pga2_.set_setting(g2);
    // Second pass at full gain: store the sub-LSB residual and remove it in
    // software on every subsequent reading.
    for (std::size_t k = 0; k < channel_count; ++k) {
        mux_.select(k);
        offset_.set_code(channels_[k].offset_code);
        channels_[k].residual_v = acquire(settle, integrate);
    }
}

ChannelReading StaticCantileverSystem::read_channel(std::size_t channel, Time settle,
                                                    Time integrate) {
    CBS_EXPECTS(channel < channel_count);
    obs_readings_->add();
    mux_.select(channel);
    offset_.set_code(channels_[channel].offset_code);
    ChannelReading r;
    r.channel = channel;
    r.output = Voltage{acquire(settle, integrate) - channels_[channel].residual_v};
    r.input_referred = Voltage{r.output.value() / chain_gain()};
    // Invert bridge + gauge + Stoney to estimate the surface stress.
    const double drr = r.input_referred.value() /
                       channels_[channel].bridge.sensitivity().value();
    const double drr_per_stress =
        gauge_.relative_change_surface_stress(stoney_, SurfaceStress{1.0});
    r.stress = SurfaceStress{drr / drr_per_stress};
    telemetry_read_->push(r.output.value());
    obs::Telemetry::instance().maybe_sample("static");
    return r;
}

Voltage StaticCantileverSystem::differential(std::size_t active, std::size_t reference,
                                             Time settle, Time integrate) {
    const auto a = read_channel(active, settle, integrate);
    const auto ref = read_channel(reference, settle, integrate);
    return a.output - ref.output;
}

double StaticCantileverSystem::chain_gain() const {
    return cfg_.chopper.amplifier.gain * pga1_.gain() * pga2_.gain();
}

Q<0, 2, -1, -1> StaticCantileverSystem::stress_responsivity() const {
    const double drr_per_stress =
        gauge_.relative_change_surface_stress(stoney_, SurfaceStress{1.0});
    const Voltage per_unit =
        channels_[0].bridge.sensitivity() * (drr_per_stress * chain_gain());
    return per_unit / SurfaceStress{1.0};
}

double StaticCantileverSystem::coverage(std::size_t channel) const {
    CBS_EXPECTS(channel < channel_count);
    return channels_[channel].theta;
}

const bio::Coating& StaticCantileverSystem::coating(std::size_t channel) const {
    CBS_EXPECTS(channel < channel_count);
    return channels_[channel].coating;
}

StaticCantileverSystem::AssayRecord StaticCantileverSystem::run_assay(
    const bio::AssayProtocol& protocol, Time reading_interval) {
    protocol.validate();
    CBS_EXPECTS(reading_interval.value() > 0.0);
    const obs::ScopedTimer span("static.run_assay", "core");
    AssayRecord rec;
    double t = 0.0;
    for (const auto& phase : protocol.phases) {
        set_concentration(phase.concentration);
        double elapsed = 0.0;
        while (elapsed < phase.duration.value() - 1e-9) {
            const double dt =
                std::min(reading_interval.value(), phase.duration.value() - elapsed);
            advance_binding(Time{dt});
            elapsed += dt;
            t += dt;
            rec.time_s.push_back(t);
            for (std::size_t k = 0; k < channel_count; ++k) {
                rec.volts[k].push_back(
                    read_channel(k, Time{5e-3}, Time{10e-3}).output.value());
            }
        }
    }
    return rec;
}

}  // namespace cbs::core
