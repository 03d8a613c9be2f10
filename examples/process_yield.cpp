// Fabrication-facing example: generate the sensor cell layout, verify it
// against the combined CMOS + MEMS rule deck, simulate the post-CMOS
// micromachining (KOH + etch-stop + release) for a full 100 mm wafer, and
// build a working resonant sensor from one of the fabricated dies.
#include <chrono>
#include <iostream>

#include "array/characterize.hpp"
#include "array/grid.hpp"
#include "core/chip.hpp"
#include "exec/threadpool.hpp"
#include "fab/drc.hpp"
#include "fab/etch.hpp"
#include "fab/layout_gen.hpp"
#include "fab/ruledeck.hpp"
#include "fab/wafer.hpp"
#include "surrogate/tier.hpp"
#include "util/table.hpp"
#include "obs/obs.hpp"

int main() {
    const cbs::obs::BenchSession obs_session("example_process_yield");
    using namespace cbs;
    using namespace cbs::fab;

    // 1. Layout + DRC.
    const auto cell = CantileverCellGenerator(mech::resonant_default()).generate();
    const DrcEngine drc(default_rule_deck());
    const auto violations = drc.check(cell);
    const auto bb = cell.bounding_box();
    std::cout << "cell '" << cell.name() << "': " << cell.shape_count() << " shapes, bbox "
              << (bb.x2 - bb.x1) / 1000.0 << " x " << (bb.y2 - bb.y1) / 1000.0 << " um, "
              << violations.size() << " DRC violations against " << drc.rules().size()
              << " rules\n";
    for (const auto& v : violations) std::cout << "  VIOLATION " << v.describe() << '\n';

    // 2. Post-CMOS etch plan.
    const KohEtchSimulator koh;
    const auto release = plan_release_etch(StackInfo{}, mech::resonant_default().thickness);
    std::cout << "KOH back-side etch: " << ConsoleTable::num(koh.nominal_stop_time().value() /
                                                                 3600.0, 3)
              << " h to the electrochemical stop; front-side release "
              << ConsoleTable::num(release.total().value() / 60.0, 3) << " min\n\n";

    // 3. Wafer-level Monte Carlo.
    const ProcessMonteCarlo mc(mech::resonant_default(), KohEtchConfig{}, ProcessVariation{},
                               EtchMode::electrochemical_stop);
    const WaferMap wafer(WaferConfig{}, mc);
    Rng rng(2026);
    const auto dies = wafer.fabricate(rng);
    const auto yield = wafer.summarize(dies, 0.05);
    std::cout << "wafer: " << yield.dies << " dies, " << yield.good << " good ("
              << ConsoleTable::num(100.0 * yield.yield, 3) << "%), cost/good die "
              << ConsoleTable::num(yield.cost_per_good_die_usd, 3) << " USD\n";

    // Radial thickness map (centre vs edge rows).
    ConsoleTable map({"radius band [mm]", "dies", "mean t [um]", "mean f0 [kHz]"});
    for (double r_lo : {0.0, 15.0, 30.0}) {
        const double r_hi = r_lo + 15.0;
        double t_acc = 0.0, f_acc = 0.0;
        int n = 0;
        for (const auto& d : dies) {
            const double r = std::hypot(d.x_mm, d.y_mm);
            if (r < r_lo || r >= r_hi || !d.device.functional) continue;
            t_acc += d.device.geometry.thickness.value();
            f_acc += d.device.resonance.value();
            ++n;
        }
        if (n == 0) continue;
        map.add_row({ConsoleTable::num(r_lo) + "-" + ConsoleTable::num(r_hi),
                     std::to_string(n), ConsoleTable::num(t_acc / n * 1e6, 4),
                     ConsoleTable::num(f_acc / n / 1e3, 4)});
    }
    std::cout << map.str("radial uniformity (junction-depth bow)") << '\n';

    // 3b. Higher-trial corner statistics on the shared pool (sized by
    // CBS_THREADS, default: hardware cores). The root seed alone fixes the
    // result bits — rerun with any thread count and the numbers match.
    auto& pool = exec::ThreadPool::shared();
    const auto stats = mc.run_seeded(20000, 2026, 0.05, &pool);
    std::cout << "monte-carlo, 20000 trials on " << pool.thread_count()
              << " worker(s): f0 " << ConsoleTable::si(stats.f0_mean_hz, 4, "Hz") << " +/- "
              << ConsoleTable::si(stats.f0_sigma_hz, 3, "Hz") << ", yield "
              << ConsoleTable::num(100.0 * stats.yield, 3) << "%\n";

    // 3b'. The same study at a scale the full simulation cannot reach
    // interactively: one Chebyshev surrogate fit (~200 us, cached per
    // parameter box), then a million trials through the vectorized
    // evaluator — ~50x faster per trial than the full etch + beam model
    // with the fit error held below the CBS_SURROGATE_EPS budget (1e-9).
    {
        const auto t0 = std::chrono::steady_clock::now();
        surrogate::set_tier(surrogate::Tier::on);
        const auto big = mc.run_seeded(1'000'000, 2026, 0.05, &pool);
        surrogate::clear_tier();
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        std::cout << "surrogate tier, 1e6 trials in " << ConsoleTable::num(secs, 3)
                  << " s: f0 " << ConsoleTable::si(big.f0_mean_hz, 4, "Hz") << " +/- "
                  << ConsoleTable::si(big.f0_sigma_hz, 3, "Hz") << ", yield "
                  << ConsoleTable::num(100.0 * big.yield, 4) << "%\n";
    }

    // 3c. A small fabricated array, each element simulated end-to-end
    // (fabrication sample -> closed-loop oscillator -> counter readout),
    // sharded per element over the same pool.
    core::ResonantSensorConfig array_sensor;
    array_sensor.oversample = 16.0;
    array_sensor.counter_gate = Time{0.02};
    array::ArrayConfig array_cfg;
    array_cfg.rows = 1;
    array_cfg.cols = 4;
    array_cfg.seed = 2026;
    const array::ArrayGrid array_grid(array_cfg, mc, &pool);
    array::CharacterizeConfig characterize_cfg;
    characterize_cfg.run_duration = Time{0.045};
    const auto sweep = array::characterize(array_grid, array_sensor, characterize_cfg, &pool);
    const auto summary = array::summarize(sweep);
    std::cout << "array sweep: " << summary.measured << "/" << summary.elements
              << " elements locked, mean readout "
              << ConsoleTable::si(summary.measured_mean_hz, 4, "Hz") << ", worst |error| "
              << ConsoleTable::num(100.0 * summary.worst_rel_error, 3) << "%\n\n";

    // 4. Bring up a sensor from a fabricated die.
    for (const auto& d : dies) {
        if (!d.device.functional) continue;
        auto sensor =
            core::BiosensorChip::from_fabricated(core::ResonantSensorConfig{}, d.device,
                                                 Rng(3));
        if (!sensor) continue;
        const auto ms = sensor->run(Time{0.3});
        std::cout << "die at (" << d.x_mm << ", " << d.y_mm << ") mm: fabricated f0 "
                  << ConsoleTable::si(d.device.resonance.value(), 4, "Hz")
                  << ", oscillator locks at "
                  << (ms.empty() ? std::string("(no lock)")
                                 : ConsoleTable::si(ms.back().frequency_hz, 4, "Hz"))
                  << '\n';
        break;
    }
    return 0;
}
