// Repeat-run determinism and scaling stress for the exec layer. These run
// under `ctest -C stress` (and in the ThreadSanitizer CI job), not in the
// default tier-1 suite: they repeat heavy workloads many times to shake
// out scheduling-dependent bugs, and the speedup check needs real cores.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "array/characterize.hpp"
#include "array/grid.hpp"
#include "array/scan.hpp"
#include "exec/threadpool.hpp"
#include "fab/montecarlo.hpp"
#include "mech/geometry.hpp"

namespace {

using namespace cbs;
using cbs::exec::ThreadPool;

fab::ProcessMonteCarlo make_mc() {
    return fab::ProcessMonteCarlo(mech::resonant_default(), fab::KohEtchConfig{},
                                  fab::ProcessVariation{}, fab::EtchMode::electrochemical_stop);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ExecStress, RepeatedParallelMonteCarloBitIdentical) {
    const auto mc = make_mc();
    ThreadPool pool(8);
    const auto first = mc.run_seeded(20000, 99, 0.05, &pool);
    for (int rep = 0; rep < 10; ++rep) {
        const auto again = mc.run_seeded(20000, 99, 0.05, &pool);
        ASSERT_EQ(bits(first.f0_mean_hz), bits(again.f0_mean_hz)) << "rep " << rep;
        ASSERT_EQ(bits(first.f0_sigma_hz), bits(again.f0_sigma_hz)) << "rep " << rep;
        ASSERT_EQ(bits(first.thickness_sigma_m), bits(again.thickness_sigma_m)) << "rep " << rep;
        ASSERT_EQ(bits(first.yield), bits(again.yield)) << "rep " << rep;
    }
}

TEST(ExecStress, RepeatedArraySweepBitIdentical) {
    const auto mc = make_mc();
    core::ResonantSensorConfig sensor;
    sensor.oversample = 16.0;
    sensor.counter_gate = Time{0.02};
    array::ArrayConfig grid_cfg;
    grid_cfg.rows = 1;
    grid_cfg.cols = 6;
    grid_cfg.seed = 7;
    array::CharacterizeConfig ch;
    ch.run_duration = Time{0.045};
    ThreadPool pool(8);
    auto sweep = [&] {
        const array::ArrayGrid grid(grid_cfg, mc, &pool);
        return array::characterize(grid, sensor, ch, &pool);
    };
    const auto first = sweep();
    for (int rep = 0; rep < 5; ++rep) {
        const auto again = sweep();
        ASSERT_EQ(first.size(), again.size());
        for (std::size_t i = 0; i < first.size(); ++i) {
            ASSERT_EQ(bits(first[i].measured_hz), bits(again[i].measured_hz))
                << "rep " << rep << " element " << i;
        }
    }
}

TEST(ExecStress, ConcurrentSubmittersStayDeterministic) {
    const auto mc = make_mc();
    ThreadPool pool(4);
    const auto reference = mc.run_seeded(4000, 5, 0.05, nullptr);
    std::vector<std::thread> submitters;
    for (int s = 0; s < 3; ++s) {
        submitters.emplace_back([&] {
            for (int rep = 0; rep < 3; ++rep) {
                const auto r = mc.run_seeded(4000, 5, 0.05, &pool);
                ASSERT_EQ(bits(reference.f0_mean_hz), bits(r.f0_mean_hz));
            }
        });
    }
    for (auto& t : submitters) t.join();
}

TEST(ExecStress, RepeatedParallelArrayScanBitIdentical) {
    const auto mc = make_mc();
    array::ArrayConfig gcfg;
    gcfg.rows = 8;
    gcfg.cols = 8;
    gcfg.seed = 33;
    gcfg.reference_columns = {7};
    array::ArrayGrid grid(gcfg, mc, nullptr);
    grid.set_concentration(MolarConcentration{1e-8});
    grid.advance_binding(Time{60.0});
    array::ScanConfig cfg;
    cfg.noise_density = VoltageNoiseDensity{20e-9};
    cfg.neighbor_coupling = 0.02;
    cfg.log_scan = false;
    const array::ScanController controller(grid, cfg);
    const auto serial = controller.scan(nullptr);
    ThreadPool pool(8);
    for (int rep = 0; rep < 10; ++rep) {
        const auto again = controller.scan(&pool);
        ASSERT_EQ(serial.readings.size(), again.readings.size());
        for (std::size_t i = 0; i < serial.readings.size(); ++i) {
            ASSERT_EQ(bits(serial.readings[i].raw_v), bits(again.readings[i].raw_v))
                << "rep " << rep << " site " << i;
            ASSERT_EQ(bits(serial.readings[i].compensated_v),
                      bits(again.readings[i].compensated_v))
                << "rep " << rep << " site " << i;
        }
    }
}

// Acceptance bar: >= 3x over serial at 10k trials on >= 4 cores. Skipped
// on smaller machines, where there is nothing to measure.
TEST(ExecStress, ParallelMonteCarloSpeedsUpOnMulticore) {
    if (std::thread::hardware_concurrency() < 4) {
        GTEST_SKIP() << "needs >= 4 hardware threads, have "
                     << std::thread::hardware_concurrency();
    }
    const auto mc = make_mc();
    using clock = std::chrono::steady_clock;
    constexpr std::size_t kTrials = 10000;

    // Warm up (page-in, frequency scaling), then take the best of 3.
    (void)mc.run_seeded(kTrials, 3, 0.05, nullptr);
    auto best = [&](auto&& fn) {
        double best_s = 1e100;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = clock::now();
            fn();
            best_s = std::min(best_s, std::chrono::duration<double>(clock::now() - t0).count());
        }
        return best_s;
    };
    const double serial_s = best([&] { (void)mc.run_seeded(kTrials, 3, 0.05, nullptr); });
    ThreadPool pool(4);
    const double parallel_s = best([&] { (void)mc.run_seeded(kTrials, 3, 0.05, &pool); });
    EXPECT_GE(serial_s / parallel_s, 3.0)
        << "serial " << serial_s << " s, parallel " << parallel_s << " s";
}

// Same bar for the array scan loop: rows shard over the pool, so a
// 100x100 grid with a deep dwell should scale near-linearly on 4 cores.
TEST(ExecStress, ParallelArrayScanSpeedsUpOnMulticore) {
    if (std::thread::hardware_concurrency() < 4) {
        GTEST_SKIP() << "needs >= 4 hardware threads, have "
                     << std::thread::hardware_concurrency();
    }
    const auto mc = make_mc();
    array::ArrayConfig gcfg;
    gcfg.rows = 100;
    gcfg.cols = 100;
    gcfg.seed = 17;
    gcfg.reference_columns = {99};
    array::ArrayGrid grid(gcfg, mc, nullptr);
    grid.set_concentration(MolarConcentration{1e-8});
    grid.advance_binding(Time{60.0});
    array::ScanConfig cfg;
    cfg.noise_density = VoltageNoiseDensity{20e-9};
    cfg.neighbor_coupling = 0.02;
    cfg.log_scan = false;
    const array::ScanController controller(grid, cfg);

    using clock = std::chrono::steady_clock;
    (void)controller.scan(nullptr);  // warm up
    auto best = [&](auto&& fn) {
        double best_s = 1e100;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = clock::now();
            fn();
            best_s = std::min(best_s, std::chrono::duration<double>(clock::now() - t0).count());
        }
        return best_s;
    };
    const double serial_s = best([&] { (void)controller.scan(nullptr); });
    ThreadPool pool(4);
    const double parallel_s = best([&] { (void)controller.scan(&pool); });
    EXPECT_GE(serial_s / parallel_s, 3.0)
        << "serial " << serial_s << " s, parallel " << parallel_s << " s";
}

}  // namespace
