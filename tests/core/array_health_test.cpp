// Per-site observability in array characterization: with per_site_probes
// on, every site gets its own probe scope ("<root>.r<row>c<col>.*") so taps,
// watchdogs and fault events stay attributable to the site that raised
// them even when sites shard across ThreadPool workers.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "array/characterize.hpp"
#include "array/grid.hpp"
#include "core/resonant_sensor.hpp"
#include "fab/montecarlo.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"

namespace {

using namespace cbs;

class LevelGuard {
public:
    explicit LevelGuard(obs::Level l) : prev_(obs::level()) { obs::set_level(l); }
    ~LevelGuard() { obs::set_level(prev_); }

private:
    obs::Level prev_;
};

class SpecGuard {
public:
    explicit SpecGuard(std::string spec) : prev_(obs::ProbeRegistry::instance().spec()) {
        obs::ProbeRegistry::instance().set_spec(std::move(spec));
    }
    ~SpecGuard() { obs::ProbeRegistry::instance().set_spec(prev_); }

private:
    std::string prev_;
};

fab::ProcessMonteCarlo make_mc() {
    return fab::ProcessMonteCarlo(mech::resonant_default(), fab::KohEtchConfig{},
                                  fab::ProcessVariation{},
                                  fab::EtchMode::electrochemical_stop);
}

core::ResonantSensorConfig fast_sensor_config() {
    core::ResonantSensorConfig cfg;
    cfg.oversample = 16.0;
    cfg.counter_gate = Time{0.02};
    return cfg;
}

/// Characterizes a 1×2 grid (seed 2026) serially with short runs.
std::vector<array::SiteResult> characterize_pair(const array::CharacterizeConfig& ch) {
    array::ArrayConfig grid_cfg;
    grid_cfg.rows = 1;
    grid_cfg.cols = 2;
    grid_cfg.seed = 2026;
    const array::ArrayGrid grid(grid_cfg, make_mc(), nullptr);
    return array::characterize(grid, fast_sensor_config(), ch, nullptr);
}

TEST(ArrayHealth, PerElementProbesRecordSeparableStreams) {
    const LevelGuard guard(obs::Level::summary);
    const SpecGuard spec("t.arrh.*");
    array::CharacterizeConfig ch;
    ch.run_duration = Time{0.045};
    ch.per_site_probes = true;
    ch.probe_scope = "t.arrh";
    const auto results = characterize_pair(ch);
    ASSERT_EQ(results.size(), 2u);
    auto& reg = obs::ProbeRegistry::instance();
    for (std::size_t e = 0; e < results.size(); ++e) {
        if (!results[e].functional) continue;
        const obs::Probe* loop = reg.find("t.arrh.r0c" + std::to_string(e) + ".loop");
        ASSERT_NE(loop, nullptr) << "site " << e;
        EXPECT_GT(loop->stats().n, 0u) << "site " << e;
        EXPECT_EQ(loop->stats().non_finite, 0u) << "site " << e;
    }
}

TEST(ArrayHealth, FaultEventsAttributeToTheRaisingElement) {
    const LevelGuard guard(obs::Level::summary);
    auto& log = obs::EventLog::instance();
    log.clear();
    // Site (0,0)'s scope carries a fault; site (0,1)'s stays clean. (Raised
    // directly into the log: the attribution path — count_for_prefix per
    // site scope — is what's under test, not the signal physics.)
    log.append({obs::Severity::fault, "range", "t.arrf.r0c0.loop", 123, 9.9, "synthetic"});
    log.append({obs::Severity::warning, "drift", "t.arrf.r0c1.loop", 5, 0.1, "synthetic"});

    array::CharacterizeConfig ch;
    ch.run_duration = Time{0.045};
    ch.per_site_probes = true;
    ch.probe_scope = "t.arrf";
    const auto results = characterize_pair(ch);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GE(results[0].fault_events, 1u);   // the fault lands on site (0,0)
    EXPECT_EQ(results[1].fault_events, 0u);   // a warning is not a fault
    const auto summary = array::summarize(results);
    EXPECT_EQ(summary.faulted, 1u);
    log.clear();
}

TEST(ArrayHealth, FaultEventsStayWithTheirColumnPastTen) {
    const LevelGuard guard(obs::Level::summary);
    auto& log = obs::EventLog::instance();
    log.clear();
    // "t.arrc.r0c1" is a string prefix of "t.arrc.r0c10.loop": the fault
    // raised under column 10 must not be counted for column 1 too.
    log.append({obs::Severity::fault, "range", "t.arrc.r0c10.loop", 7, 9.9, "synthetic"});

    array::ArrayConfig grid_cfg;
    grid_cfg.rows = 1;
    grid_cfg.cols = 11;
    grid_cfg.seed = 2026;
    const array::ArrayGrid grid(grid_cfg, make_mc(), nullptr);
    array::CharacterizeConfig ch;
    ch.run_duration = Time{1e-3};  // attribution only; no counter gate needed
    ch.per_site_probes = true;
    ch.probe_scope = "t.arrc";
    const auto results = array::characterize(grid, fast_sensor_config(), ch, nullptr);
    ASSERT_EQ(results.size(), 11u);
    ASSERT_TRUE(results[1].functional);
    ASSERT_TRUE(results[10].functional);
    EXPECT_EQ(results[1].fault_events, 0u);
    EXPECT_EQ(results[10].fault_events, 1u);
    EXPECT_EQ(array::summarize(results).faulted, 1u);
    log.clear();
}

TEST(ArrayHealth, ProbesOffByDefaultKeepsRegistryLean) {
    const LevelGuard guard(obs::Level::summary);
    array::CharacterizeConfig ch;
    ch.run_duration = Time{0.045};
    ch.probe_scope = "t.arrlean";  // per_site_probes stays false
    const auto results = characterize_pair(ch);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(obs::ProbeRegistry::instance().find("t.arrlean.r0c0.loop"), nullptr);
    for (const auto& r : results) EXPECT_EQ(r.fault_events, 0u);
}

}  // namespace
