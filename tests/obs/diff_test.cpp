#include "obs/diff.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/json.hpp"

namespace {

using namespace cbs;

obs::DiffResult diff_strings(const std::string& baseline, const std::string& current,
                             const obs::DiffOptions& opts = {}) {
    return obs::diff_documents(json::Value::parse(baseline), json::Value::parse(current),
                               opts);
}

TEST(ObsDiff, BenchmarkTimeIncreaseBeyondThresholdRegresses) {
    const std::string base = R"({"benchmarks": [
        {"name": "bm_chain", "real_time": 100.0, "items_per_second": 1e6}]})";
    const std::string cur = R"({"benchmarks": [
        {"name": "bm_chain", "real_time": 125.0, "items_per_second": 1e6}]})";
    const auto r = diff_strings(base, cur, {.threshold = 0.10, .only = {}});
    EXPECT_EQ(r.regressions, 1u);
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_EQ(r.rows[0].name, "bm_chain real_time");
    EXPECT_TRUE(r.rows[0].regression);
    EXPECT_NEAR(r.rows[0].rel_delta, 0.25, 1e-12);
    EXPECT_FALSE(r.rows[1].regression);  // items/s unchanged
}

TEST(ObsDiff, ThroughputDropRegressesButTimeDropDoesNot) {
    const std::string base = R"({"benchmarks": [
        {"name": "bm", "real_time": 100.0, "items_per_second": 1e6,
         "bytes_per_second": 8e6}]})";
    const std::string cur = R"({"benchmarks": [
        {"name": "bm", "real_time": 50.0, "items_per_second": 5e5,
         "bytes_per_second": 4e6}]})";
    const auto r = diff_strings(base, cur, {.threshold = 0.10, .only = {}});
    // Faster time is an improvement; halved throughput regresses twice.
    EXPECT_EQ(r.regressions, 2u);
    EXPECT_FALSE(r.rows[0].regression);  // real_time down = better
}

TEST(ObsDiff, ChangesWithinThresholdAreOk) {
    const std::string base = R"({"benchmarks": [
        {"name": "bm", "real_time": 100.0}]})";
    const std::string cur = R"({"benchmarks": [
        {"name": "bm", "real_time": 105.0}]})";
    EXPECT_EQ(diff_strings(base, cur, {.threshold = 0.10, .only = {}}).regressions, 0u);
    EXPECT_EQ(diff_strings(base, cur, {.threshold = 0.01, .only = {}}).regressions, 1u);
}

TEST(ObsDiff, MissingAndNewMetricsAreUnmatchedNotRegressions) {
    const std::string base = R"({"benchmarks": [
        {"name": "bm_old", "real_time": 10.0}]})";
    const std::string cur = R"({"benchmarks": [
        {"name": "bm_new", "real_time": 10.0}]})";
    const auto r = diff_strings(base, cur);
    EXPECT_EQ(r.regressions, 0u);
    EXPECT_EQ(r.missing, 2u);
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_TRUE(r.rows[0].in_baseline);
    EXPECT_FALSE(r.rows[0].in_current);
    EXPECT_FALSE(r.rows[1].in_baseline);
    EXPECT_TRUE(r.rows[1].in_current);
}

TEST(ObsDiff, ReportProbeNonFiniteHasZeroTolerance) {
    const std::string base = R"({"probes": [
        {"name": "static.adc", "n": 1000, "non_finite": 0,
         "mean": 0.5, "stddev": 0.1}]})";
    const std::string cur = R"({"probes": [
        {"name": "static.adc", "n": 1000, "non_finite": 1,
         "mean": 0.5, "stddev": 0.1}]})";
    // One NaN out of a thousand samples is far below any relative
    // threshold, but non_finite regresses on ANY increase.
    const auto r = diff_strings(base, cur, {.threshold = 0.50, .only = {}});
    EXPECT_EQ(r.regressions, 1u);
    bool found = false;
    for (const auto& row : r.rows) {
        if (row.name == "probe static.adc non_finite") {
            found = true;
            EXPECT_TRUE(row.regression);
        } else {
            EXPECT_FALSE(row.regression);
        }
    }
    EXPECT_TRUE(found);
}

TEST(ObsDiff, ReportProcessMeanIncreaseRegresses) {
    const std::string base = R"({
        "processes": [{"name": "readout", "ticks": 100, "mean_us": 10.0,
                       "p99_us": 20.0}],
        "counters": {"sim.ticks": 100}})";
    const std::string cur = R"({
        "processes": [{"name": "readout", "ticks": 100, "mean_us": 20.0,
                       "p99_us": 21.0}],
        "counters": {"sim.ticks": 100}})";
    const auto r = diff_strings(base, cur, {.threshold = 0.25, .only = {}});
    EXPECT_EQ(r.regressions, 1u);  // mean doubled; p99 +5% within threshold
    // Counters have no harmful direction: never a regression.
    for (const auto& row : r.rows) {
        if (row.name == "counter sim.ticks") { EXPECT_FALSE(row.regression); }
    }
}

TEST(ObsDiff, ZeroTickProcessRowsCarryNoMetrics) {
    const std::string base = R"({"processes": [
        {"name": "idle", "ticks": 0, "mean_us": 0.0, "p99_us": 0.0}]})";
    const auto r = diff_strings(base, base);
    EXPECT_TRUE(r.rows.empty());
}

TEST(ObsDiff, ExitCodeHonorsWarnOnly) {
    const std::string base = R"({"benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const std::string cur = R"({"benchmarks": [{"name": "bm", "real_time": 100.0}]})";
    const auto r = diff_strings(base, cur);
    EXPECT_EQ(r.exit_code({.warn_only = false, .only = {}}), 1);
    EXPECT_EQ(r.exit_code({.warn_only = true, .only = {}}), 0);
    const auto clean = diff_strings(base, base);
    EXPECT_EQ(clean.exit_code({.warn_only = false, .only = {}}), 0);
}

TEST(ObsDiff, RenderListsEveryRowAndSummary) {
    const std::string base = R"({"benchmarks": [
        {"name": "bm_a", "real_time": 10.0}, {"name": "bm_gone", "real_time": 1.0}]})";
    const std::string cur = R"({"benchmarks": [{"name": "bm_a", "real_time": 100.0}]})";
    const obs::DiffOptions opts{.threshold = 0.10, .only = {}};
    const auto rendered = diff_strings(base, cur, opts).render(opts);
    EXPECT_NE(rendered.find("bm_a real_time"), std::string::npos);
    EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);
    EXPECT_NE(rendered.find("missing"), std::string::npos);
    EXPECT_NE(rendered.find("1 regression(s)"), std::string::npos);
    EXPECT_NE(rendered.find("10%"), std::string::npos);  // threshold echoed
}

TEST(ObsDiff, DiffFilesParsesBothInputs) {
    const std::string base_path = ::testing::TempDir() + "cbs_diff_base.json";
    const std::string cur_path = ::testing::TempDir() + "cbs_diff_cur.json";
    {
        std::ofstream(base_path) << R"({"benchmarks": [{"name": "bm", "real_time": 10.0}]})";
        std::ofstream(cur_path) << R"({"benchmarks": [{"name": "bm", "real_time": 10.5}]})";
    }
    const auto r = obs::diff_files(base_path, cur_path, {.threshold = 0.10, .only = {}});
    EXPECT_EQ(r.regressions, 0u);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_NEAR(r.rows[0].rel_delta, 0.05, 1e-12);
    std::remove(base_path.c_str());
    std::remove(cur_path.c_str());
    EXPECT_THROW(obs::diff_files(base_path, cur_path, {}), json::ParseError);
}

TEST(ObsDiff, NonObjectInputThrows) {
    EXPECT_THROW(diff_strings("[1, 2]", "{}"), json::ParseError);
}

// Benchmark-context guard: a debug baseline compared against a release run
// (or vice versa) is not a perf comparison at all and must fail loudly.

TEST(ObsDiff, BuildTypeMismatchIsFatalEvenWarnOnly) {
    const std::string base = R"({
        "context": {"library_build_type": "release", "num_cpus": 4},
        "benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const std::string cur = R"({
        "context": {"library_build_type": "debug", "num_cpus": 4},
        "benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const auto r = diff_strings(base, cur);
    EXPECT_TRUE(r.context_mismatch);
    ASSERT_FALSE(r.context_notes.empty());
    EXPECT_NE(r.context_notes[0].find("library_build_type"), std::string::npos);
    EXPECT_NE(r.context_notes[0].find("release"), std::string::npos);
    EXPECT_NE(r.context_notes[0].find("debug"), std::string::npos);
    // Fatal regardless of warn-only; only the explicit override clears it.
    EXPECT_EQ(r.exit_code({.warn_only = false, .only = {}}), 2);
    EXPECT_EQ(r.exit_code({.warn_only = true, .only = {}}), 2);
    EXPECT_EQ(r.exit_code({.warn_only = true, .only = {}, .allow_context_mismatch = true}), 0);
}

TEST(ObsDiff, BuildTypeMismatchRendered) {
    const std::string base = R"({
        "context": {"library_build_type": "release"},
        "benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const std::string cur = R"({
        "context": {"library_build_type": "debug"},
        "benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const auto r = diff_strings(base, cur);
    EXPECT_NE(r.render({}).find("CONTEXT MISMATCH"), std::string::npos);
    EXPECT_NE(r.render({.only = {}, .allow_context_mismatch = true}).find("overridden"),
              std::string::npos);
}

TEST(ObsDiff, NumCpusMismatchWarnsButNeverFails) {
    const std::string base = R"({
        "context": {"library_build_type": "release", "num_cpus": 1},
        "benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const std::string cur = R"({
        "context": {"library_build_type": "release", "num_cpus": 8},
        "benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const auto r = diff_strings(base, cur);
    EXPECT_FALSE(r.context_mismatch);
    ASSERT_EQ(r.context_notes.size(), 1u);
    EXPECT_NE(r.context_notes[0].find("num_cpus"), std::string::npos);
    EXPECT_EQ(r.exit_code({}), 0);
    EXPECT_NE(r.render({}).find("num_cpus"), std::string::npos);
}

TEST(ObsDiff, MatchingOrAbsentContextIsClean) {
    const std::string with_ctx = R"({
        "context": {"library_build_type": "release", "num_cpus": 4},
        "benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    const std::string without_ctx =
        R"({"benchmarks": [{"name": "bm", "real_time": 10.0}]})";
    // Identical contexts: clean. One side missing context (RunReport JSON,
    // older exports): nothing to compare, also clean.
    for (const auto& [a, b] : {std::pair{with_ctx, with_ctx},
                               std::pair{with_ctx, without_ctx},
                               std::pair{without_ctx, with_ctx}}) {
        const auto r = diff_strings(a, b);
        EXPECT_FALSE(r.context_mismatch);
        EXPECT_TRUE(r.context_notes.empty());
        EXPECT_EQ(r.exit_code({}), 0);
    }
}

// diff_files diagnostics must name the offending file so a CI log makes the
// failure actionable without re-running anything locally.

TEST(ObsDiff, EmptyFileDiagnosticNamesTheFile) {
    const std::string empty_path = ::testing::TempDir() + "cbs_diff_empty.json";
    const std::string ok_path = ::testing::TempDir() + "cbs_diff_ok.json";
    std::ofstream(empty_path).flush();
    std::ofstream(ok_path) << R"({"benchmarks": [{"name": "bm", "real_time": 1.0}]})";
    try {
        (void)obs::diff_files(empty_path, ok_path, {});
        FAIL() << "expected ParseError";
    } catch (const json::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(empty_path), std::string::npos) << e.what();
    }
    std::remove(empty_path.c_str());
    std::remove(ok_path.c_str());
}

TEST(ObsDiff, MalformedFileDiagnosticNamesTheFile) {
    const std::string bad_path = ::testing::TempDir() + "cbs_diff_bad.json";
    std::ofstream(bad_path) << "{\"benchmarks\": [oops";
    try {
        (void)obs::diff_files(bad_path, bad_path, {});
        FAIL() << "expected ParseError";
    } catch (const json::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(bad_path), std::string::npos) << e.what();
    }
    std::remove(bad_path.c_str());
}

TEST(ObsDiff, ValidJsonOfWrongShapeNamesFileAndShape) {
    const std::string wrong_path = ::testing::TempDir() + "cbs_diff_wrong.json";
    std::ofstream(wrong_path) << R"({"version": 3, "results": []})";
    try {
        (void)obs::diff_files(wrong_path, wrong_path, {});
        FAIL() << "expected ParseError";
    } catch (const json::ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(wrong_path), std::string::npos) << what;
        EXPECT_NE(what.find("not a RunReport or google-benchmark JSON export"),
                  std::string::npos)
            << what;
    }
    std::remove(wrong_path.c_str());
}

}  // namespace
