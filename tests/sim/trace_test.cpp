// The decimating trace recorder: subsample/average modes, the averaging
// mode's edge cases, and batched appends (push_block).
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/expect.hpp"

namespace {

namespace sim = cbs::sim;
using cbs::sim::Trace;

TEST(TraceTest, SubsampleKeepsEveryNth) {
    Trace tr(3);
    for (int i = 0; i < 10; ++i) tr.push(i, 10.0 * i);
    ASSERT_EQ(tr.size(), 3u);
    EXPECT_DOUBLE_EQ(tr.values()[0], 20.0);  // i=2 (3rd sample)
    EXPECT_DOUBLE_EQ(tr.values()[1], 50.0);
    EXPECT_DOUBLE_EQ(tr.values()[2], 80.0);
}

TEST(TraceTest, AverageModeIntegratesWindow) {
    Trace tr(4, Trace::Mode::average);
    for (int i = 0; i < 8; ++i) tr.push(i, i);  // 0..7
    ASSERT_EQ(tr.size(), 2u);
    EXPECT_DOUBLE_EQ(tr.values()[0], 1.5);  // mean(0..3)
    EXPECT_DOUBLE_EQ(tr.values()[1], 5.5);  // mean(4..7)
}

TEST(TraceTest, ClearEmpties) {
    Trace tr(1);
    tr.push(0.0, 1.0);
    tr.clear();
    EXPECT_TRUE(tr.empty());
}

TEST(TraceTest, DecimationOfOneKeepsAll) {
    Trace tr;
    for (int i = 0; i < 5; ++i) tr.push(i, i);
    EXPECT_EQ(tr.size(), 5u);
}


TEST(TraceAverage, DecimationOfOneStoresEverySampleVerbatim) {
    Trace tr(1, Trace::Mode::average);
    for (int i = 0; i < 5; ++i) tr.push(i, 2.0 * i + 1.0);
    ASSERT_EQ(tr.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(tr.times()[static_cast<std::size_t>(i)], i);
        EXPECT_DOUBLE_EQ(tr.values()[static_cast<std::size_t>(i)], 2.0 * i + 1.0);
    }
}

TEST(TraceAverage, PartialFinalWindowIsDropped) {
    Trace tr(4, Trace::Mode::average);
    for (int i = 0; i < 11; ++i) tr.push(i, i);  // 2 full windows + 3 leftover
    ASSERT_EQ(tr.size(), 2u);
    EXPECT_DOUBLE_EQ(tr.values()[0], 1.5);  // mean(0..3)
    EXPECT_DOUBLE_EQ(tr.values()[1], 5.5);  // mean(4..7)
    // Timestamps are the last sample of each complete window.
    EXPECT_DOUBLE_EQ(tr.times()[0], 3.0);
    EXPECT_DOUBLE_EQ(tr.times()[1], 7.0);
}

TEST(TraceAverage, CompletingTheWindowAfterwardsEmitsIt) {
    Trace tr(4, Trace::Mode::average);
    for (int i = 0; i < 11; ++i) tr.push(i, i);
    tr.push(11, 11.0);  // completes the third window (8,9,10,11)
    ASSERT_EQ(tr.size(), 3u);
    EXPECT_DOUBLE_EQ(tr.values()[2], 9.5);
}

TEST(TraceAverage, ClearResetsTheAccumulator) {
    Trace tr(4, Trace::Mode::average);
    tr.push(0, 100.0);
    tr.push(1, 100.0);
    tr.push(2, 100.0);  // partial window pending
    tr.clear();
    EXPECT_TRUE(tr.empty());
    // A fresh window must not inherit the pending 300.0 accumulation.
    for (int i = 0; i < 4; ++i) tr.push(i, 1.0);
    ASSERT_EQ(tr.size(), 1u);
    EXPECT_DOUBLE_EQ(tr.values()[0], 1.0);
}

TEST(TraceAverage, ClearAlsoResetsTheWindowPhase) {
    Trace tr(3, Trace::Mode::average);
    tr.push(0, 5.0);  // one sample into a window
    tr.clear();
    tr.push(0, 1.0);
    tr.push(1, 2.0);
    EXPECT_EQ(tr.size(), 0u);  // only 2 of 3 samples after clear
    tr.push(2, 3.0);
    ASSERT_EQ(tr.size(), 1u);
    EXPECT_DOUBLE_EQ(tr.values()[0], 2.0);
}

TEST(TraceConstruct, ZeroDecimationRejected) {
    EXPECT_THROW(Trace(0), cbs::ContractViolation);
}

TEST(TracePushBlock, MatchesPerSamplePushAcrossModes) {
    for (const auto mode : {sim::Trace::Mode::subsample, sim::Trace::Mode::average}) {
        for (const std::size_t decimation : {1, 3, 16}) {
            sim::Trace reference(decimation, mode);
            sim::Trace batched(decimation, mode);
            std::vector<double> t(100);
            std::vector<double> v(100);
            for (std::size_t i = 0; i < t.size(); ++i) {
                t[i] = static_cast<double>(i) * 0.25;
                v[i] = static_cast<double>(i % 13) - 6.0;
            }
            for (std::size_t i = 0; i < t.size(); ++i) reference.push(t[i], v[i]);
            const std::span<const double> ts(t);
            const std::span<const double> vs(v);
            for (std::size_t i = 0; i < t.size(); i += 7) {
                const std::size_t n = std::min<std::size_t>(7, t.size() - i);
                batched.push_block(ts.subspan(i, n), vs.subspan(i, n));
            }
            ASSERT_EQ(reference.size(), batched.size());
            for (std::size_t i = 0; i < reference.size(); ++i) {
                EXPECT_EQ(reference.times()[i], batched.times()[i]);
                EXPECT_EQ(reference.values()[i], batched.values()[i]);
            }
        }
    }
}

}  // namespace
