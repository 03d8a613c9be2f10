// Tests of the benchmark's own measurement helpers (ledger.hpp).
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ledger.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, LeavesTenSamplesBeyondAndRecordsTheCount) {
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0);  // 1..100, shuffled order must not matter
    std::swap(v[3], v[97]);
    const Tail t = tail_percentile(v);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
}

TEST(TailPercentile, IsTheHighestSuchPercentileForAnyCount) {
    std::vector<double> v(11);
    std::iota(v.begin(), v.end(), 1.0);
    const Tail t = tail_percentile(v);  // only the minimum has ten above it
    EXPECT_EQ(t.value, 1.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(TailPercentile, StepsDownPastTiesUntilTenAreStrictlyAbove) {
    // 1..9 then eleven 10s: no sample equal to 10 has anything above it.
    std::vector<double> v;
    for (int i = 1; i <= 9; ++i) v.push_back(i);
    for (int i = 0; i < 11; ++i) v.push_back(10.0);
    const Tail t = tail_percentile(v);
    EXPECT_EQ(t.value, 9.0);
    EXPECT_EQ(t.beyond, 11u);
    EXPECT_DOUBLE_EQ(t.percentile, 45.0);
}

TEST(TailPercentile, RefusesTooFewSamples) {
    EXPECT_THROW((void)tail_percentile(std::vector<double>(10, 1.0)), std::invalid_argument);
    EXPECT_THROW((void)tail_percentile(std::vector<double>(30, 1.0)), std::invalid_argument);
    EXPECT_NO_THROW((void)tail_percentile(std::vector<double>{1, 2, 3}, 2));
}

TEST(SelfTimes, SubtractTheUnionOfNestedChildren) {
    Tracer t(true);
    const auto root = t.add("root", 0.0, 10.0, -1);
    const auto a = t.add("child", 1.0, 4.0, root);
    t.add("child", 3.0, 6.0, root);   // overlaps the first child: union [1, 6]
    t.add("grand", 2.0, 3.0, a);      // covers part of the first child only
    t.add("child", 9.0, 12.0, root);  // runs past the parent: clipped to [9, 10]
    const auto self = self_times(t.spans());
    EXPECT_DOUBLE_EQ(self.at("root").seconds, 10.0 - 5.0 - 1.0);
    EXPECT_EQ(self.at("root").calls, 1u);
    EXPECT_DOUBLE_EQ(self.at("child").seconds, (3.0 - 1.0) + 3.0 + 3.0);
    EXPECT_EQ(self.at("child").calls, 3u);
    EXPECT_DOUBLE_EQ(self.at("grand").seconds, 1.0);
}

TEST(Tracer, NestsScopesAndRecordsNothingWhenDisabled) {
    Tracer t(true);
    t.set_op(7);
    {
        const Scope outer(t, "outer");
        const Scope inner(t, "inner");
    }
    { const Scope next(t, "next"); }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, -1);
    EXPECT_EQ(t.spans()[1].op, 7u);
    EXPECT_LE(t.spans()[0].start_s, t.spans()[1].start_s);
    EXPECT_GE(t.spans()[0].end_s, t.spans()[1].end_s);
    const auto self = self_times(t.spans());
    EXPECT_GE(self.at("outer").seconds, 0.0);

    Tracer off(false);
    { const Scope s(off, "x"); }
    EXPECT_TRUE(off.spans().empty());
}

TEST(FailureLedger, CountsAnOperationOnceHoweverManyChecksFail) {
    FailureLedger f;
    f.begin_op();
    EXPECT_TRUE(f.check(true, "fine"));
    f.end_op();
    f.begin_op();
    EXPECT_FALSE(f.check(false, "first"));
    f.check(false, "second");
    f.end_op();
    f.begin_op();
    f.end_op();
    f.begin_op();
    f.check(false, "third");
    f.end_op();
    EXPECT_EQ(f.attempted(), 4u);
    EXPECT_EQ(f.failed(), 2u);
    EXPECT_DOUBLE_EQ(f.fail_frac(), 0.5);
    ASSERT_EQ(f.messages().size(), 3u);
    EXPECT_EQ(f.messages()[0], "first");
    EXPECT_DOUBLE_EQ(FailureLedger{}.fail_frac(), 0.0);
}

TEST(FailureLedger, KeepsOnlyTheFirstFewMessages) {
    FailureLedger f;
    for (int i = 0; i < 20; ++i) {
        f.begin_op();
        f.check(false, "bad");
        f.end_op();
    }
    EXPECT_EQ(f.failed(), 20u);
    EXPECT_EQ(f.messages().size(), 8u);
}

TEST(ResidualFrac, IsOneMinusReplayedCostOverSelfTime) {
    // 10 ns x 1e6 + 2 ns x 5e6 = 20 ms of a 40 ms loop.
    const std::array<LayerTerm, 2> terms = {{{10.0, 1e6}, {2.0, 5e6}}};
    EXPECT_DOUBLE_EQ(residual_frac(terms, 0.04), 0.5);
    EXPECT_DOUBLE_EQ(residual_frac(terms, 0.02), 0.0);
    EXPECT_DOUBLE_EQ(residual_frac(terms, 0.01), -1.0);  // layers cost more than the loop
    EXPECT_DOUBLE_EQ(residual_frac({}, 1.0), 1.0);
    EXPECT_THROW((void)residual_frac(terms, 0.0), std::invalid_argument);
}

TEST(Digest, IsBitwiseAndOrderSensitive) {
    Digest a, b, c, d;
    a.add(1.0);
    a.add(2.0);
    b.add(1.0);
    b.add(2.0);
    c.add(2.0);
    c.add(1.0);
    d.add(-0.0);
    Digest e;
    e.add(0.0);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_NE(a.value(), c.value());
    EXPECT_NE(d.value(), e.value());
}

TEST(Median, HandlesOddAndEvenCounts) {
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_THROW((void)median({}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
