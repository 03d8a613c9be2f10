#include "util/random.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/stats.hpp"

namespace {

using namespace cbs;

TEST(Rng, SameSeedSameSequence) {
    Rng a(99), b(99);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform()) ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, LognormalRelMatchesTargetMoments) {
    Rng rng(17);
    std::vector<double> x(50000);
    for (auto& v : x) v = rng.lognormal_rel(10.0, 0.05);
    EXPECT_NEAR(stats::mean(x), 10.0, 0.05);
    EXPECT_NEAR(stats::stddev(x) / 10.0, 0.05, 0.005);
}

TEST(Rng, ForkProducesIndependentStream) {
    Rng parent(77);
    Rng child = parent.fork();
    // Child stream differs from the parent's continued stream.
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        if (parent.uniform() == child.uniform()) ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, DistributionsMatchLibstdcxxBitwise) {
    // The pinned goldens were generated with libstdc++'s distributions over
    // std::mt19937_64; Rng's in-repo draws must reproduce them bit for bit.
#if defined(__GLIBCXX__)
    for (const std::uint64_t seed : {1ULL, 5489ULL, 2026ULL, 0xdeadbeefULL}) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        const double rel_sigma = 0.07;
        const double s2 = std::log1p(rel_sigma * rel_sigma);
        const double mu = std::log(3.5) - 0.5 * s2;
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.normal(0.25, 1.5)),
                      std::bit_cast<std::uint64_t>(
                          std::normal_distribution<double>(0.25, 1.5)(ref)))
                << "normal draw " << i << " seed " << seed;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.uniform(-2.0, 5.0)),
                      std::bit_cast<std::uint64_t>(
                          std::uniform_real_distribution<double>(-2.0, 5.0)(ref)))
                << "uniform draw " << i << " seed " << seed;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.lognormal_rel(3.5, rel_sigma)),
                      std::bit_cast<std::uint64_t>(
                          std::lognormal_distribution<double>(mu, std::sqrt(s2))(ref)))
                << "lognormal draw " << i << " seed " << seed;
        }
        ASSERT_EQ(rng.raw_word(), ref()) << "seed " << seed;
    }
#else
    GTEST_SKIP() << "reference distributions are libstdc++'s";
#endif
}

TEST(Rng, ZeroSigmaNormalReturnsMeanAndKeepsStream) {
    Rng zero(2026);
    Rng unit(2026);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(zero.normal(4.25, 0.0)),
                  std::bit_cast<std::uint64_t>(4.25))
            << "draw " << i;
        (void)unit.normal(4.25, 1.0);
    }
    EXPECT_EQ(zero.raw_word(), unit.raw_word());
}

}  // namespace
