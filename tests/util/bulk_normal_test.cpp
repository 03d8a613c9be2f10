// Bulk normal generation must be bit-identical to the per-sample normal()
// draws it replaces: `fill_raw_normal` hands back raw N(0,1) variates whose
// `raw * sigma + mean` is exactly normal()'s own final operation, so a
// prefetched sequence reproduces a seeded per-sample sequence bit for bit.
// The fast (SIMD) fill consumes the same words and is a pure function of
// them, so it too is invariant to how a sequence of fills is chunked.
#include "util/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace {

using cbs::Rng;

TEST(BulkNormal, RawTimesSigmaPlusMeanMatchesNormalBitwise) {
    for (const auto seed : {1ULL, 7ULL, 2026ULL}) {
        for (const double sigma : {1.0, 3.7e-9, 42.0}) {
            for (const double mean : {0.0, 0.1}) {
                Rng bulk(seed);
                Rng scalar(seed);
                std::vector<double> raw(1000);
                bulk.fill_raw_normal(raw);
                for (std::size_t i = 0; i < raw.size(); ++i) {
                    const double from_raw = raw[i] * sigma + mean;
                    const double from_scalar = scalar.normal(mean, sigma);
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(from_raw),
                              std::bit_cast<std::uint64_t>(from_scalar))
                        << "draw " << i << " seed " << seed << " sigma " << sigma;
                }
            }
        }
    }
}

TEST(BulkNormal, ChunkedFillsMatchOneBigFill) {
    Rng chunked(99);
    Rng whole(99);
    std::vector<double> a(1024);
    std::vector<double> b(1024);
    whole.fill_raw_normal(b);
    std::span<double> span(a);
    for (std::size_t i = 0; i < a.size(); i += 37) {
        chunked.fill_raw_normal(span.subspan(i, std::min<std::size_t>(37, a.size() - i)));
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
            << "draw " << i;
    }
}

TEST(BulkNormal, BulkEngineWordIdenticalToStdAcrossRefills) {
    // The block-regenerating replica must reproduce std::mt19937_64 word for
    // word from the same seed, across several 312-word refill boundaries.
    for (const auto seed : {5489ULL /* default */, 1ULL, 0xDEADBEEFULL}) {
        std::mt19937_64 ref(seed);
        cbs::detail::BulkMt19937_64 bulk(seed);
        for (int i = 0; i < 2000; ++i) {
            ASSERT_EQ(bulk(), ref()) << "word " << i << " seed " << seed;
        }
    }
}

TEST(BulkNormal, MixedScalarAndBulkDrawsMatchScalarOnlySequence) {
    // An Rng that interleaves bulk fills with scalar draws must produce the
    // same value sequence as one that only calls normal(): fills consume
    // the engine exactly like the same number of normal() calls.
    Rng mixed(123);
    Rng scalar(123);
    std::vector<double> seq_mixed;
    std::vector<double> raw(64);
    mixed.fill_raw_normal(raw);
    seq_mixed.insert(seq_mixed.end(), raw.begin(), raw.end());
    for (int i = 0; i < 5; ++i) seq_mixed.push_back(mixed.normal(0.0, 1.0));
    std::span<double> head(raw.data(), 7);
    mixed.fill_raw_normal(head);
    seq_mixed.insert(seq_mixed.end(), head.begin(), head.end());
    for (const double v : seq_mixed) {
        const double ref = scalar.normal(0.0, 1.0);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(ref));
    }
    // Other draws keep matching after a fill too.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(mixed.uniform(0.0, 1.0)),
              std::bit_cast<std::uint64_t>(scalar.uniform(0.0, 1.0)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(mixed.lognormal_rel(2.0, 0.1)),
              std::bit_cast<std::uint64_t>(scalar.lognormal_rel(2.0, 0.1)));
    ASSERT_EQ(mixed.raw_word(), scalar.raw_word());
}

TEST(BulkNormal, ForkAfterMigrationMatchesScalarFork) {
    // Forking after a fill derives the same child as forking after the
    // equivalent normal() calls, and both parents stay in step.
    Rng filled(77);
    Rng plain(77);
    std::vector<double> raw(10);
    filled.fill_raw_normal(raw);
    for (int i = 0; i < 10; ++i) (void)plain.normal(0.0, 1.0);
    Rng child_a = filled.fork();
    Rng child_b = plain.fork();
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(child_a.normal(0.0, 1.0)),
                  std::bit_cast<std::uint64_t>(child_b.normal(0.0, 1.0)))
            << "child draw " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(filled.normal(0.0, 1.0)),
                  std::bit_cast<std::uint64_t>(plain.normal(0.0, 1.0)))
            << "parent draw " << i;
    }
}

TEST(BulkNormal, ChunkedFastFillsMatchOneBigFastFill) {
    // The fast fill's last (< 4) draws go through the scalar candidate
    // path, the rest through the vector sweep; both must round r2 the same
    // way, so where a fill boundary falls can never move a bit.
    constexpr std::size_t kTotal = 8192;
    Rng whole_rng(7);
    std::vector<double> whole(kTotal);
    whole_rng.fill_raw_normal_fast(whole);
    const std::uint64_t next_word = whole_rng.raw_word();
    for (const std::size_t chunk : {1UL, 3UL, 37UL, 4095UL}) {
        Rng chunked_rng(7);
        std::vector<double> chunked(kTotal);
        const std::span<double> span(chunked);
        for (std::size_t i = 0; i < kTotal; i += chunk) {
            chunked_rng.fill_raw_normal_fast(span.subspan(i, std::min(chunk, kTotal - i)));
        }
        for (std::size_t i = 0; i < kTotal; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(chunked[i]),
                      std::bit_cast<std::uint64_t>(whole[i]))
                << "draw " << i << " chunk " << chunk;
        }
        EXPECT_EQ(chunked_rng.raw_word(), next_word) << "chunk " << chunk;
    }
}

TEST(BulkNormal, FastFillConsumesExactFillWordsWithinTolerance) {
    // Same word stream as the exact fill; values within the 1e-12 relative
    // contract of DESIGN.md §11.
    for (const auto seed : {1ULL, 7ULL, 2026ULL}) {
        Rng exact_rng(seed);
        Rng fast_rng(seed);
        std::vector<double> exact(5000);
        std::vector<double> fast(5000);
        exact_rng.fill_raw_normal(exact);
        fast_rng.fill_raw_normal_fast(fast);
        for (std::size_t i = 0; i < exact.size(); ++i) {
            ASSERT_LE(std::fabs(fast[i] - exact[i]), 1e-12 * std::fabs(exact[i]))
                << "draw " << i << " seed " << seed;
        }
        EXPECT_EQ(fast_rng.raw_word(), exact_rng.raw_word()) << "seed " << seed;
    }
}

TEST(BulkNormal, MomentsAreStandardNormal) {
    Rng rng(7);
    std::vector<double> raw(200000);
    rng.fill_raw_normal(raw);
    double sum = 0.0;
    double sumsq = 0.0;
    for (const double r : raw) {
        sum += r;
        sumsq += r * r;
    }
    const double n = static_cast<double>(raw.size());
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

}  // namespace
