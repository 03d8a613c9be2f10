// The CBS_BATCH parsing and override plumbing of sim/batch.hpp.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace {

using namespace cbs;

/// Restores the environment-derived batch size on scope exit.
struct BatchSizeGuard {
    explicit BatchSizeGuard(std::size_t n) { sim::set_batch_size(n); }
    ~BatchSizeGuard() { sim::set_batch_size(0); }
};

TEST(BatchSize, OverrideAndRevert) {
    {
        BatchSizeGuard guard(5);
        EXPECT_EQ(sim::batch_size(), 5u);
    }
    EXPECT_GE(sim::batch_size(), 1u);  // back to env/default
}

/// The message of the std::invalid_argument parse_batch_size throws for
/// `value` (empty when it does not throw).
std::string rejection(std::string_view value) {
    try {
        (void)sim::parse_batch_size(value);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

TEST(BatchSizeParse, EmptyMeansDefaultAndNumbersAreClamped) {
    EXPECT_EQ(sim::parse_batch_size(""), sim::kDefaultBatchSize);
    EXPECT_EQ(sim::parse_batch_size("1"), 1u);
    EXPECT_EQ(sim::parse_batch_size("64"), 64u);
    EXPECT_EQ(sim::parse_batch_size("1024"), 1024u);
    EXPECT_EQ(sim::parse_batch_size("0"), 1u);
    EXPECT_EQ(sim::parse_batch_size("1048576"), std::size_t{1} << 20);
    EXPECT_EQ(sim::parse_batch_size("1048577"), std::size_t{1} << 20);
    EXPECT_EQ(sim::parse_batch_size("99999999999999999999999"), std::size_t{1} << 20);
}

// Garbage, trailing junk, signs, whitespace and fractions used to fall back
// to the default silently.
TEST(BatchSizeParse, RejectsNonNumbers) {
    for (const std::string_view bad : {"abc", "64x", "x64", "-1", "+8", " 64", "64 ", "6.4"}) {
        const std::string msg = rejection(bad);
        ASSERT_FALSE(msg.empty()) << "'" << bad << "' must not parse";
        EXPECT_NE(msg.find("CBS_BATCH"), std::string::npos) << msg;
    }
}

}  // namespace
