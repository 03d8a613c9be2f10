// CBS_FUSE value parsing: the two tiers' spellings are accepted, anything
// else — the retired `scalar` tier included — fails loudly instead of
// silently selecting the legacy path.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "circ/fuse.hpp"

namespace {

using cbs::circ::FuseMode;
using cbs::circ::parse_fuse_mode;

/// The message of the std::invalid_argument parse_fuse_mode throws for
/// `value` (empty when it does not throw).
std::string rejection(std::string_view value) {
    try {
        (void)parse_fuse_mode(value);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

TEST(FuseModeParse, AcceptsEveryDocumentedValue) {
    EXPECT_EQ(parse_fuse_mode("off"), FuseMode::off);
    EXPECT_EQ(parse_fuse_mode("0"), FuseMode::off);
    EXPECT_EQ(parse_fuse_mode("on"), FuseMode::simd);
    EXPECT_EQ(parse_fuse_mode("1"), FuseMode::simd);
    EXPECT_EQ(parse_fuse_mode("simd"), FuseMode::simd);
}

// The retired `scalar` tier, garbage, near misses and the empty string.
TEST(FuseModeParse, RejectsScalarGarbageAndEmpty) {
    for (const std::string_view bad : {"scalar", "", "garbage", "ON", "2", " on", "simd2"}) {
        const std::string msg = rejection(bad);
        ASSERT_FALSE(msg.empty()) << "'" << bad << "' must not parse";
        EXPECT_NE(msg.find("CBS_FUSE"), std::string::npos) << msg;
        EXPECT_NE(msg.find("off|0|on|1|simd"), std::string::npos) << msg;
    }
}

}  // namespace
