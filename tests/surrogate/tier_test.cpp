#include "surrogate/tier.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

namespace {

using namespace cbs::surrogate;

// Tests must not assume what CBS_SURROGATE is in the environment (CI runs
// the whole suite under CBS_SURROGATE=check): everything here exercises the
// programmatic overrides and restores them.

TEST(SurrogateTier, SetTierOverridesEnvironment) {
    set_tier(Tier::on);
    EXPECT_EQ(tier(), Tier::on);
    set_tier(Tier::check);
    EXPECT_EQ(tier(), Tier::check);
    set_tier(Tier::off);
    EXPECT_EQ(tier(), Tier::off);
    clear_tier();
}

TEST(SurrogateTier, StrideOverrideAndRestore) {
    set_check_stride(7);
    EXPECT_EQ(check_stride(), 7u);
    set_check_stride(0);         // back to environment/default
    EXPECT_GE(check_stride(), 1u);
}

TEST(SurrogateTier, BudgetOverrideAndRestore) {
    set_error_budget(1e-6);
    EXPECT_DOUBLE_EQ(error_budget(), 1e-6);
    set_error_budget(0.0);       // back to environment/default
    EXPECT_GT(error_budget(), 0.0);
}

TEST(SurrogateTier, SurrogateErrorIsRuntimeError) {
    try {
        throw SurrogateError("spot check failed");
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "spot check failed");
    }
}

/// The message of the std::invalid_argument `parse` throws for `value`
/// (empty when it does not throw).
template <typename Parse>
std::string rejection(Parse parse, std::string_view value) {
    try {
        (void)parse(value);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

TEST(SurrogateTierParse, AcceptsEveryDocumentedTier) {
    EXPECT_EQ(parse_tier("").tier, Tier::off);
    EXPECT_EQ(parse_tier("off").tier, Tier::off);
    EXPECT_EQ(parse_tier("0").tier, Tier::off);
    EXPECT_EQ(parse_tier("on").tier, Tier::on);
    EXPECT_EQ(parse_tier("1").tier, Tier::on);
    const TierSetting check = parse_tier("check");
    EXPECT_EQ(check.tier, Tier::check);
    EXPECT_EQ(check.stride, 32u);
    const TierSetting every_fifth = parse_tier("check:5");
    EXPECT_EQ(every_fifth.tier, Tier::check);
    EXPECT_EQ(every_fifth.stride, 5u);
    EXPECT_EQ(parse_tier("check:1").stride, 1u);
}

// Near misses must throw rather than select some tier: `onn` is not off,
// `checkXYZ` is not check, and a bad stride is not the default 32.
TEST(SurrogateTierParse, RejectsUnknownTiersAndBadStrides) {
    for (const std::string_view bad :
         {"onn", "checkXYZ", "check:", "check:0", "check:-1", "check:+2", "check:2x",
          "check: 2", "check:99999999999999999999999", "ON", "2", " on", "garbage"}) {
        const std::string msg = rejection(parse_tier, bad);
        ASSERT_FALSE(msg.empty()) << "'" << bad << "' must not parse";
        EXPECT_NE(msg.find("CBS_SURROGATE"), std::string::npos) << msg;
        EXPECT_NE(msg.find("off|0|on|1|check|check:N"), std::string::npos) << msg;
    }
}

TEST(SurrogateTierParse, ErrorBudgetIsFinitePositiveOrDefault) {
    EXPECT_DOUBLE_EQ(parse_error_budget(""), 1e-9);
    EXPECT_DOUBLE_EQ(parse_error_budget("1e-6"), 1e-6);
    EXPECT_DOUBLE_EQ(parse_error_budget("0.25"), 0.25);
    for (const std::string_view bad :
         {"abc", "-1", "0", "0.0", "-0", "1e-6x", " 1e-6", "inf", "nan", "1e999"}) {
        const std::string msg = rejection(parse_error_budget, bad);
        ASSERT_FALSE(msg.empty()) << "'" << bad << "' must not parse";
        EXPECT_NE(msg.find("CBS_SURROGATE_EPS"), std::string::npos) << msg;
    }
}

}  // namespace
