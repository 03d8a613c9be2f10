// array::summarize's zeros contract (regression for the NaN-poisoning case):
// well-defined zeros — not NaN — when nothing measures, and a NaN-poisoned
// readout (fault-injected loop) must not contaminate the aggregate moments.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "array/characterize.hpp"

namespace {

using namespace cbs;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ArrayCharacterize, SummarizeZerosWhenNothingMeasures) {
    const auto empty = array::summarize({});
    EXPECT_EQ(empty.elements, 0u);
    EXPECT_EQ(empty.measured, 0u);
    EXPECT_EQ(bits(empty.measured_mean_hz), bits(0.0));
    EXPECT_EQ(bits(empty.measured_sigma_hz), bits(0.0));
    EXPECT_EQ(bits(empty.worst_rel_error), bits(0.0));

    // Functional sites that never completed a counter gate.
    std::vector<array::SiteResult> unmeasured(3);
    for (std::size_t i = 0; i < unmeasured.size(); ++i) {
        unmeasured[i].index = i;
        unmeasured[i].functional = true;
    }
    const auto s = array::summarize(unmeasured);
    EXPECT_EQ(s.functional, 3u);
    EXPECT_EQ(s.measured, 0u);
    EXPECT_EQ(bits(s.measured_mean_hz), bits(0.0));
    EXPECT_EQ(bits(s.measured_sigma_hz), bits(0.0));
    EXPECT_EQ(bits(s.worst_rel_error), bits(0.0));
}

TEST(ArrayCharacterize, SummarizeExcludesNonFiniteReadouts) {
    std::vector<array::SiteResult> results(3);
    for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].index = i;
        results[i].functional = true;
        results[i].measured = true;
        results[i].expected_hz = 1e6;
    }
    results[0].measured_hz = 1.001e6;
    results[1].measured_hz = std::numeric_limits<double>::quiet_NaN();
    results[2].measured_hz = std::numeric_limits<double>::infinity();
    const auto s = array::summarize(results);
    EXPECT_EQ(s.measured, 1u);  // only the finite readout counts
    EXPECT_DOUBLE_EQ(s.measured_mean_hz, 1.001e6);
    EXPECT_DOUBLE_EQ(s.measured_sigma_hz, 0.0);
    EXPECT_TRUE(std::isfinite(s.worst_rel_error));
    EXPECT_NEAR(s.worst_rel_error, 1e-3, 1e-12);

    // All-NaN: back to the exact-zeros contract.
    results[0].measured_hz = std::numeric_limits<double>::quiet_NaN();
    results[2].measured_hz = std::numeric_limits<double>::quiet_NaN();
    const auto all_nan = array::summarize(results);
    EXPECT_EQ(all_nan.measured, 0u);
    EXPECT_EQ(bits(all_nan.measured_mean_hz), bits(0.0));
    EXPECT_EQ(bits(all_nan.measured_sigma_hz), bits(0.0));
    EXPECT_EQ(bits(all_nan.worst_rel_error), bits(0.0));
}

}  // namespace
