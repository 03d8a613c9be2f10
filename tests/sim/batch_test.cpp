// The CBS_BATCH override plumbing of sim/batch.hpp.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <cstddef>

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

}  // namespace
