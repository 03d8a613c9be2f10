#include "util/chebyshev.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using cbs::util::chebyshev_node;
using cbs::util::ChebyshevTensor3;

TEST(ChebyshevNode, NodesLieInsideInterval) {
    const std::size_t n = 9;
    for (std::size_t k = 0; k < n; ++k) {
        const double x = chebyshev_node(k, n, 2.0, 3.0);
        EXPECT_GT(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
    // Gauss nodes are interior and symmetric about the midpoint.
    EXPECT_NEAR(chebyshev_node(0, n, -1.0, 1.0), -chebyshev_node(n - 1, n, -1.0, 1.0), 1e-15);
}

TEST(ChebyshevTensor3, ReproducesSeparablePolynomial) {
    const ChebyshevTensor3::Box box{{-1.0, 0.0, 2.0}, {1.0, 4.0, 3.0}};
    auto f = [](double x, double y, double z) {
        return (1.0 + 2.0 * x) * (y * y - y) * (3.0 - z);
    };
    const auto t = ChebyshevTensor3::fit(box, {1, 2, 1}, f);
    for (double x = -1.0; x <= 1.0; x += 0.37) {
        for (double y = 0.0; y <= 4.0; y += 0.81) {
            for (double z = 2.0; z <= 3.0; z += 0.23) {
                EXPECT_NEAR(t.eval(x, y, z), f(x, y, z),
                            1e-11 * std::max(1.0, std::abs(f(x, y, z))));
            }
        }
    }
}

TEST(ChebyshevTensor3, FitsSmoothNonSeparableFunction) {
    const ChebyshevTensor3::Box box{{-1.0, -1.0, -1.0}, {1.0, 1.0, 1.0}};
    auto f = [](double x, double y, double z) { return std::exp(0.3 * x * y - 0.2 * z); };
    const auto t = ChebyshevTensor3::fit(box, {8, 8, 8}, f);
    double err = 0.0;
    for (double x = -1.0; x <= 1.0; x += 0.25) {
        for (double y = -1.0; y <= 1.0; y += 0.25) {
            for (double z = -1.0; z <= 1.0; z += 0.25) {
                err = std::max(err, std::abs(t.eval(x, y, z) - f(x, y, z)));
            }
        }
    }
    EXPECT_LT(err, 1e-10);
}

TEST(ChebyshevTensor3, EvalManyBitIdenticalToScalarEval) {
    // The determinism contract: the batch kernel (AVX2 when the CPU has it)
    // must produce bit-identical results to the scalar reference, for every
    // lane position and for non-multiple-of-4 tails.
    const ChebyshevTensor3::Box box{{-6.0, -6.0, -6.0}, {6.0, 6.0, 6.0}};
    auto f = [](double x, double y, double z) {
        return 3.0e5 + 1.0e4 * x - 70.0 * y * y + 3.0 * z * x - 0.5 * z * z * y;
    };
    const auto t = ChebyshevTensor3::fit(box, {3, 4, 4}, f);
    const std::size_t n = 257;  // odd: exercises the scalar tail
    std::vector<double> x(n), y(n), z(n), out(n);
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    auto next_u = [&s] {
        s += 0x9e3779b97f4a7c15ULL;
        std::uint64_t v = s;
        v ^= v >> 30;
        v *= 0xbf58476d1ce4e5b9ULL;
        v ^= v >> 27;
        return static_cast<double>(v >> 11) * 0x1p-53;
    };
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = 12.0 * next_u() - 6.0;
        y[i] = 12.0 * next_u() - 6.0;
        z[i] = 12.0 * next_u() - 6.0;
    }
    t.eval_many(x.data(), y.data(), z.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const double ref = t.eval(x[i], y[i], z[i]);
        EXPECT_EQ(out[i], ref) << "lane " << i;  // bitwise, not NEAR
    }
}

TEST(ChebyshevTensor3, NodesMatchFitFromNodeValues) {
    const ChebyshevTensor3::Box box{{0.0, -2.0, 1.0}, {1.0, 2.0, 4.0}};
    const std::array<std::size_t, 3> degree{2, 3, 2};
    auto f = [](double x, double y, double z) { return x * y + z * z - 0.1 * x * y * z; };
    const auto direct = ChebyshevTensor3::fit(box, degree, f);
    const auto nodes = ChebyshevTensor3::nodes(box, degree);
    std::vector<double> values(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        values[i] = f(nodes[i][0], nodes[i][1], nodes[i][2]);
    }
    const auto rebuilt = ChebyshevTensor3::fit_from_node_values(box, degree, values);
    ASSERT_EQ(direct.coefficients().size(), rebuilt.coefficients().size());
    for (std::size_t i = 0; i < direct.coefficients().size(); ++i) {
        EXPECT_EQ(direct.coefficients()[i], rebuilt.coefficients()[i]);
    }
}

TEST(ChebyshevTensor3, BoxContains) {
    const ChebyshevTensor3::Box box{{-1.0, 0.0, 5.0}, {1.0, 2.0, 6.0}};
    EXPECT_TRUE(box.contains(0.0, 1.0, 5.5));
    EXPECT_TRUE(box.contains(-1.0, 0.0, 5.0));  // boundary inclusive
    EXPECT_FALSE(box.contains(1.1, 1.0, 5.5));
    EXPECT_FALSE(box.contains(0.0, -0.1, 5.5));
    EXPECT_FALSE(box.contains(0.0, 1.0, 6.1));
}

}  // namespace
