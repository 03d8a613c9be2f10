// Chebyshev-series surrogates: fit once at Chebyshev-Gauss nodes, evaluate
// millions of times.
//
// ChebyshevTensor3 is a 3D tensor-product interpolant over a box: the
// Monte-Carlo resonance surrogate in z-space (DESIGN.md §14).
//
// Fitting samples f at the Chebyshev-Gauss nodes x_k = cos(pi (k+1/2) / n)
// and recovers coefficients by the discrete cosine transform, which is the
// discrete orthogonality projection — no linear solve, unconditionally
// stable. For analytic f the coefficients decay geometrically, so the
// magnitude of the trailing coefficients (`truncation_estimate`) is a
// usable a-posteriori error bound; callers that need a guarantee validate
// against full evaluations on an off-node grid (surrogate::FitReport).
//
// Evaluation contract: `eval` computes the tensor basis with an explicit
// std::fma recurrence and accumulates in a fixed coefficient order;
// `eval_many` dispatches to an AVX2+FMA kernel at runtime that performs the
// SAME operations per lane in the SAME order, so scalar and vector paths
// are bit-identical — results never depend on the CPU, batch grouping, or
// thread count. This is what lets the Monte-Carlo determinism contract
// (DESIGN.md §8) extend to the surrogate tier.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

namespace cbs::util {

/// The k-th Chebyshev-Gauss node of [lo, hi] for an n-point fit:
/// 0.5 (lo + hi) + 0.5 (hi - lo) cos(pi (k + 1/2) / n). Requires k < n.
[[nodiscard]] double chebyshev_node(std::size_t k, std::size_t n, double lo, double hi);

/// 3D tensor-product Chebyshev interpolant on a box.
class ChebyshevTensor3 {
public:
    struct Box {
        std::array<double, 3> lo{};
        std::array<double, 3> hi{};
        [[nodiscard]] bool contains(double x0, double x1, double x2) const {
            return x0 >= lo[0] && x0 <= hi[0] && x1 >= lo[1] && x1 <= hi[1] &&
                   x2 >= lo[2] && x2 <= hi[2];
        }
    };

    ChebyshevTensor3() = default;

    /// Fits degrees (d0, d1, d2) — (d0+1)(d1+1)(d2+1) nodes — sampling f at
    /// every tensor node serially.
    static ChebyshevTensor3 fit(const Box& box, const std::array<std::size_t, 3>& degree,
                                const std::function<double(double, double, double)>& f);

    /// Builds from pre-evaluated node values laid out with axis 2 fastest:
    /// values[(i*n1 + j)*n2 + k] = f(node0_i, node1_j, node2_k). Callers
    /// evaluate the (expensive) nodes in parallel and feed results here.
    static ChebyshevTensor3 fit_from_node_values(const Box& box,
                                                 const std::array<std::size_t, 3>& degree,
                                                 const std::vector<double>& values);

    /// Flattened tensor-node coordinates for a (d0, d1, d2) fit on `box`,
    /// in fit_from_node_values order; each entry is one (x0, x1, x2).
    static std::vector<std::array<double, 3>> nodes(const Box& box,
                                                    const std::array<std::size_t, 3>& degree);

    /// Scalar evaluation (basis recurrence and accumulation entirely in
    /// std::fma — the bit-reference for eval_many). Inputs outside the box
    /// are NOT clamped; callers gate with box().contains first.
    [[nodiscard]] double eval(double x0, double x1, double x2) const;

    /// Evaluates n points; out[i] = eval(x0[i], x1[i], x2[i]) bit-for-bit.
    /// Uses a 4-lane AVX2+FMA kernel when the CPU has it (runtime dispatch,
    /// same operation order per lane), the scalar path otherwise.
    void eval_many(const double* x0, const double* x1, const double* x2, double* out,
                   std::size_t n) const;

    /// Max over axes of the L1 mass of the highest-order coefficient slice —
    /// an a-posteriori truncation-error estimate for geometrically-decaying
    /// (analytic) f.
    [[nodiscard]] double truncation_estimate() const;

    [[nodiscard]] const Box& box() const { return box_; }
    [[nodiscard]] const std::array<std::size_t, 3>& size() const { return n_; }
    [[nodiscard]] const std::vector<double>& coefficients() const { return c_; }
    [[nodiscard]] bool empty() const { return c_.empty(); }

private:
    std::vector<double> c_;  ///< c[(i*n1+j)*n2+k] multiplies T_i T_j T_k
    std::array<std::size_t, 3> n_{};  ///< nodes per axis (degree + 1)
    Box box_{};
    std::array<double, 3> scale_{};
    std::array<double, 3> offset_{};
};

}  // namespace cbs::util
