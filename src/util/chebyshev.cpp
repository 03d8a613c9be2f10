#include "util/chebyshev.hpp"

#include <cmath>

#include "util/expect.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define CBS_CHEBYSHEV_X86 1
#endif

namespace cbs::util {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Per-axis node cap: keeps the evaluation basis in fixed stack arrays (the
/// hot path must not allocate). Degree 15 per axis is far beyond what any
/// analytic surrogate needs (coefficients decay geometrically).
constexpr std::size_t kMaxNodes = 16;

/// Forward discrete cosine projection: values at the n Gauss nodes ->
/// Chebyshev coefficients. stride/count address a 1D pencil inside a
/// flattened tensor, so the same kernel fits every axis.
void dct_pencil(const double* in, double* out, std::size_t n, std::size_t stride) {
    for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            s += in[k * stride] *
                 std::cos(kPi * static_cast<double>(j) *
                          (static_cast<double>(k) + 0.5) / static_cast<double>(n));
        }
        const double norm = (j == 0 ? 1.0 : 2.0) / static_cast<double>(n);
        out[j * stride] = norm * s;
    }
}

#if defined(CBS_CHEBYSHEV_X86)

bool cpu_has_avx2_fma() {
    static const bool ok =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return ok;
}

// Four points per sweep; every lane performs exactly the operations of
// ChebyshevTensor3::eval in the same order (fmadd/fmsub mirror std::fma),
// so the results are bit-identical to the scalar path.
__attribute__((target("avx2,fma"))) void eval4_avx2(
    const double* c, const std::size_t* n, const double* scale, const double* offset,
    const double* x0, const double* x1, const double* x2, double* out) {
    __m256d t0[kMaxNodes], t1[kMaxNodes], t2[kMaxNodes];
    const __m256d one = _mm256_set1_pd(1.0);

    const double* xs[3] = {x0, x1, x2};
    __m256d* ts[3] = {t0, t1, t2};
    for (int a = 0; a < 3; ++a) {
        const __m256d x = _mm256_loadu_pd(xs[a]);
        const __m256d u =
            _mm256_fmadd_pd(x, _mm256_set1_pd(scale[a]), _mm256_set1_pd(offset[a]));
        __m256d* t = ts[a];
        t[0] = one;
        if (n[a] > 1) t[1] = u;
        const __m256d two_u = _mm256_add_pd(u, u);
        for (std::size_t j = 2; j < n[a]; ++j) {
            t[j] = _mm256_fmsub_pd(two_u, t[j - 1], t[j - 2]);
        }
    }

    __m256d sum = _mm256_setzero_pd();
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n[0]; ++i) {
        for (std::size_t j = 0; j < n[1]; ++j) {
            const __m256d w = _mm256_mul_pd(t0[i], t1[j]);
            for (std::size_t k = 0; k < n[2]; ++k, ++idx) {
                sum = _mm256_fmadd_pd(_mm256_mul_pd(w, t2[k]),
                                      _mm256_set1_pd(c[idx]), sum);
            }
        }
    }
    _mm256_storeu_pd(out, sum);
}

#endif  // CBS_CHEBYSHEV_X86

}  // namespace

double chebyshev_node(std::size_t k, std::size_t n, double lo, double hi) {
    CBS_EXPECTS(k < n);
    const double u =
        std::cos(kPi * (static_cast<double>(k) + 0.5) / static_cast<double>(n));
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * u;
}

// ---------------------------------------------------------- ChebyshevTensor3

std::vector<std::array<double, 3>> ChebyshevTensor3::nodes(
    const Box& box, const std::array<std::size_t, 3>& degree) {
    const std::size_t n0 = degree[0] + 1, n1 = degree[1] + 1, n2 = degree[2] + 1;
    std::vector<std::array<double, 3>> out;
    out.reserve(n0 * n1 * n2);
    for (std::size_t i = 0; i < n0; ++i) {
        const double a = chebyshev_node(i, n0, box.lo[0], box.hi[0]);
        for (std::size_t j = 0; j < n1; ++j) {
            const double b = chebyshev_node(j, n1, box.lo[1], box.hi[1]);
            for (std::size_t k = 0; k < n2; ++k) {
                out.push_back({a, b, chebyshev_node(k, n2, box.lo[2], box.hi[2])});
            }
        }
    }
    return out;
}

ChebyshevTensor3 ChebyshevTensor3::fit(
    const Box& box, const std::array<std::size_t, 3>& degree,
    const std::function<double(double, double, double)>& f) {
    CBS_EXPECTS(static_cast<bool>(f));
    const auto pts = nodes(box, degree);
    std::vector<double> values(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        values[i] = f(pts[i][0], pts[i][1], pts[i][2]);
    }
    return fit_from_node_values(box, degree, values);
}

ChebyshevTensor3 ChebyshevTensor3::fit_from_node_values(
    const Box& box, const std::array<std::size_t, 3>& degree,
    const std::vector<double>& values) {
    ChebyshevTensor3 t;
    t.box_ = box;
    for (int a = 0; a < 3; ++a) {
        CBS_EXPECTS(box.hi[a] > box.lo[a]);
        t.n_[a] = degree[a] + 1;
        CBS_EXPECTS(t.n_[a] <= kMaxNodes);
        t.scale_[a] = 2.0 / (box.hi[a] - box.lo[a]);
        t.offset_[a] = -(box.lo[a] + box.hi[a]) / (box.hi[a] - box.lo[a]);
    }
    const std::size_t n0 = t.n_[0], n1 = t.n_[1], n2 = t.n_[2];
    CBS_EXPECTS(values.size() == n0 * n1 * n2);
    t.c_ = values;
    // Separable projection: DCT along each axis in turn.
    std::vector<double> tmp(t.c_.size());
    for (std::size_t i = 0; i < n0; ++i) {       // axis 2 pencils
        for (std::size_t j = 0; j < n1; ++j) {
            dct_pencil(t.c_.data() + (i * n1 + j) * n2, tmp.data() + (i * n1 + j) * n2, n2,
                       1);
        }
    }
    for (std::size_t i = 0; i < n0; ++i) {       // axis 1 pencils
        for (std::size_t k = 0; k < n2; ++k) {
            dct_pencil(tmp.data() + i * n1 * n2 + k, t.c_.data() + i * n1 * n2 + k, n1, n2);
        }
    }
    for (std::size_t j = 0; j < n1; ++j) {       // axis 0 pencils
        for (std::size_t k = 0; k < n2; ++k) {
            dct_pencil(t.c_.data() + j * n2 + k, tmp.data() + j * n2 + k, n0, n1 * n2);
        }
    }
    t.c_ = std::move(tmp);
    return t;
}

double ChebyshevTensor3::eval(double x0, double x1, double x2) const {
    CBS_EXPECTS(!c_.empty());
    double t0[kMaxNodes], t1[kMaxNodes], t2[kMaxNodes];
    const double xs[3] = {x0, x1, x2};
    double* ts[3] = {t0, t1, t2};
    for (int a = 0; a < 3; ++a) {
        const double u = std::fma(xs[a], scale_[a], offset_[a]);
        double* t = ts[a];
        t[0] = 1.0;
        if (n_[a] > 1) t[1] = u;
        const double two_u = u + u;
        for (std::size_t j = 2; j < n_[a]; ++j) {
            t[j] = std::fma(two_u, t[j - 1], -t[j - 2]);
        }
    }
    double sum = 0.0;
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n_[0]; ++i) {
        for (std::size_t j = 0; j < n_[1]; ++j) {
            const double w = t0[i] * t1[j];
            for (std::size_t k = 0; k < n_[2]; ++k, ++idx) {
                sum = std::fma(w * t2[k], c_[idx], sum);
            }
        }
    }
    return sum;
}

void ChebyshevTensor3::eval_many(const double* x0, const double* x1, const double* x2,
                                 double* out, std::size_t n) const {
    std::size_t i = 0;
#if defined(CBS_CHEBYSHEV_X86)
    if (cpu_has_avx2_fma()) {
        for (; i + 4 <= n; i += 4) {
            eval4_avx2(c_.data(), n_.data(), scale_.data(), offset_.data(), x0 + i, x1 + i,
                       x2 + i, out + i);
        }
    }
#endif
    for (; i < n; ++i) out[i] = eval(x0[i], x1[i], x2[i]);
}

double ChebyshevTensor3::truncation_estimate() const {
    if (c_.empty()) return 0.0;
    // L1 mass of the highest-order slice along each axis: the classic
    // a-posteriori bound for a tensor interpolant of an analytic function.
    double worst = 0.0;
    const std::size_t n0 = n_[0], n1 = n_[1], n2 = n_[2];
    auto at = [&](std::size_t i, std::size_t j, std::size_t k) {
        return std::abs(c_[(i * n1 + j) * n2 + k]);
    };
    if (n0 > 1) {
        double s = 0.0;
        for (std::size_t j = 0; j < n1; ++j) {
            for (std::size_t k = 0; k < n2; ++k) s += at(n0 - 1, j, k);
        }
        worst = std::max(worst, s);
    }
    if (n1 > 1) {
        double s = 0.0;
        for (std::size_t i = 0; i < n0; ++i) {
            for (std::size_t k = 0; k < n2; ++k) s += at(i, n1 - 1, k);
        }
        worst = std::max(worst, s);
    }
    if (n2 > 1) {
        double s = 0.0;
        for (std::size_t i = 0; i < n0; ++i) {
            for (std::size_t j = 0; j < n1; ++j) s += at(i, j, n2 - 1);
        }
        worst = std::max(worst, s);
    }
    return worst;
}

}  // namespace cbs::util
