#include "circ/fuse.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "circ/block.hpp"
#include "obs/probe.hpp"
#include "util/expect.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define CBS_FUSE_X86 1
#endif

namespace cbs::circ {

// --------------------------------------------------------------- mode knob

namespace {

FuseMode env_fuse_mode() {
    static const FuseMode parsed = [] {
        const char* raw = std::getenv("CBS_FUSE");
        // Set-but-empty reads as unset, like every other CBS_* knob.
        if (raw == nullptr || raw[0] == '\0') return FuseMode::off;
        return parse_fuse_mode(raw);
    }();
    return parsed;
}

// 0 = no override; otherwise FuseMode value + 1.
std::atomic<int>& fuse_override_slot() {
    static std::atomic<int> slot{0};
    return slot;
}

}  // namespace

FuseMode parse_fuse_mode(std::string_view value) {
    if (value == "off" || value == "0") return FuseMode::off;
    if (value == "on" || value == "1" || value == "simd") return FuseMode::simd;
    throw std::invalid_argument("CBS_FUSE=\"" + std::string(value) +
                                "\" is not one of off|0|on|1|simd");
}

FuseMode fuse_mode() {
    const int forced = fuse_override_slot().load(std::memory_order_relaxed);
    return forced != 0 ? static_cast<FuseMode>(forced - 1) : env_fuse_mode();
}

void set_fuse_mode(FuseMode m) {
    fuse_override_slot().store(static_cast<int>(m) + 1, std::memory_order_relaxed);
}

void clear_fuse_mode() { fuse_override_slot().store(0, std::memory_order_relaxed); }

// ---------------------------------------------------------- cascade builder

void build_state_space(std::span<const LinearSpec> specs, StateSpace& ss) {
    std::size_t n = 0;
    for (const LinearSpec& s : specs) n += static_cast<std::size_t>(s.order());
    const std::size_t n4 = (n + 3) & ~std::size_t{3};
    ss.n = n;
    ss.n4 = n4;
    ss.a.assign(n4 * n, 0.0);
    ss.b.assign(n4, 0.0);
    ss.f.assign(n4, 0.0);
    ss.c.assign(n4, 0.0);
    ss.d = 1.0;
    ss.e = 0.0;
    ss.state.clear();
    ss.state.reserve(n);
    if (n4 == 0) {
        // Stateless cascade: compose the gains/affine terms only.
        for (const LinearSpec& s : specs) {
            ss.e = s.c0 * ss.e + (s.kind == LinearSpec::Kind::affine ? s.c1 : 0.0);
            ss.d *= s.c0;
        }
        return;
    }

    // Running description of the cascade output so far, as a function of
    // the global state vector and the cascade input u:
    //   y_so_far = g·x + d·u + e
    std::vector<double> g(n, 0.0);
    double d = 1.0;
    double e = 0.0;
    // A is column-major (a[j*n4 + i]); this helper writes A(i, j).
    auto A = [&](std::size_t i, std::size_t j) -> double& { return ss.a[j * n4 + i]; };
    // Writes state row i = k*(g·x + d·u + e) plus whatever own-state terms
    // the caller adds afterwards.
    auto input_row = [&](std::size_t i, double k) {
        for (std::size_t j = 0; j < n; ++j) A(i, j) = k * g[j];
        ss.b[i] = k * d;
        ss.f[i] = k * e;
    };
    auto scale_output = [&](double k) {
        for (double& gj : g) gj *= k;
        d *= k;
        e *= k;
    };

    std::size_t slot = 0;
    for (const LinearSpec& s : specs) {
        switch (s.kind) {
            case LinearSpec::Kind::gain:
                scale_output(s.c0);
                break;
            case LinearSpec::Kind::affine:
                scale_output(s.c0);
                e += s.c1;
                break;
            case LinearSpec::Kind::onepole_lp: {
                // s' = (1-α)s + α·u_in ; y = s'
                const std::size_t i = slot;
                input_row(i, s.c0);
                A(i, i) += 1.0 - s.c0;
                scale_output(s.c0);
                g[i] += 1.0 - s.c0;
                ss.state.push_back(s.s0);
                slot += 1;
                break;
            }
            case LinearSpec::Kind::onepole_hp: {
                // s' = α·s − α·p + α·u_in ; p' = u_in ; y = s'
                const std::size_t i = slot, p = slot + 1;
                input_row(i, s.c0);
                A(i, i) += s.c0;
                A(i, p) -= s.c0;
                input_row(p, 1.0);
                scale_output(s.c0);
                g[i] += s.c0;
                g[p] -= s.c0;
                ss.state.push_back(s.s0);
                ss.state.push_back(s.s1);
                slot += 2;
                break;
            }
            case LinearSpec::Kind::biquad: {
                // y  = b0·u_in + z1
                // z1' = −a1·z1 + z2 + (b1 − a1·b0)·u_in
                // z2' = −a2·z1 + (b2 − a2·b0)·u_in
                const std::size_t z1 = slot, z2 = slot + 1;
                const double k1 = s.c1 - s.c3 * s.c0;
                const double k2 = s.c2 - s.c4 * s.c0;
                input_row(z1, k1);
                A(z1, z1) -= s.c3;
                A(z1, z2) += 1.0;
                input_row(z2, k2);
                A(z2, z1) -= s.c4;
                scale_output(s.c0);
                g[z1] += 1.0;
                ss.state.push_back(s.s0);
                ss.state.push_back(s.s1);
                slot += 2;
                break;
            }
            case LinearSpec::Kind::differentiator: {
                // y = k·u_in − k·p ; p' = u_in
                const std::size_t p = slot;
                input_row(p, 1.0);
                scale_output(s.c0);
                g[p] -= s.c0;
                ss.state.push_back(s.s0);
                slot += 1;
                break;
            }
        }
    }
    CBS_EXPECTS(slot == n);
    for (std::size_t j = 0; j < n; ++j) ss.c[j] = g[j];
    ss.d = d;
    ss.e = e;
}

void load_states(const StateSpace& ss, double* x) {
    for (std::size_t i = 0; i < ss.n; ++i) x[i] = *ss.state[i];
    for (std::size_t i = ss.n; i < ss.n4; ++i) x[i] = 0.0;
}

void store_states(const StateSpace& ss, const double* x) {
    for (std::size_t i = 0; i < ss.n; ++i) *ss.state[i] = x[i];
}

// ------------------------------------------------------------ step kernels

namespace {

double step_scalar(const StateSpace& ss, double* x, double* xn, double u) {
    const std::size_t n = ss.n, n4 = ss.n4;
    double y = ss.e + ss.d * u;
    for (std::size_t j = 0; j < n; ++j) y += ss.c[j] * x[j];
    for (std::size_t i = 0; i < n4; ++i) xn[i] = ss.f[i] + ss.b[i] * u;
    for (std::size_t j = 0; j < n; ++j) {
        const double xj = x[j];
        const double* col = ss.a.data() + j * n4;
        for (std::size_t i = 0; i < n4; ++i) xn[i] += col[i] * xj;
    }
    for (std::size_t i = 0; i < n4; ++i) x[i] = xn[i];
    return y;
}

#if defined(CBS_FUSE_X86)

__attribute__((target("avx2,fma"))) double step_avx2(const StateSpace& ss, double* x,
                                                     double* xn, double u) {
    const std::size_t n = ss.n, n4 = ss.n4;
    const __m256d uv = _mm256_set1_pd(u);
    // y = e + d·u + C·x  (padding lanes of c are zero).
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < n4; i += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(ss.c.data() + i),
                              _mm256_loadu_pd(x + i), acc);
    }
    const __m128d lo = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
    const double y =
        ss.e + ss.d * u + _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
    // xn = f + b·u + Σ_j x_j · A(:, j), column-major panels of n4 lanes.
    for (std::size_t i = 0; i < n4; i += 4) {
        _mm256_storeu_pd(xn + i, _mm256_fmadd_pd(_mm256_loadu_pd(ss.b.data() + i), uv,
                                                 _mm256_loadu_pd(ss.f.data() + i)));
    }
    for (std::size_t j = 0; j < n; ++j) {
        const __m256d xj = _mm256_set1_pd(x[j]);
        const double* col = ss.a.data() + j * n4;
        for (std::size_t i = 0; i < n4; i += 4) {
            _mm256_storeu_pd(xn + i, _mm256_fmadd_pd(_mm256_loadu_pd(col + i), xj,
                                                     _mm256_loadu_pd(xn + i)));
        }
    }
    for (std::size_t i = 0; i < n4; i += 4) {
        _mm256_storeu_pd(x + i, _mm256_loadu_pd(xn + i));
    }
    return y;
}

#endif  // CBS_FUSE_X86

double prepare_scalar(const StateSpace& ss, const double* x, double* xn) {
    const std::size_t n = ss.n, n4 = ss.n4;
    double y = ss.e;
    for (std::size_t j = 0; j < n; ++j) y += ss.c[j] * x[j];
    for (std::size_t i = 0; i < n4; ++i) xn[i] = ss.f[i];
    for (std::size_t j = 0; j < n; ++j) {
        const double xj = x[j];
        const double* col = ss.a.data() + j * n4;
        for (std::size_t i = 0; i < n4; ++i) xn[i] += col[i] * xj;
    }
    return y;
}

double finish_scalar(const StateSpace& ss, double* x, const double* xn, double u,
                     double y_part) {
    for (std::size_t i = 0; i < ss.n4; ++i) x[i] = xn[i] + ss.b[i] * u;
    return y_part + ss.d * u;
}

#if defined(CBS_FUSE_X86)

__attribute__((target("avx2,fma"))) double prepare_avx2(const StateSpace& ss,
                                                        const double* x, double* xn) {
    const std::size_t n = ss.n, n4 = ss.n4;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < n4; i += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(ss.c.data() + i),
                              _mm256_loadu_pd(x + i), acc);
        _mm256_storeu_pd(xn + i, _mm256_loadu_pd(ss.f.data() + i));
    }
    const __m128d lo = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
    const double y = ss.e + _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
    for (std::size_t j = 0; j < n; ++j) {
        const __m256d xj = _mm256_set1_pd(x[j]);
        const double* col = ss.a.data() + j * n4;
        for (std::size_t i = 0; i < n4; i += 4) {
            _mm256_storeu_pd(xn + i, _mm256_fmadd_pd(_mm256_loadu_pd(col + i), xj,
                                                     _mm256_loadu_pd(xn + i)));
        }
    }
    return y;
}

__attribute__((target("avx2,fma"))) double finish_avx2(const StateSpace& ss, double* x,
                                                       const double* xn, double u,
                                                       double y_part) {
    const __m256d uv = _mm256_set1_pd(u);
    for (std::size_t i = 0; i < ss.n4; i += 4) {
        _mm256_storeu_pd(x + i, _mm256_fmadd_pd(_mm256_loadu_pd(ss.b.data() + i), uv,
                                                _mm256_loadu_pd(xn + i)));
    }
    return y_part + ss.d * u;
}

#endif  // CBS_FUSE_X86

using StepFn = double (*)(const StateSpace&, double*, double*, double);
using PrepareFn = double (*)(const StateSpace&, const double*, double*);
using FinishFn = double (*)(const StateSpace&, double*, const double*, double, double);

StepFn pick_step_fn() {
#if defined(CBS_FUSE_X86)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return &step_avx2;
    }
#endif
    // Portable fallback: plain loops the compiler auto-vectorizes for the
    // target's native width (SSE2 / NEON).
    return &step_scalar;
}

StepFn step_fn() {
    static const StepFn fn = pick_step_fn();
    return fn;
}

PrepareFn prepare_fn() {
#if defined(CBS_FUSE_X86)
    static const PrepareFn fn =
        (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) ? &prepare_avx2
                                                                          : &prepare_scalar;
#else
    static const PrepareFn fn = &prepare_scalar;
#endif
    return fn;
}

FinishFn finish_fn() {
#if defined(CBS_FUSE_X86)
    static const FinishFn fn =
        (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) ? &finish_avx2
                                                                          : &finish_scalar;
#else
    static const FinishFn fn = &finish_scalar;
#endif
    return fn;
}

}  // namespace

double state_space_step(const StateSpace& ss, double* x, double* xn, double u) {
    return step_fn()(ss, x, xn, u);
}

double state_space_prepare(const StateSpace& ss, const double* x, double* xn) {
    return prepare_fn()(ss, x, xn);
}

double state_space_finish(const StateSpace& ss, double* x, const double* xn, double u,
                          double y_part) {
    return finish_fn()(ss, x, xn, u, y_part);
}

void fused_specs_process_block(std::span<const LinearSpec> specs, SpecRunCache& cache,
                               std::span<double> inout) {
    if (!cache.valid || !std::equal(specs.begin(), specs.end(), cache.built.begin(),
                                    cache.built.end())) {
        build_state_space(specs, cache.ss);
        cache.built.assign(specs.begin(), specs.end());
        cache.valid = true;
    }
    cache.x.resize(cache.ss.n4);
    cache.xn.resize(cache.ss.n4);
    load_states(cache.ss, cache.x.data());
    const StepFn fn = step_fn();
    for (double& v : inout) {
        v = fn(cache.ss, cache.x.data(), cache.xn.data(), v);
    }
    store_states(cache.ss, cache.x.data());
}

// ------------------------------------------------------------- chain plans

struct FusePlan {
    struct Segment {
        std::size_t begin = 0;
        std::size_t end = 0;  // one past the last block
        bool fused = false;
        StateSpace ss;  // rebuilt every batch for fused segments
    };

    std::vector<LinearSpec> specs;    // parallel to blocks
    std::vector<char> linear;         // parallel to blocks
    std::vector<Segment> segments;
    std::uint64_t armed_key = ~std::uint64_t{0};
    bool segments_valid = false;
    bool any_fused = false;
    std::vector<double> x, xn;        // padded dense-step scratch
};

namespace {

constexpr std::size_t kMaxPlannedBlocks = 64;

// Splits [0, blocks) into maximal fusable runs: a fused segment is a run of
// 2+ linear blocks not crossing an armed probe boundary; everything else is
// replayed block by block (opaque).
void segment_plan(FusePlan& plan, std::uint64_t armed) {
    plan.segments.clear();
    plan.any_fused = false;
    const std::size_t count = plan.linear.size();
    std::size_t i = 0;
    auto emit = [&](std::size_t begin, std::size_t end) {
        FusePlan::Segment seg;
        seg.begin = begin;
        seg.end = end;
        seg.fused = end - begin >= 2;
        plan.any_fused = plan.any_fused || seg.fused;
        plan.segments.push_back(std::move(seg));
    };
    while (i < count) {
        if (plan.linear[i] == 0) {
            emit(i, i + 1);
            ++i;
            continue;
        }
        std::size_t run_begin = i;
        while (i < count && plan.linear[i] != 0) {
            const bool boundary_armed = (armed >> i) & 1U;
            ++i;
            // An armed tap at this block's output needs the node's stream:
            // cut the run here so the boundary value materializes.
            if (boundary_armed && i < count && plan.linear[i] != 0) {
                emit(run_begin, i);
                run_begin = i;
            }
        }
        emit(run_begin, i);
    }
    plan.armed_key = armed;
    plan.segments_valid = true;
}

}  // namespace

bool fused_chain_process_block(std::span<const std::unique_ptr<Block>> blocks,
                               std::span<obs::Probe* const> taps,
                               std::shared_ptr<FusePlan>& plan,
                               std::span<double> inout) {
    const std::size_t count = blocks.size();
    if (count < 2 || count > kMaxPlannedBlocks) return false;
    if (!plan) plan = std::make_shared<FusePlan>();
    FusePlan& p = *plan;
    // Specs are refilled every batch: coefficients are cheap to copy and
    // some change between batches (VGA control, offset DAC codes), and the
    // fill re-anchors the live state pointers.
    p.specs.resize(count);
    p.linear.resize(count);
    bool any_linear = false;
    for (std::size_t i = 0; i < count; ++i) {
        p.linear[i] = blocks[i]->linear_spec(p.specs[i]) ? 1 : 0;
        any_linear = any_linear || p.linear[i] != 0;
    }
    if (!any_linear) return false;

    std::uint64_t armed = 0;
    if (!taps.empty()) {
        for (std::size_t i = 0; i < count; ++i) {
            if (taps[i]->armed()) armed |= std::uint64_t{1} << i;
        }
    }
    if (!p.segments_valid || p.armed_key != armed) segment_plan(p, armed);
    if (!p.any_fused) return false;

    for (FusePlan::Segment& seg : p.segments) {
        if (!seg.fused) {
            for (std::size_t i = seg.begin; i < seg.end; ++i) {
                blocks[i]->process_block(inout);
                if (!taps.empty()) taps[i]->tap_block(inout);
            }
            continue;
        }
        const std::span<const LinearSpec> specs{p.specs.data() + seg.begin,
                                                seg.end - seg.begin};
        // One dense recurrence step per sample. The matrices are rebuilt
        // per batch (coefficients may have moved); block states are loaded
        // once, stepped in the padded scratch, and stored back so mode
        // switches stay coherent.
        build_state_space(specs, seg.ss);
        p.x.resize(seg.ss.n4);
        p.xn.resize(seg.ss.n4);
        load_states(seg.ss, p.x.data());
        const StepFn fn = step_fn();
        for (double& v : inout) {
            v = fn(seg.ss, p.x.data(), p.xn.data(), v);
        }
        store_states(seg.ss, p.x.data());
        if (!taps.empty()) taps[seg.end - 1]->tap_block(inout);
    }
    return true;
}

}  // namespace cbs::circ
