// Deterministic, explicitly-seeded random number generation.
//
// Every stochastic component of the library takes an Rng (or a seed) so that
// simulations, tests and benches are bit-reproducible run to run. The engine
// is MT19937-64 (fully specified by the C++ standard) and the distributions
// are implemented here, so a seeded sequence depends on libm's log/sqrt/exp
// only — not on the standard library's unspecified distribution algorithms.
// They reproduce libstdc++'s std::normal_distribution,
// std::uniform_real_distribution and std::lognormal_distribution over
// std::mt19937_64 bit for bit (tests/util/random_test.cpp), which is the
// toolchain the pinned goldens were generated with.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace cbs {

namespace detail {

/// SplitMix64 finalizer: a bijective avalanche mix, used to turn structured
/// inputs (root seed + stream index) into decorrelated generator seeds.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Exactly-rounded [0, 1) canonical from one 64-bit engine word: the value
/// of `double(u) * 2^-64` computed branch-free from the two 32-bit halves.
/// Scaling by a power of two is exact, so
/// `double(hi)*2^-32 + double(lo)*2^-64` rounds identically to the direct
/// conversion — and matches what libstdc++'s generate_canonical produces
/// for mt19937_64, including the `>= 1.0 -> nextafter(1, 0)` correction.
inline double canonical_u64(std::uint64_t u) noexcept {
    const double hi = static_cast<double>(static_cast<std::uint32_t>(u >> 32));
    const double lo = static_cast<double>(static_cast<std::uint32_t>(u));
    double r = hi * 0x1p-32 + lo * 0x1p-64;
    if (r >= 1.0) r = 0x1.fffffffffffffp-1;
    return r;
}

/// MT19937-64 that twists and tempers its state one whole 312-word block
/// at a time instead of per call. The algorithm is fully specified by the
/// standard, so the output is word-identical to std::mt19937_64 for any
/// seed; regenerating in blocks lets the twist run branch-free
/// (`-(x & 1) & A` instead of a data-dependent branch) and the temper
/// pipeline across words, ~3.5x faster per word than the standard
/// library's lazy per-call path.
class BulkMt19937_64 {
public:
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    explicit BulkMt19937_64(result_type seed = 5489ULL) {
        state_[0] = seed;
        for (std::size_t i = 1; i < kN; ++i) {
            state_[i] = 6364136223846793005ULL * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
        }
    }

    result_type operator()() {
        if (pos_ == kN) refill();
        return out_[pos_++];
    }

    /// Contiguous view of the words remaining in the current regenerated
    /// block (refills first when the block is spent). SIMD consumers read
    /// words in bulk through this window and commit consumption with
    /// advance(), which keeps the stream position word-exact — the whole
    /// point of the fused fill paths is that they consume the identical
    /// word sequence the per-call interface would.
    std::span<const result_type> peek_block() {
        if (pos_ == kN) refill();
        return {out_.data() + pos_, kN - pos_};
    }

    /// Consumes k words previously observed through peek_block().
    void advance(std::size_t k) noexcept { pos_ += std::min(k, kN - pos_); }

private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
    static constexpr std::uint64_t kUpper = 0xFFFFFFFF80000000ULL;
    static constexpr std::uint64_t kLower = 0x7FFFFFFFULL;

    void refill() noexcept {
        std::uint64_t* mt = state_.data();
        for (std::size_t i = 0; i < kN - kM; ++i) {
            const std::uint64_t x = (mt[i] & kUpper) | (mt[i + 1] & kLower);
            mt[i] = mt[i + kM] ^ (x >> 1) ^ (-(x & 1ULL) & kMatrixA);
        }
        for (std::size_t i = kN - kM; i < kN - 1; ++i) {
            const std::uint64_t x = (mt[i] & kUpper) | (mt[i + 1] & kLower);
            mt[i] = mt[i + kM - kN] ^ (x >> 1) ^ (-(x & 1ULL) & kMatrixA);
        }
        const std::uint64_t x = (mt[kN - 1] & kUpper) | (mt[0] & kLower);
        mt[kN - 1] = mt[kM - 1] ^ (x >> 1) ^ (-(x & 1ULL) & kMatrixA);
        for (std::size_t i = 0; i < kN; ++i) {
            std::uint64_t y = mt[i];
            y ^= (y >> 29) & 0x5555555555555555ULL;
            y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
            y ^= (y << 37) & 0xFFF7EEE000000000ULL;
            y ^= y >> 43;
            out_[i] = y;
        }
        pos_ = 0;
    }

    std::array<std::uint64_t, kN> state_{};
    std::array<std::uint64_t, kN> out_{};
    std::size_t pos_ = kN;
};

/// One accepted Marsaglia polar candidate: draws word pairs until (x, y)
/// lies strictly inside the unit disc, stores r2 = x*x + y*y and returns y.
/// Every rejection decision rests on r2, so it must round as mul/mul/add in
/// every caller — the vector fill compiles with FP contraction off so this
/// stays true when it is inlined into FMA-enabled code (random_fast.cpp).
inline double polar_candidate(BulkMt19937_64& engine, double& r2) {
    double x, y;
    do {
        x = 2.0 * canonical_u64(engine()) - 1.0;
        y = 2.0 * canonical_u64(engine()) - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y;
}

/// One raw (unit) normal variate by the Marsaglia polar method, drawing
/// engine words the way a freshly constructed std::normal_distribution
/// does in libstdc++ (every call generates a full rejection-sampled pair
/// and returns `y * mult`; the partner `x * mult` is never used).
inline double raw_normal_polar(BulkMt19937_64& engine) {
    double r2;
    const double y = polar_candidate(engine, r2);
    return y * std::sqrt(-2.0 * std::log(r2) / r2);
}

}  // namespace detail

/// Seeded pseudo-random generator with the distributions the library needs.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed) {}

    /// Deterministic per-task stream: the returned generator is a pure
    /// function of (root_seed, stream) — independent of which thread runs
    /// the task, in what order, or what was drawn before. This is the
    /// determinism contract of the exec layer: Monte-Carlo trial i and
    /// array element i always see the same stream for a given root seed.
    /// Two mix64 rounds decorrelate adjacent indices and adjacent roots.
    static Rng for_stream(std::uint64_t root_seed, std::uint64_t stream) {
        const std::uint64_t z =
            detail::mix64(root_seed + 0x9e3779b97f4a7c15ULL * (stream + 1));
        return Rng(detail::mix64(z ^ 0xd1b54a32d192ed03ULL));
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo = 0.0, double hi = 1.0) {
        return detail::canonical_u64(engine_()) * (hi - lo) + lo;
    }

    /// Gaussian with the given mean and standard deviation (sigma = 0
    /// returns `mean` and still consumes one variate's words).
    double normal(double mean = 0.0, double sigma = 1.0) {
        return detail::raw_normal_polar(engine_) * sigma + mean;
    }

    /// Bulk raw (unit) normal variates: consumes the engine exactly as the
    /// same number of `normal()` calls would, and `out[i] * sigma + mean`
    /// reproduces the i-th `normal(mean, sigma)` result bit for bit (the
    /// scale-and-shift is normal()'s own final operation). This is the
    /// batched signal path's draw source.
    void fill_raw_normal(std::span<double> out) {
        for (double& d : out) d = detail::raw_normal_polar(engine_);
    }

    /// Bulk raw unit normals on the reassociated fast path (the CBS_FUSE
    /// SIMD tier): consumes the engine word-for-word like fill_raw_normal —
    /// the polar method's candidate generation and rejection decisions are
    /// replicated operation for operation, so seeded sequences and stream
    /// positions are untouched — but the accepted pairs' log/sqrt transform
    /// runs through a vectorized polynomial evaluator, so values may differ
    /// from the exact fill in the last bits (|rel err| < 1e-12 per draw;
    /// contract in DESIGN.md §11). Values are a pure function of the
    /// consumed words, independent of how a sequence of fills is split into
    /// calls. Falls back to the exact fill when the CPU lacks AVX2+FMA.
    void fill_raw_normal_fast(std::span<double> out);

    /// Log-normal parameterized by the mean and relative sigma of the
    /// *underlying value* (not of its logarithm); handy for process spreads.
    double lognormal_rel(double mean, double rel_sigma) {
        const double cv2 = rel_sigma * rel_sigma;
        const double s2 = std::log1p(cv2);
        const double mu = std::log(mean) - 0.5 * s2;
        return std::exp(detail::raw_normal_polar(engine_) * std::sqrt(s2) + mu);
    }

    /// Derive an independent child generator (for per-component streams).
    Rng fork() { return Rng(raw_word()); }

    /// One raw 64-bit engine word (the word the distributions consume).
    std::uint64_t raw_word() { return engine_(); }

private:
    detail::BulkMt19937_64 engine_;
};

}  // namespace cbs
