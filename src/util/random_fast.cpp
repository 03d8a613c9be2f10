// Vectorized bulk normal fill (the CBS_FUSE SIMD tier of Rng).
//
// The Marsaglia polar method is two independent phases: (1) generate
// candidate pairs (x, y) in the unit square and reject those outside the
// unit disc — pure engine-word consumption plus exactly-rounded arithmetic;
// (2) transform each accepted pair by mult = sqrt(-2 log r2 / r2). Phase 1
// is replicated here operation for operation with AVX2, and engine-block
// tails and a fill's last few outputs go through the shared scalar
// detail::polar_candidate. This file is compiled with -ffp-contract=off
// (src/CMakeLists.txt): inside the avx2,fma target GCC would otherwise fuse
// r2 = x*x + y*y into an FMA, in the vector sweep and in the inlined scalar
// helper alike, and round r2 differently from fill_raw_normal. Without
// contraction every r2 — and so every rejection decision and the engine
// word stream — is bit-identical to fill_raw_normal. Phase 2 is where the
// speed comes from: a vectorized polynomial log replaces libm, trading the
// last ~2 bits of each draw (|rel err| < 1e-12) for ~2.3x fewer cycles per
// draw. Every accepted pair goes through the same polynomial evaluator —
// including tail pairs, padded to a full vector — so a draw's value is a
// pure function of its engine words, and a sequence of fills is
// bit-identical however it is split into calls.
#include "util/random.hpp"

#include <bit>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define CBS_RANDOM_FAST_X86 1
#endif

namespace cbs {

namespace {

#if defined(CBS_RANDOM_FAST_X86)

bool cpu_has_avx2_fma() {
    static const bool ok =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return ok;
}

// double(u32) for four 32-bit values held in 64-bit lanes, via the
// exponent-offset trick: (2^52 | u) as a double is 2^52 + u exactly
// (u < 2^32), so subtracting 2^52 yields the exact conversion.
__attribute__((target("avx2,fma"))) inline __m256d u32_to_pd(__m256i u) {
    const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000LL);
    const __m256d magic_d = _mm256_set1_pd(0x1p52);
    return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(u, magic_i)), magic_d);
}

// Four lanes of detail::canonical_u64, bit-identical per lane: both
// products scale by powers of two (exact), the single add rounds once,
// and the >= 1.0 correction is the same branchless clamp.
__attribute__((target("avx2,fma"))) inline __m256d canonical4(__m256i w) {
    const __m256d hi = u32_to_pd(_mm256_srli_epi64(w, 32));
    const __m256d lo = u32_to_pd(_mm256_and_si256(w, _mm256_set1_epi64x(0xFFFFFFFFLL)));
    const __m256d r = _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1p-32)),
                                    _mm256_mul_pd(lo, _mm256_set1_pd(0x1p-64)));
    const __m256d ge1 = _mm256_cmp_pd(r, _mm256_set1_pd(1.0), _CMP_GE_OQ);
    return _mm256_blendv_pd(r, _mm256_set1_pd(0x1.fffffffffffffp-1), ge1);
}

// log(x) for x in (0, 1]: split x = m * 2^e with m folded into
// [sqrt(1/2), sqrt(2)), then log m = 2 atanh(s) with s = (m-1)/(m+1)
// evaluated as an odd polynomial in s^2 (7 terms cover |s| < 0.172 to
// ~1e-13 relative), and e * log 2 added in split hi/lo precision.
__attribute__((target("avx2,fma"))) inline __m256d log4(__m256d x) {
    const __m256i bits = _mm256_castpd_si256(x);
    __m256d ed = _mm256_sub_pd(u32_to_pd(_mm256_srli_epi64(bits, 52)),
                               _mm256_set1_pd(1023.0));
    __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
        _mm256_set1_epi64x(0x3FF0000000000000LL)));
    const __m256d fold =
        _mm256_cmp_pd(m, _mm256_set1_pd(1.4142135623730951), _CMP_GT_OQ);
    m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
    ed = _mm256_add_pd(ed, _mm256_and_pd(fold, _mm256_set1_pd(1.0)));
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d s = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
    const __m256d s2 = _mm256_mul_pd(s, s);
    __m256d p = _mm256_set1_pd(2.0 / 15.0);
    p = _mm256_fmadd_pd(p, s2, _mm256_set1_pd(2.0 / 13.0));
    p = _mm256_fmadd_pd(p, s2, _mm256_set1_pd(2.0 / 11.0));
    p = _mm256_fmadd_pd(p, s2, _mm256_set1_pd(2.0 / 9.0));
    p = _mm256_fmadd_pd(p, s2, _mm256_set1_pd(2.0 / 7.0));
    p = _mm256_fmadd_pd(p, s2, _mm256_set1_pd(2.0 / 5.0));
    p = _mm256_fmadd_pd(p, s2, _mm256_set1_pd(2.0 / 3.0));
    p = _mm256_fmadd_pd(p, s2, _mm256_set1_pd(2.0));
    const __m256d logm = _mm256_mul_pd(p, s);
    const __m256d ln2hi = _mm256_set1_pd(0x1.62e42fefa39efp-1);
    const __m256d ln2lo = _mm256_set1_pd(0x1.abc9e3b39803fp-56);
    return _mm256_add_pd(_mm256_fmadd_pd(ed, ln2lo, logm), _mm256_mul_pd(ed, ln2hi));
}

// Left-pack permutation (32-bit lane pairs per double) for each 4-bit
// accept mask: accepted lanes move to the front, order preserved.
alignas(32) constexpr std::uint32_t kPackLut[16][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {2, 3, 0, 1, 4, 5, 6, 7},
    {0, 1, 2, 3, 4, 5, 6, 7}, {4, 5, 0, 1, 2, 3, 6, 7}, {0, 1, 4, 5, 2, 3, 6, 7},
    {2, 3, 4, 5, 0, 1, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {6, 7, 0, 1, 2, 3, 4, 5},
    {0, 1, 6, 7, 2, 3, 4, 5}, {2, 3, 6, 7, 0, 1, 4, 5}, {0, 1, 2, 3, 6, 7, 4, 5},
    {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 4, 5, 6, 7, 2, 3}, {2, 3, 4, 5, 6, 7, 0, 1},
    {0, 1, 2, 3, 4, 5, 6, 7}};

__attribute__((target("avx2,fma"))) void fill_fast_avx2(detail::BulkMt19937_64& e,
                                                        std::span<double> out) {
    constexpr std::size_t kStage = 1024;
    alignas(32) double ys[kStage + 8];
    alignas(32) double r2s[kStage + 8];
    const std::size_t n = out.size();
    std::size_t done = 0;
    while (done < n) {
        // Phase 1: accumulate accepted (y, r2) pairs into the staging
        // arrays. The SIMD sweep runs only while at least 4 more outputs
        // are needed: a sweep accepts at most 4 pairs, so it can never
        // consume words past the last needed accept.
        std::size_t count = 0;
        while (count + 4 <= kStage && n - (done + count) >= 4) {
            const auto words = e.peek_block();
            if (words.size() < 8) {
                // Block tail: too few words left for a vector sweep.
                ys[count] = detail::polar_candidate(e, r2s[count]);
                ++count;
                continue;
            }
            const auto* w = reinterpret_cast<const __m256i*>(words.data());
            const __m256i w0 = _mm256_loadu_si256(w);
            const __m256i w1 = _mm256_loadu_si256(w + 1);
            // Deinterleave consecutive words into (x, y) streams.
            const __m256i xw = _mm256_permute4x64_epi64(
                _mm256_unpacklo_epi64(w0, w1), 0b11011000);
            const __m256i yw = _mm256_permute4x64_epi64(
                _mm256_unpackhi_epi64(w0, w1), 0b11011000);
            const __m256d two = _mm256_set1_pd(2.0), one = _mm256_set1_pd(1.0);
            const __m256d x = _mm256_sub_pd(_mm256_mul_pd(two, canonical4(xw)), one);
            const __m256d y = _mm256_sub_pd(_mm256_mul_pd(two, canonical4(yw)), one);
            // mul/mul/add like polar_candidate (no contraction in this
            // file), or rejection decisions could diverge.
            const __m256d r2 =
                _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y));
            const __m256d ok = _mm256_andnot_pd(
                _mm256_cmp_pd(r2, one, _CMP_GT_OQ),
                _mm256_cmp_pd(r2, _mm256_setzero_pd(), _CMP_NEQ_OQ));
            const int mask = _mm256_movemask_pd(ok);
            const __m256i perm =
                _mm256_load_si256(reinterpret_cast<const __m256i*>(kPackLut[mask]));
            _mm256_storeu_pd(ys + count, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                                             _mm256_castpd_ps(y), perm)));
            _mm256_storeu_pd(r2s + count, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                                              _mm256_castpd_ps(r2), perm)));
            count += static_cast<std::size_t>(
                std::popcount(static_cast<unsigned>(mask)));
            e.advance(8);
        }
        while (count < 4 && done + count < n) {
            ys[count] = detail::polar_candidate(e, r2s[count]);
            ++count;
        }
        // Phase 2: out = y * sqrt(-2 log r2 / r2), all lanes through the
        // same polynomial log (tails padded with r2 = 1, y = 0, results
        // discarded) so a draw's value never depends on batch grouping.
        const __m256d m2 = _mm256_set1_pd(-2.0);
        for (std::size_t i = 0; i < count; i += 4) {
            if (i + 4 > count) {
                for (std::size_t k = count; k < i + 4; ++k) {
                    ys[k] = 0.0;
                    r2s[k] = 1.0;
                }
            }
            const __m256d r2 = _mm256_load_pd(r2s + i);
            const __m256d mult =
                _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(m2, log4(r2)), r2));
            const __m256d v = _mm256_mul_pd(_mm256_load_pd(ys + i), mult);
            if (i + 4 <= count) {
                _mm256_storeu_pd(out.data() + done + i, v);
            } else {
                alignas(32) double tmp[4];
                _mm256_store_pd(tmp, v);
                for (std::size_t k = i; k < count; ++k) out[done + k] = tmp[k - i];
            }
        }
        done += count;
    }
}

#endif  // CBS_RANDOM_FAST_X86

}  // namespace

void Rng::fill_raw_normal_fast(std::span<double> out) {
#if defined(CBS_RANDOM_FAST_X86)
    if (cpu_has_avx2_fma()) {
        fill_fast_avx2(engine_, out);
        return;
    }
#endif
    fill_raw_normal(out);
}

}  // namespace cbs
