// Exact kernel description of a linear sampled-data block — the unit of
// chain compilation (DESIGN.md §11).
//
// A block that is linear (affine) in its input fills a LinearSpec with a
// kind tag, the coefficients of its *exact* scalar kernel, and live
// pointers into its own state variables. build_state_space() (fuse.hpp)
// composes a cascade of specs into one dense recurrence
// x' = A·x + B·u + f, y = C·x + D·u + e — the reassociated form behind the
// CBS_FUSE SIMD tier — and steps the blocks' real state through the live
// pointers, so fused and legacy paths can interleave freely.
//
// This header is intentionally free of block.hpp so Block can depend on it.
#pragma once

namespace cbs::circ {

struct LinearSpec {
    enum class Kind {
        gain,            ///< y = c0·u                     (order 0)
        affine,          ///< y = c0·u + c1                (order 0)
        onepole_lp,      ///< s += c0·(u − s); y = s       (order 1, s0)
        onepole_hp,      ///< s = c0·(s + u − p); p = u; y = s  (order 2, s0=s, s1=p)
        biquad,          ///< TDF-II, c0..c4 = b0,b1,b2,a1,a2   (order 2, s0=z1, s1=z2)
        differentiator,  ///< y = c0·(u − p); p = u        (order 1, s0=p)
    };

    Kind kind = Kind::gain;
    double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0, c4 = 0.0;
    double* s0 = nullptr;
    double* s1 = nullptr;

    /// Value comparison (coefficients and state anchors) — used by the
    /// compiled-form caches to skip rebuilding unchanged cascades.
    bool operator==(const LinearSpec&) const = default;

    [[nodiscard]] int order() const {
        switch (kind) {
            case Kind::gain:
            case Kind::affine:
                return 0;
            case Kind::onepole_lp:
            case Kind::differentiator:
                return 1;
            case Kind::onepole_hp:
            case Kind::biquad:
                return 2;
        }
        return 0;
    }
};

}  // namespace cbs::circ
