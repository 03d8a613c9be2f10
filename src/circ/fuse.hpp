// Chain compilation: collapsing runs of linear blocks into a state-space
// recurrence, behind the CBS_FUSE environment toggle (DESIGN.md §11).
//
// Two tiers:
//   CBS_FUSE=off (default; alias 0) — the legacy per-block path, untouched.
//   CBS_FUSE=on  (aliases: simd, 1) — fused segments step the composed
//                dense recurrence x' = A·x + B·u + f, y = C·x + D·u + e
//                with a runtime-dispatched SIMD kernel (AVX2+FMA where
//                available, portable scalar otherwise). Reassociation
//                changes the last bits: results carry a per-signal
//                tolerance contract instead of bit-identity.
//
// Nonlinear blocks (limiter, chopper, ADC, …) and armed probe taps are
// segment breakpoints: the fused form never crosses them, so every
// externally observable node keeps its exact sample stream.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "circ/linear_spec.hpp"

namespace cbs::obs {
class Probe;
}

namespace cbs::circ {

class Block;

enum class FuseMode { off, simd };

/// Parses a CBS_FUSE value: off|0 -> off, on|1|simd -> simd. Throws
/// std::invalid_argument naming CBS_FUSE and the accepted values for
/// anything else, including the empty string.
[[nodiscard]] FuseMode parse_fuse_mode(std::string_view value);

/// Current fuse mode: the programmatic override if set, else CBS_FUSE
/// through parse_fuse_mode (unset or empty -> off). An invalid CBS_FUSE
/// throws std::invalid_argument from the first call.
[[nodiscard]] FuseMode fuse_mode();

/// Programmatic override (thread-safe), read by every subsequent
/// fuse_mode() call. Tests use this to sweep modes without re-exec.
void set_fuse_mode(FuseMode m);

/// Drops the programmatic override, reverting to the environment value.
void clear_fuse_mode();

/// Dense state-space form of a cascade of LinearSpecs, with affine terms:
///   x' = A·x + B·u + f,   y = C·x + D·u + e
/// States appear in cascade order; `state` holds live pointers into the
/// source blocks so the dense step can load/store the blocks' real state.
/// Rows are padded to a multiple of 4 (stride n4, A stored column-major as
/// n4·n panels) so the SIMD step needs no edge handling.
struct StateSpace {
    std::size_t n = 0;   ///< state count
    std::size_t n4 = 0;  ///< n rounded up to a multiple of 4 (0 when n == 0)
    std::vector<double> a;  ///< n4 x n, column-major: a[j*n4 + i] = A(i,j)
    std::vector<double> b;  ///< n4
    std::vector<double> f;  ///< n4
    std::vector<double> c;  ///< n4
    double d = 1.0;
    double e = 0.0;
    std::vector<double*> state;  ///< n live pointers, slot order
};

/// Composes the cascade into `ss` (reusing its buffers). The matrices are
/// exact functions of the specs' kernel coefficients; the *evaluation* of
/// the recurrence is where reassociation happens.
void build_state_space(std::span<const LinearSpec> specs, StateSpace& ss);

/// One recurrence step on caller-provided padded state buffers x/xn (each
/// ss.n4 long, padding zeroed): returns y and advances x in place.
/// Dispatches to the best kernel for this CPU once per process.
double state_space_step(const StateSpace& ss, double* x, double* xn, double u);

/// Two-phase step for feedback loops, where u only exists at the last
/// moment. prepare computes every u-independent term (xn := f + A·x,
/// returns y_part = e + C·x) — called right after the previous finish, it
/// runs in the shadow of the loop's other serial work instead of on its
/// dependency cycle. finish folds u in with one fused multiply-add per
/// lane (x := xn + b·u) and returns y = y_part + d·u, so the u -> y
/// latency is a single FMA. Association differs from state_space_step
/// (tolerance contract either way).
double state_space_prepare(const StateSpace& ss, const double* x, double* xn);
double state_space_finish(const StateSpace& ss, double* x, const double* xn, double u,
                          double y_part);

/// Loads the live block states into a padded buffer / stores them back.
void load_states(const StateSpace& ss, double* x);
void store_states(const StateSpace& ss, const double* x);

/// Compiled-form cache for a fixed cascade of LinearSpecs run outside a
/// Chain (e.g. the static sensor's post-filter -> offset run): the dense
/// matrices are rebuilt only when the spec coefficients change.
struct SpecRunCache {
    std::vector<LinearSpec> built;
    StateSpace ss;
    bool valid = false;
    std::vector<double> x, xn;  // padded dense-step scratch
};

/// Runs a batch through the compiled form of a spec cascade: one step of
/// the composed dense recurrence per sample (tolerance contract, DESIGN.md
/// §11). Block states are loaded/stored through the specs' live pointers,
/// so interleaving with the legacy path stays coherent.
void fused_specs_process_block(std::span<const LinearSpec> specs, SpecRunCache& cache,
                               std::span<double> inout);

/// Compiled execution plan for a Chain's block list; built lazily, cached
/// by the chain, and invalidated (reset) whenever the block list or probe
/// attachment changes. Opaque outside fuse.cpp.
struct FusePlan;

/// Runs one batch through the compiled form of a chain. `taps` is either
/// empty or parallel to `blocks`; boundaries whose probe is armed split
/// the segmentation so the tapped node's stream materializes exactly.
/// Returns false — leaving `inout` untouched — when the chain has nothing
/// to fuse (no run of 2+ linear blocks), in which case the caller should
/// take the legacy path.
bool fused_chain_process_block(std::span<const std::unique_ptr<Block>> blocks,
                               std::span<obs::Probe* const> taps,
                               std::shared_ptr<FusePlan>& plan,
                               std::span<double> inout);

}  // namespace cbs::circ
