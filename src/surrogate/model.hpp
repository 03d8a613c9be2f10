// Chebyshev surrogates of steady-state chain outputs (DESIGN.md §14).
//
// Fit once over a validated parameter box, then evaluate millions of
// Monte-Carlo trials at a few dozen fused multiply-adds each. The fit is in
// z-space: each process parameter is expressed through its standard-normal
// driver z, so the box is simply |z_i| <= z_max and the same surrogate
// serves every seed.
//
//   thickness t  = junction_mean + junction_sigma * z1     (etch stop)
//   length L     = L0 + litho_sigma * z2                   (litho bias)
//   modulus E    = E0 * exp(s * z3 - s^2 / 2),
//                  s^2 = log(1 + rel_sigma^2)              (lognormal_rel)
//
// f0 is exactly linear in t (width cancels out of sqrt(E I / rho A)) and
// almost flat in z2/z3 over realistic sigmas, so a (1,4,4)-degree tensor
// reaches ~1e-12 relative error; validation against the full model enforces
// the CBS_SURROGATE_EPS budget and a fit that misses it is *rejected*
// (report().accepted == false), never silently used.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "mech/geometry.hpp"
#include "util/chebyshev.hpp"

namespace cbs::exec {
class ThreadPool;
}

namespace cbs::surrogate {

/// The validated parameter box, in plain doubles so it can key a cache and
/// serialize into the fit report without dragging unit types along.
struct ProcessBox {
    double z_max = 6.0;  ///< surrogate valid for |z_i| <= z_max, all axes

    double junction_mean_m = 0.0;   ///< etch-stop thickness mean (z1 driver)
    double junction_sigma_m = 0.0;  ///< etch-stop thickness sigma
    double litho_sigma_m = 0.0;     ///< length/width edge-bias sigma (z2)
    double youngs_nominal_pa = 0.0; ///< E nominal (z3 driver)
    double youngs_rel_sigma = 0.0;  ///< lognormal relative sigma

    double length_m = 0.0;          ///< nominal L the bias applies to
    double width_m = 0.0;           ///< nominal w (cancels in f0; kept for
                                    ///< geometry construction)
    double density_kg_m3 = 0.0;     ///< rho

    [[nodiscard]] bool contains(double z1, double z2, double z3) const {
        return z1 >= -z_max && z1 <= z_max && z2 >= -z_max && z2 <= z_max &&
               z3 >= -z_max && z3 <= z_max;
    }

    /// Stable cache key: every field hex-formatted (%a), so two boxes collide
    /// only when they are bit-identical.
    [[nodiscard]] std::string key() const;
};

/// Everything a reviewer needs to trust (or reject) a fit. Serialized to
/// `<out_dir()>/surrogate_fit_<n>_report.json` so CI uploads it with the
/// other *_report.json artifacts on failure.
struct FitReport {
    std::array<std::size_t, 3> degree{};  ///< polynomial degree per axis
    std::size_t node_count = 0;           ///< tensor-grid full-model evals
    std::size_t validation_points = 0;    ///< off-node points checked
    double max_rel_err = 0.0;             ///< worst validation error seen
    double truncation_estimate = 0.0;     ///< tail-coefficient estimate
    double error_budget = 0.0;            ///< epsilon in force at fit time
    bool accepted = false;                ///< max_rel_err <= budget
    double build_seconds = 0.0;

    [[nodiscard]] std::string to_json() const;
    /// Best-effort write (returns false on I/O failure, never throws).
    bool write(const std::string& path) const;
};

/// f0(z1, z2, z3) as a degree-(1,4,4) Chebyshev tensor (retried at (3,6,6)
/// if validation misses the budget). `eval` costs ~50 FMAs; `full_eval` is
/// the mech::EulerBernoulliBeam reference the fit is validated against and
/// the check tier spot-checks with.
class ResonanceSurrogate {
public:
    /// Fits and validates. Node/validation evaluations fan out on `pool`
    /// when provided. Never throws on a bad fit — inspect report().accepted.
    explicit ResonanceSurrogate(const ProcessBox& box, exec::ThreadPool* pool = nullptr);

    [[nodiscard]] const ProcessBox& box() const { return box_; }
    [[nodiscard]] const FitReport& report() const { return report_; }
    [[nodiscard]] bool accepted() const { return report_.accepted; }

    /// Physical parameters from their z drivers (unclamped).
    [[nodiscard]] double thickness_of(double z1) const;
    [[nodiscard]] double length_of(double z2) const;
    [[nodiscard]] double youngs_of(double z3) const;

    /// Surrogate resonance [Hz]. Callers must keep z inside the box.
    [[nodiscard]] double eval(double z1, double z2, double z3) const {
        return cheb_.eval(z1, z2, z3);
    }
    /// Vectorized batch (AVX2 when available, bit-identical scalar tail).
    void eval_many(const double* z1, const double* z2, const double* z3, double* f0,
                   std::size_t n) const {
        cheb_.eval_many(z1, z2, z3, f0, n);
    }

    /// Full-model reference: EulerBernoulliBeam whenever the geometry is in
    /// its validated envelope, closed-form extension of the same formula on
    /// the non-functional corners the tensor grid still has to sample.
    [[nodiscard]] double full_eval(double z1, double z2, double z3) const;

private:
    void fit(const std::array<std::size_t, 3>& degree, exec::ThreadPool* pool);

    ProcessBox box_;
    mech::CantileverGeometry nominal_;  ///< geometry template (material, w)
    util::ChebyshevTensor3 cheb_;
    FitReport report_;
};

}  // namespace cbs::surrogate
