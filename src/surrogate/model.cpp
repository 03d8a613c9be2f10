#include "surrogate/model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "exec/threadpool.hpp"
#include "mech/beam.hpp"
#include "surrogate/sampler.hpp"
#include "surrogate/tier.hpp"
#include "util/expect.hpp"

namespace cbs::surrogate {

std::string ProcessBox::key() const {
    const double fields[] = {z_max,           junction_mean_m, junction_sigma_m,
                             litho_sigma_m,   youngs_nominal_pa, youngs_rel_sigma,
                             length_m,        width_m,         density_kg_m3};
    std::string out;
    char buf[40];
    for (const double v : fields) {
        std::snprintf(buf, sizeof(buf), "%a;", v);
        out += buf;
    }
    return out;
}

std::string FitReport::to_json() const {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"degree\":[%zu,%zu,%zu],\"node_count\":%zu,"
                  "\"validation_points\":%zu,\"max_rel_err\":%.17g,"
                  "\"truncation_estimate\":%.17g,\"error_budget\":%.17g,"
                  "\"accepted\":%s,\"build_seconds\":%.6g}",
                  degree[0], degree[1], degree[2], node_count, validation_points,
                  max_rel_err, truncation_estimate, error_budget,
                  accepted ? "true" : "false", build_seconds);
    return std::string(buf);
}

bool FitReport::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json() << '\n';
    return static_cast<bool>(out);
}

ResonanceSurrogate::ResonanceSurrogate(const ProcessBox& box, exec::ThreadPool* pool)
    : box_(box) {
    CBS_EXPECTS(box.z_max > 0.0);
    CBS_EXPECTS(box.junction_mean_m > 0.0);
    CBS_EXPECTS(box.junction_sigma_m >= 0.0);
    CBS_EXPECTS(box.litho_sigma_m >= 0.0);
    CBS_EXPECTS(box.youngs_nominal_pa > 0.0);
    CBS_EXPECTS(box.youngs_rel_sigma >= 0.0);
    CBS_EXPECTS(box.length_m > 0.0);
    CBS_EXPECTS(box.width_m > 0.0);
    CBS_EXPECTS(box.density_kg_m3 > 0.0);

    nominal_.length = Length{box.length_m};
    nominal_.width = Length{box.width_m};
    nominal_.thickness = Length{box.junction_mean_m};
    nominal_.material = phys::materials::silicon();
    nominal_.material.youngs_modulus = Stress{box.youngs_nominal_pa};
    nominal_.material.density = MassDensity{box.density_kg_m3};

    const auto start = std::chrono::steady_clock::now();
    fit({1, 4, 4}, pool);
    if (!report_.accepted) {
        // One escalation before giving up; harder responses (wider boxes,
        // larger sigmas) occasionally need the extra orders.
        fit({3, 6, 6}, pool);
    }
    report_.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double ResonanceSurrogate::thickness_of(double z1) const {
    return std::fma(box_.junction_sigma_m, z1, box_.junction_mean_m);
}

double ResonanceSurrogate::length_of(double z2) const {
    return std::fma(box_.litho_sigma_m, z2, box_.length_m);
}

double ResonanceSurrogate::youngs_of(double z3) const {
    // Matches Rng::lognormal_rel: mean-preserving lognormal with relative
    // sigma, driven by a standard normal.
    const double s2 = std::log1p(box_.youngs_rel_sigma * box_.youngs_rel_sigma);
    const double s = std::sqrt(s2);
    return box_.youngs_nominal_pa * std::exp(std::fma(s, z3, -0.5 * s2));
}

double ResonanceSurrogate::full_eval(double z1, double z2, double z3) const {
    const double t = thickness_of(z1);
    const double length = length_of(z2);
    const double e = youngs_of(z3);
    mech::CantileverGeometry geom = nominal_;
    geom.thickness = Length{t};
    geom.length = Length{length};
    geom.material.youngs_modulus = Stress{e};
    const bool beam_valid = t > 0.0 && length > 0.0 && length >= 10.0 * t &&
                            geom.width.value() >= t;
    if (beam_valid) {
        return mech::EulerBernoulliBeam(geom).resonance_frequency().value();
    }
    // Smooth extension of the identical formula onto box corners where the
    // thin-beam validation would reject the geometry; those z never pass
    // the functional predicate, but the tensor grid still samples them.
    const double lambda = mech::EulerBernoulliBeam::eigenvalue(1);
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return lambda * lambda / (kTwoPi * length * length) * t *
           std::sqrt(e / (12.0 * box_.density_kg_m3));
}

void ResonanceSurrogate::fit(const std::array<std::size_t, 3>& degree,
                             exec::ThreadPool* pool) {
    const util::ChebyshevTensor3::Box zbox{{-box_.z_max, -box_.z_max, -box_.z_max},
                                           {box_.z_max, box_.z_max, box_.z_max}};
    const auto nodes = util::ChebyshevTensor3::nodes(zbox, degree);
    std::vector<double> values(nodes.size());
    auto eval_node = [&](std::size_t i) {
        values[i] = full_eval(nodes[i][0], nodes[i][1], nodes[i][2]);
    };
    if (pool != nullptr) {
        pool->parallel_for(nodes.size(), eval_node);
    } else {
        for (std::size_t i = 0; i < nodes.size(); ++i) eval_node(i);
    }
    cheb_ = util::ChebyshevTensor3::fit_from_node_values(zbox, degree, values);

    report_ = FitReport{};
    report_.degree = degree;
    report_.node_count = nodes.size();
    report_.error_budget = error_budget();
    report_.truncation_estimate = cheb_.truncation_estimate();

    // Validation: the 27 box corners/edges/center, a shifted off-node grid,
    // and a deterministic pseudo-random cloud. All compared against the full
    // model; the worst relative error must beat the budget.
    std::vector<std::array<double, 3>> points;
    for (const double z1 : {-box_.z_max, 0.0, box_.z_max})
        for (const double z2 : {-box_.z_max, 0.0, box_.z_max})
            for (const double z3 : {-box_.z_max, 0.0, box_.z_max})
                points.push_back({z1, z2, z3});
    const std::array<std::size_t, 3> off{degree[0] + 2, degree[1] + 2, degree[2] + 2};
    for (const auto& p : util::ChebyshevTensor3::nodes(zbox, off)) points.push_back(p);
    CounterRng vr(0x5e2c0a7eULL);
    for (int i = 0; i < 128; ++i) {
        points.push_back({box_.z_max * (2.0 * vr.uniform() - 1.0),
                          box_.z_max * (2.0 * vr.uniform() - 1.0),
                          box_.z_max * (2.0 * vr.uniform() - 1.0)});
    }

    std::vector<double> errs(points.size());
    auto check_point = [&](std::size_t i) {
        const auto& p = points[i];
        const double ref = full_eval(p[0], p[1], p[2]);
        const double got = cheb_.eval(p[0], p[1], p[2]);
        errs[i] = std::abs(got - ref) / std::max(std::abs(ref), 1e-300);
    };
    if (pool != nullptr) {
        pool->parallel_for(points.size(), check_point);
    } else {
        for (std::size_t i = 0; i < points.size(); ++i) check_point(i);
    }
    for (const double e : errs) report_.max_rel_err = std::max(report_.max_rel_err, e);
    report_.validation_points = points.size();
    report_.accepted = report_.max_rel_err <= report_.error_budget;
}

}  // namespace cbs::surrogate
