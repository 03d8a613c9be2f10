// CBS_SURROGATE: the Monte-Carlo surrogate fast-path tier (DESIGN.md §14).
//
//   off / 0 / unset   legacy path, bit-identical to every previous release
//   (or empty)
//   on / 1            surrogate evaluation with the fitted error budget
//                     enforced at build time (a fit that misses its budget
//                     is rejected and the run falls back to full sim)
//   check / check:N   surrogate evaluation PLUS full-sim spot checks on the
//                     deterministic 1-in-N trial subsample (trial index
//                     multiples of N; default N = 32). A spot check whose
//                     relative error exceeds the budget throws
//                     SurrogateError — the tier for CI and for validating a
//                     new parameter box.
//
// CBS_SURROGATE_EPS overrides the default relative error budget (1e-9).
// Any other spelling of either variable throws std::invalid_argument from
// the first tier()/check_stride()/error_budget() call that reads the
// environment, instead of silently running a different tier or budget.
// set_tier/clear_tier are the programmatic override (benchmarks, tests),
// same semantics as circ::set_fuse_mode.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cbs::surrogate {

enum class Tier { off = 0, on = 1, check = 2 };

/// A parsed CBS_SURROGATE value.
struct TierSetting {
    Tier tier = Tier::off;
    std::size_t stride = 32;  ///< spot-check stride N (Tier::check)
};

/// Parses a CBS_SURROGATE value: empty|off|0 -> off, on|1 -> on, check ->
/// check with stride 32, check:N (N a decimal integer >= 1) -> check with
/// stride N. Throws std::invalid_argument naming CBS_SURROGATE and the
/// accepted spellings for anything else.
[[nodiscard]] TierSetting parse_tier(std::string_view value);

/// Parses a CBS_SURROGATE_EPS value: empty -> 1e-9, otherwise a finite
/// positive decimal number. Throws std::invalid_argument naming
/// CBS_SURROGATE_EPS for anything else.
[[nodiscard]] double parse_error_budget(std::string_view value);

/// Active tier: the programmatic override if set, else CBS_SURROGATE.
Tier tier();
void set_tier(Tier t);
void clear_tier();

/// Spot-check stride N for Tier::check (from CBS_SURROGATE=check:N, else
/// 32). Always >= 1.
std::size_t check_stride();
/// Programmatic stride override (0 restores the environment value).
void set_check_stride(std::size_t n);

/// Relative error budget epsilon: CBS_SURROGATE_EPS if set and non-empty,
/// else 1e-9 — the contract the fit validates against and the spot checks
/// enforce.
double error_budget();
/// Programmatic budget override (<= 0 restores the environment value).
void set_error_budget(double eps);

/// Thrown when a Tier::check full-sim spot check disagrees with the
/// surrogate beyond the error budget — a broken fit must stop the run, not
/// bias a million-trial study.
class SurrogateError : public std::runtime_error {
public:
    explicit SurrogateError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace cbs::surrogate
