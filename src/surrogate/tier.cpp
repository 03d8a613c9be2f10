#include "surrogate/tier.hpp"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace cbs::surrogate {

namespace {

struct EnvConfig {
    TierSetting setting;
    double eps;
};

const EnvConfig& env_config() {
    static const EnvConfig parsed = [] {
        const char* tier_raw = std::getenv("CBS_SURROGATE");
        const char* eps_raw = std::getenv("CBS_SURROGATE_EPS");
        return EnvConfig{parse_tier(tier_raw == nullptr ? "" : tier_raw),
                         parse_error_budget(eps_raw == nullptr ? "" : eps_raw)};
    }();
    return parsed;
}

// 0 = no override; otherwise Tier value + 1 (same slot idiom as circ::fuse).
std::atomic<int>& tier_override_slot() {
    static std::atomic<int> slot{0};
    return slot;
}

std::atomic<std::size_t>& stride_override_slot() {
    static std::atomic<std::size_t> slot{0};
    return slot;
}

std::atomic<double>& eps_override_slot() {
    static std::atomic<double> slot{0.0};
    return slot;
}

}  // namespace

TierSetting parse_tier(std::string_view value) {
    if (value.empty() || value == "off" || value == "0") return {Tier::off};
    if (value == "on" || value == "1") return {Tier::on};
    if (value == "check") return {Tier::check};
    constexpr std::string_view check_prefix = "check:";
    if (value.starts_with(check_prefix)) {
        const std::string_view digits = value.substr(check_prefix.size());
        std::uint64_t n = 0;
        const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), n);
        if (ec == std::errc{} && end == digits.data() + digits.size() && n >= 1) {
            return {Tier::check, static_cast<std::size_t>(n)};
        }
    }
    throw std::invalid_argument("CBS_SURROGATE=\"" + std::string(value) +
                                "\" is not one of off|0|on|1|check|check:N (N >= 1)");
}

double parse_error_budget(std::string_view value) {
    if (value.empty()) return 1e-9;
    double eps = 0.0;
    const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), eps);
    if (ec != std::errc{} || end != value.data() + value.size() || !std::isfinite(eps) ||
        eps <= 0.0) {
        throw std::invalid_argument("CBS_SURROGATE_EPS=\"" + std::string(value) +
                                    "\" is not a finite positive number");
    }
    return eps;
}

Tier tier() {
    const int forced = tier_override_slot().load(std::memory_order_relaxed);
    return forced != 0 ? static_cast<Tier>(forced - 1) : env_config().setting.tier;
}

void set_tier(Tier t) {
    tier_override_slot().store(static_cast<int>(t) + 1, std::memory_order_relaxed);
}

void clear_tier() { tier_override_slot().store(0, std::memory_order_relaxed); }

std::size_t check_stride() {
    const std::size_t forced = stride_override_slot().load(std::memory_order_relaxed);
    return forced != 0 ? forced : env_config().setting.stride;
}

void set_check_stride(std::size_t n) {
    stride_override_slot().store(n, std::memory_order_relaxed);
}

double error_budget() {
    const double forced = eps_override_slot().load(std::memory_order_relaxed);
    return forced > 0.0 ? forced : env_config().eps;
}

void set_error_budget(double eps) {
    eps_override_slot().store(eps > 0.0 ? eps : 0.0, std::memory_order_relaxed);
}

}  // namespace cbs::surrogate
