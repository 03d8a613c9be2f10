#include "sim/batch.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace cbs::sim {

namespace {

constexpr std::size_t kMaxBatchSize = std::size_t{1} << 20;

std::size_t env_batch_size() {
    static const std::size_t parsed = [] {
        const char* raw = std::getenv("CBS_BATCH");
        return parse_batch_size(raw == nullptr ? "" : raw);
    }();
    return parsed;
}

std::atomic<std::size_t>& override_slot() {
    static std::atomic<std::size_t> slot{0};
    return slot;
}

}  // namespace

std::size_t parse_batch_size(std::string_view value) {
    if (value.empty()) return kDefaultBatchSize;
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec == std::errc::result_out_of_range && end == value.data() + value.size()) {
        return kMaxBatchSize;
    }
    if (ec != std::errc{} || end != value.data() + value.size()) {
        throw std::invalid_argument("CBS_BATCH=\"" + std::string(value) +
                                    "\" is not a decimal integer");
    }
    return std::clamp<std::size_t>(static_cast<std::size_t>(v), 1, kMaxBatchSize);
}

std::size_t batch_size() {
    const std::size_t forced = override_slot().load(std::memory_order_relaxed);
    return forced != 0 ? forced : env_batch_size();
}

void set_batch_size(std::size_t n) {
    override_slot().store(std::min(n, kMaxBatchSize), std::memory_order_relaxed);
}

}  // namespace cbs::sim
