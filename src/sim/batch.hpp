// Batched-stepping granularity of the signal path.
//
// The sampled-data chains process `batch_size()` consecutive samples per
// inner-loop pass: blocks run their `process_block` kernels, noise sources
// pre-draw a batch's variates in bulk, and per-sample invariants (obs
// checks, contract checks, hoisted constants) are paid once per batch.
// The contract (DESIGN.md §9): results are bit-identical for every batch
// size, so this is purely a throughput knob.
//
// Configured by the CBS_BATCH environment variable (default 64);
// CBS_BATCH=1 selects the legacy per-sample loops exactly. Tests use
// set_batch_size() to sweep sizes programmatically.
#pragma once

#include <cstddef>
#include <string_view>

namespace cbs::sim {

/// Default batch size when CBS_BATCH is unset.
inline constexpr std::size_t kDefaultBatchSize = 64;

/// Parses a CBS_BATCH value: empty -> kDefaultBatchSize, a decimal
/// integer -> that value clamped to [1, 1 << 20]. Throws
/// std::invalid_argument naming CBS_BATCH for anything else.
[[nodiscard]] std::size_t parse_batch_size(std::string_view value);

/// Current batch size: the programmatic override if one is set, else
/// CBS_BATCH through parse_batch_size (unset -> the default). An invalid
/// CBS_BATCH throws std::invalid_argument from the first call.
[[nodiscard]] std::size_t batch_size();

/// Programmatic override (thread-safe, read by every subsequent
/// batch_size() call); pass 0 to revert to the environment/default value.
void set_batch_size(std::size_t n);

}  // namespace cbs::sim
