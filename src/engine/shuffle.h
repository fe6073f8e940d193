#ifndef MRCOST_ENGINE_SHUFFLE_H_
#define MRCOST_ENGINE_SHUFFLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/engine/hashing.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/run_writer.h"

namespace mrcost::engine {

/// How a round's shuffle is executed.
///   kAuto     — kExternal when a memory budget is set, else kSharded.
///   kSerial   — the in-memory shuffle on a single shard (one group task).
///   kSharded  — radix-partitioned parallel in-memory shuffle.
///   kExternal — spill-to-disk shuffle: map-side batches over the memory
///               budget are sorted and spilled as runs, then k-way merged
///               back into groups. The only strategy that can run rounds
///               whose intermediate data exceeds RAM.
/// All strategies produce byte-identical ShuffleResults.
enum class ShuffleStrategy { kAuto = 0, kSerial, kSharded, kExternal };

const char* ToString(ShuffleStrategy strategy);

/// How pairs are placed onto shuffle shards (and, in the simulator, how
/// reducers are placed onto workers).
///   kAuto         — kHash unless the plan chooser's map-fn sample detects
///                   key skew (max group far above the mean), in which case
///                   kSampledRange.
///   kHash         — blind IndexOfHash placement (the PR-1 radix path).
///   kSampledRange — sample the mapped key-hash distribution, then cut it
///                   into contiguous hash ranges holding equal pair counts,
///                   so a skewed key distribution still spreads its weight
///                   evenly (see src/engine/partitioner.h). Placement only:
///                   outputs stay byte-identical to kHash via the
///                   scan-order-tag merge.
enum class PartitionerKind { kAuto = 0, kHash, kSampledRange };

const char* ToString(PartitionerKind kind);

/// The one shuffle-configuration struct, shared by JobOptions (one round)
/// and PipelineOptions (a plan execution). Resolution order, applied
/// field-wise — each field's zero value (kAuto / 0 / "") means "unset":
///   1. explicit per-round settings (JobOptions::shuffle) win;
///   2. fields still unset inherit the round defaults and then the
///      execution-wide config (ExecutionOptions::pipeline.shuffle) via
///      MergedOver;
///   3. a still-kAuto strategy resolves through Resolved(): kExternal when
///      a memory budget is set, else kSharded. The plan executor's
///      per-round chooser (src/engine/plan.h) refines this step using the
///      round's estimated intermediate bytes, so only rounds that actually
///      exceed the budget pay the spill path.
struct ShuffleConfig {
  /// How the shuffle executes; kAuto defers to step 3 above.
  ShuffleStrategy strategy = ShuffleStrategy::kAuto;
  /// Shuffle memory budget in ByteSizeOf bytes (src/common/byte_size.h —
  /// the same convention the simulator's capacity checks use). The budget
  /// is split evenly across the round's map chunks; a chunk's batch spills
  /// to a sorted run once it exceeds its share. 0 spills every pair
  /// individually when kExternal is explicit (valid, maximally
  /// degenerate).
  std::uint64_t memory_budget_bytes = 0;
  /// Where run files live; "" = std::filesystem::temp_directory_path().
  std::string spill_dir;
  /// Runs merged per k-way pass; 0 = storage::kDefaultMergeFanIn. Runs in
  /// excess are first merged down in extra passes (merge_passes counts
  /// them).
  std::size_t merge_fan_in = 0;
  /// How pairs are placed onto shards. kAuto lets the plan chooser pick
  /// from its map-fn sample (skewed keys => kSampledRange) and otherwise
  /// behaves as kHash. Ignored by the external shuffle (its placement is
  /// the sorted merge order) and by the one-shard serial path.
  PartitionerKind partitioner = PartitionerKind::kAuto;

  /// True when any field was moved off its unset value.
  bool configured() const {
    return strategy != ShuffleStrategy::kAuto || memory_budget_bytes > 0 ||
           !spill_dir.empty() || merge_fan_in > 0 ||
           partitioner != PartitionerKind::kAuto;
  }

  /// Step 2 of the resolution order: fields still unset here inherit
  /// `fallback`'s values.
  ShuffleConfig MergedOver(const ShuffleConfig& fallback) const {
    ShuffleConfig merged = *this;
    if (merged.strategy == ShuffleStrategy::kAuto) {
      merged.strategy = fallback.strategy;
    }
    if (merged.memory_budget_bytes == 0) {
      merged.memory_budget_bytes = fallback.memory_budget_bytes;
    }
    if (merged.spill_dir.empty()) merged.spill_dir = fallback.spill_dir;
    if (merged.merge_fan_in == 0) merged.merge_fan_in = fallback.merge_fan_in;
    if (merged.partitioner == PartitionerKind::kAuto) {
      merged.partitioner = fallback.partitioner;
    }
    return merged;
  }

  /// Step 3 of the resolution order: the strategy that actually runs when
  /// no plan-level chooser intervenes.
  ShuffleStrategy Resolved() const {
    if (strategy != ShuffleStrategy::kAuto) return strategy;
    return memory_budget_bytes > 0 ? ShuffleStrategy::kExternal
                                   : ShuffleStrategy::kSharded;
  }
};

/// Maps a finalized 64-bit hash onto [0, n) with a 128-bit multiply
/// (Lemire's fastrange) instead of `%`. All of the engine's placement
/// decisions — shuffle shard selection and the simulated reduce-worker
/// assignment — go through this one function, so they draw on the hash's
/// high bits uniformly rather than on its low-bit residue.
inline std::size_t IndexOfHash(std::uint64_t hash, std::size_t n) {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(hash) * n) >> 64);
}

/// Number of shuffle shards to use: an explicit request wins; otherwise one
/// shard per pool thread (capped so tiny jobs do not over-partition).
std::size_t ResolveShardCount(std::size_t requested, std::size_t num_threads,
                              std::size_t num_pairs);

/// Grouped shuffle output: `keys` in global first-seen order (the order the
/// pairs appear scanning chunk 0, chunk 1, ... in emission order), with
/// `groups[i]` holding the values emitted for `keys[i]` in that same order.
/// This is exactly the seed engine's deterministic ordering contract, so
/// results are identical for every thread count and shard count.
template <typename Key, typename Value>
struct ShuffleResult {
  std::vector<Key> keys;
  std::vector<std::vector<Value>> groups;
};

/// Serial reference shuffle: a single hash map over all chunks, as the seed
/// engine did inline. The test oracle the production shuffle (the staged
/// round in src/engine/executor.h, every strategy and shard count) is
/// checked against; no production path calls it.
template <typename Key, typename Value>
ShuffleResult<Key, Value> SerialShuffle(
    std::vector<std::vector<std::pair<Key, Value>>>& chunks) {
  ShuffleResult<Key, Value> result;
  std::unordered_map<Key, std::size_t, KeyHash> key_index;
  for (auto& chunk : chunks) {
    for (auto& [key, value] : chunk) {
      auto [it, inserted] = key_index.try_emplace(key, result.keys.size());
      if (inserted) {
        result.keys.push_back(key);
        result.groups.emplace_back();
      }
      result.groups[it->second].push_back(std::move(value));
    }
    chunk.clear();
    chunk.shrink_to_fit();
  }
  return result;
}

namespace internal {

/// Restores the engine's first-seen-key-order contract on a key-ordered
/// external merge: groups are permuted by the global position of each
/// key's first record — exactly the order SerialShuffle discovers keys in.
template <typename Key, typename Value>
ShuffleResult<Key, Value> ReorderByFirstSeen(
    storage::MergedGroups<Key, Value>& merged) {
  std::vector<std::size_t> order(merged.keys.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&merged](std::size_t a, std::size_t b) {
              return merged.first_pos[a] < merged.first_pos[b];
            });
  ShuffleResult<Key, Value> result;
  result.keys.reserve(order.size());
  result.groups.reserve(order.size());
  for (std::size_t i : order) {
    result.keys.push_back(std::move(merged.keys[i]));
    result.groups.push_back(std::move(merged.groups[i]));
  }
  return result;
}

/// Builds the merge inputs from per-chunk unspilled tails (columnar runs)
/// plus every block run file the spiller wrote, merges them over block
/// cursors (storage::BlockLoserTree), and reorders the groups by first
/// seen. Fills `stats.encode` with the spiller's raw-vs-encoded counters
/// on top of the run/byte counts. `spiller` must outlive the call (it owns
/// the run files) but not the result.
template <typename Key, typename Value>
common::Result<ShuffleResult<Key, Value>> MergeSpilledBlockRuns(
    storage::RunSpiller& spiller,
    std::vector<storage::ColumnarRun>& tails, std::size_t merge_fan_in,
    storage::SpillStats& stats) {
  std::vector<std::unique_ptr<storage::BlockRunSource>> sources;
  for (auto& tail : tails) {
    if (!tail.empty()) {
      sources.push_back(
          std::make_unique<storage::MemoryBlockRunSource>(std::move(tail)));
    }
  }
  for (const std::string& path : spiller.spill_run_paths()) {
    sources.push_back(std::make_unique<storage::DiskBlockRunSource>(path));
  }
  auto merged = storage::MergeBlockRunsToGroups<Key, Value>(
      std::move(sources), spiller, merge_fan_in, stats);
  if (!merged.ok()) return merged.status();
  stats.spill_runs = spiller.spill_runs();
  stats.spill_bytes_written = spiller.bytes_written();
  stats.encode = spiller.encode_stats();
  return ReorderByFirstSeen(*merged);
}

}  // namespace internal

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_SHUFFLE_H_
