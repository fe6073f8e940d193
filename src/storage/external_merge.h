#ifndef MRCOST_STORAGE_EXTERNAL_MERGE_H_
#define MRCOST_STORAGE_EXTERNAL_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/storage/block.h"
#include "src/storage/run_writer.h"
#include "src/storage/serde.h"
#include "src/storage/spill_file.h"

namespace mrcost::storage {

/// Runs merged per k-way pass when the caller does not say otherwise.
inline constexpr std::size_t kDefaultMergeFanIn = 64;

/// Merge output: groups in (hash, key bytes) order — "key order" for the
/// external shuffle — with each group's values in emission order and
/// first_pos[i] the global position where keys[i] first appeared. The
/// engine reorders groups by first_pos to restore its first-seen contract.
template <typename Key, typename Value>
struct MergedGroups {
  std::vector<Key> keys;
  std::vector<std::vector<Value>> groups;
  std::vector<std::uint64_t> first_pos;
};

// The merge walks *cursors*: each source exposes a borrowed RecordView
// into its current decoded block, the loser tree compares views, and
// consumers copy only what they keep (group values) or re-append raw
// bytes (merge rewrites). No per-record allocation anywhere in the merge.

/// A sorted stream of records in columnar form. Peek returns the current
/// record or nullptr when drained/errored (check status()); the view stays
/// valid until the next Advance on this source.
class BlockRunSource {
 public:
  virtual ~BlockRunSource() = default;
  virtual const RecordView* Peek() = 0;
  virtual void Advance() = 0;
  virtual common::Status status() const = 0;
};

/// An unspilled in-memory tail, already sorted by RecordViewLess.
class MemoryBlockRunSource : public BlockRunSource {
 public:
  explicit MemoryBlockRunSource(ColumnarRun run) : run_(std::move(run)) {}

  const RecordView* Peek() override {
    if (next_ >= run_.rows()) return nullptr;
    view_ = run_.View(next_);
    return &view_;
  }
  void Advance() override { ++next_; }
  common::Status status() const override { return common::Status::Ok(); }

 private:
  ColumnarRun run_;
  std::size_t next_ = 0;
  RecordView view_;
};

/// A spill run file, streamed and decoded one block at a time (a
/// k-way merge holds k decoded blocks, not k runs).
class DiskBlockRunSource : public BlockRunSource {
 public:
  explicit DiskBlockRunSource(std::string path) : path_(std::move(path)) {}

  const RecordView* Peek() override;
  void Advance() override { ++next_; }
  common::Status status() const override { return status_; }

 private:
  std::string path_;
  std::unique_ptr<SpillFileReader> reader_;  // opened on first Peek
  bool opened_ = false;
  bool done_ = false;
  common::Status status_;
  std::string payload_;
  ColumnarRun run_;
  std::size_t next_ = 0;
  RecordView view_;
};

/// Loser-tree k-way merge over block cursors: pops the least record (by
/// RecordViewLess) across all sources with one leaf-to-root replay per pop
/// — log2(k) comparisons instead of the k-1 a naive scan costs. Positions
/// are globally unique, so the order is total and the merge
/// deterministic. Views are borrowed: consume *Peek() before calling Pop —
/// Pop advances the winning source, which may decode a new block over the
/// view's storage.
class BlockLoserTree {
 public:
  explicit BlockLoserTree(std::vector<BlockRunSource*> sources);

  /// The least unconsumed record across all sources; nullptr when drained
  /// or errored (see status()).
  const RecordView* Peek();
  void Pop();
  common::Status status() const { return status_; }

 private:
  bool Beats(std::size_t a, std::size_t b);
  void Replay(std::size_t source);

  std::vector<BlockRunSource*> sources_;
  std::vector<std::size_t> losers_;
  std::size_t winner_ = 0;
  common::Status status_;
};

/// Merges `sources` down to at most `max_fan_in` by rewriting batches of
/// runs into single merged runs through `spiller.NewBlockRun`, re-appending
/// raw key/value bytes — records are never deserialized during fan-in
/// reduction. Each sweep over the sources counts one merge pass in
/// `stats`.
common::Status ReduceBlockFanIn(
    std::vector<std::unique_ptr<BlockRunSource>>& sources,
    RunSpiller& spiller, std::size_t max_fan_in, SpillStats& stats);

/// The final merge pass: reduces fan-in if needed, then streams the merged
/// view order once, cutting it into groups at (hash, key bytes) boundaries
/// and deserializing each key once per group and each value once.
template <typename Key, typename Value>
common::Result<MergedGroups<Key, Value>> MergeBlockRunsToGroups(
    std::vector<std::unique_ptr<BlockRunSource>> sources,
    RunSpiller& spiller, std::size_t max_fan_in, SpillStats& stats) {
  if (max_fan_in == 0) max_fan_in = kDefaultMergeFanIn;
  if (auto status = ReduceBlockFanIn(sources, spiller, max_fan_in, stats);
      !status.ok()) {
    return status;
  }
  stats.merge_passes += 1;

  std::vector<BlockRunSource*> raw;
  raw.reserve(sources.size());
  for (const auto& source : sources) raw.push_back(source.get());
  BlockLoserTree tree(std::move(raw));

  MergedGroups<Key, Value> out;
  std::uint64_t prev_hash = 0;
  std::string prev_key;
  bool has_prev = false;
  while (const RecordView* rec = tree.Peek()) {
    const bool new_group =
        !has_prev || rec->hash != prev_hash || rec->key != prev_key;
    if (new_group) {
      prev_hash = rec->hash;
      prev_key.assign(rec->key);
      has_prev = true;
      Key key;
      const char* p = rec->key.data();
      if (!DeserializeValue(p, p + rec->key.size(), key)) {
        return common::Status::Internal(
            "external merge: corrupt key bytes in spill block");
      }
      out.keys.push_back(std::move(key));
      out.groups.emplace_back();
      out.first_pos.push_back(rec->pos);
    }
    Value value;
    const char* p = rec->value.data();
    if (!DeserializeValue(p, p + rec->value.size(), value)) {
      return common::Status::Internal(
          "external merge: corrupt value bytes in spill block");
    }
    out.groups.back().push_back(std::move(value));
    tree.Pop();
  }
  if (auto status = tree.status(); !status.ok()) return status;
  return out;
}

}  // namespace mrcost::storage

#endif  // MRCOST_STORAGE_EXTERNAL_MERGE_H_
