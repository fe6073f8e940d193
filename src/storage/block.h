#ifndef MRCOST_STORAGE_BLOCK_H_
#define MRCOST_STORAGE_BLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/status.h"
#include "src/storage/serde.h"

namespace mrcost::storage {

// Columnar block layer (see README "Zero-copy columnar shuffle"): instead
// of moving every <Key, Value> pair through its own heap-allocated
// objects, the engine packs a map task's emissions into one arena-backed
// block — serialized key bytes in a shared slab addressed by an offset
// array, values in a typed column, finalized key hashes in a third column.
// Downstream stages route *row indices* into the block rather than copying
// pairs, spill paths encode whole blocks (varint lengths, optional
// run-length key dictionary, optional per-block compression behind the
// Codec interface) into the existing CRC32 spill frames, and the k-way
// merge walks block cursors instead of materialized records.

// ----------------------------------------------------------------------
// Varint encoding: LEB128, the block format's length encoding.

inline void PutVarint(std::uint64_t v, std::string& out) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline bool GetVarint(const char*& p, const char* end, std::uint64_t& out) {
  out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const auto byte = static_cast<unsigned char>(*p++);
    out |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // > 10 continuation bytes: malformed
}

/// Signed deltas (the position column is sorted by key, not position) map
/// onto unsigned varints via zigzag.
inline std::uint64_t ZigZagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t ZigZagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ----------------------------------------------------------------------
// Key hashing over serialized bytes.

/// FNV-1a over the serialized key bytes with a final avalanche mix — the
/// one hash both the emitter (at append time) and the block decoder (when
/// a spilled block is re-read) compute, so routing and merge order agree
/// without storing the hash column on disk. Serialization is injective,
/// so equal hashes + equal bytes means equal keys.
inline std::uint64_t HashBytes(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

// ----------------------------------------------------------------------
// Codec interface: optional per-block compression.

/// A block compression codec. Compress never fails (worst case the caller
/// keeps the raw body — EncodeBlock stores whichever is smaller, tagged
/// with the codec id). Decompress validates against the recorded raw size
/// and returns a Status on corrupt input.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual std::uint8_t id() const = 0;
  virtual const char* name() const = 0;
  virtual void Compress(std::string_view in, std::string& out) const = 0;
  virtual common::Status Decompress(std::string_view in,
                                    std::size_t raw_size,
                                    std::string& out) const = 0;
};

/// Codec 0: stores the body verbatim (also the fallback when a codec
/// fails to shrink a block).
const Codec& IdentityCodec();

/// Codec 1 ("mrlz"): a byte-oriented LZ77 with a greedy hash-chain
/// matcher and LZ4-style token framing — no external dependency, built
/// for the redundancy spill blocks actually have (repeated key bytes,
/// small-integer varints).
const Codec& Lz77Codec();

/// The codec spill writers use unless told otherwise.
const Codec& DefaultSpillCodec();

/// Codec registry for decode: nullptr for unknown ids (corrupt block).
const Codec* CodecById(std::uint8_t id);

// ----------------------------------------------------------------------
// ByteSlab: the arena.

/// An append-only arena of variable-length byte strings: one contiguous
/// byte buffer plus an offset column (leading 0 sentinel). At(i) is a view
/// into the arena — stable until Clear, because the buffer only grows.
class ByteSlab {
 public:
  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  std::string_view At(std::size_t i) const {
    return std::string_view(bytes_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  void Append(std::string_view bytes) {
    bytes_.append(bytes.data(), bytes.size());
    offsets_.push_back(bytes_.size());
  }

  /// Serializes `value` (src/storage/serde.h) straight into the arena —
  /// no per-entry temporary string.
  template <typename T>
  void AppendSerialized(const T& value) {
    SerializeValue(value, bytes_);
    offsets_.push_back(bytes_.size());
  }

  const std::string& bytes() const { return bytes_; }
  /// The offset column (leading 0 sentinel, size() + 1 entries) — the
  /// wire shuffle's raw-frame encoder ships it verbatim.
  const std::vector<std::uint64_t>& offsets() const { return offsets_; }

  /// Replaces the slab wholesale with an already-concatenated payload and
  /// its offset column (leading 0 sentinel required) — the raw-frame
  /// decoder's bulk load, skipping size() individual Appends.
  void AssignConcat(std::string bytes, std::vector<std::uint64_t> offsets) {
    bytes_ = std::move(bytes);
    offsets_ = std::move(offsets);
  }

  void Clear() {
    bytes_.clear();
    offsets_.resize(1);
  }

  /// In-memory footprint: arena payload plus the offset column (the
  /// object itself is charged by the containing block's ByteSize).
  std::size_t PayloadBytes() const {
    return bytes_.size() + offsets_.size() * sizeof(std::uint64_t);
  }

 private:
  std::string bytes_;
  std::vector<std::uint64_t> offsets_ = {0};
};

// ----------------------------------------------------------------------
// ColumnarRun: one sorted spill run in columnar form.

/// A borrowed view of one record of a run: the key/value views point into
/// the owning run's slabs and stay valid until the run (or the disk
/// cursor's current segment) is released.
struct RecordView {
  std::uint64_t hash = 0;
  std::uint64_t pos = 0;
  std::string_view key;
  std::string_view value;
};

/// The spill order every run is sorted in and the k-way merge pops in:
/// (hash, key bytes, position). Serialization is injective, so equal
/// (hash, key bytes) means equal keys, and ordering by position within a
/// key reproduces emission order — the engine's determinism contract.
inline bool RecordViewLess(const RecordView& a, const RecordView& b) {
  if (a.hash != b.hash) return a.hash < b.hash;
  const int c = a.key.compare(b.key);
  if (c != 0) return c < 0;
  return a.pos < b.pos;
}

/// One sorted run of records in columnar form: hash and position columns
/// plus key/value byte slabs. Rows are sorted by (hash, key bytes, pos).
struct ColumnarRun {
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> positions;
  ByteSlab keys;
  ByteSlab values;

  std::size_t rows() const { return hashes.size(); }
  bool empty() const { return hashes.empty(); }

  RecordView View(std::size_t i) const {
    return RecordView{hashes[i], positions[i], keys.At(i), values.At(i)};
  }

  void Append(const RecordView& rec) {
    hashes.push_back(rec.hash);
    positions.push_back(rec.pos);
    keys.Append(rec.key);
    values.Append(rec.value);
  }

  void Clear() {
    hashes.clear();
    positions.clear();
    keys.Clear();
    values.Clear();
  }

  /// Approximate raw encoded size, the writers' frame-flush threshold.
  std::size_t RawBytes() const {
    return keys.bytes().size() + values.bytes().size() +
           rows() * 2 * sizeof(std::uint64_t);
  }

  std::size_t ByteSize() const {
    return sizeof(ColumnarRun) + keys.PayloadBytes() +
           values.PayloadBytes() +
           (hashes.size() + positions.size()) * sizeof(std::uint64_t);
  }
};

// ----------------------------------------------------------------------
// Block encode / decode.

/// Aggregate counters for encoded blocks: raw (pre-codec) vs encoded
/// (framed payload) bytes and how many blocks chose the key dictionary.
/// raw/encoded is the compression_ratio JobMetrics reports.
struct BlockEncodeStats {
  std::uint64_t raw_bytes = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t blocks = 0;
  std::uint64_t dict_blocks = 0;

  void Add(const BlockEncodeStats& other) {
    raw_bytes += other.raw_bytes;
    encoded_bytes += other.encoded_bytes;
    blocks += other.blocks;
    dict_blocks += other.dict_blocks;
  }

  double CompressionRatio() const {
    return encoded_bytes > 0 ? static_cast<double>(raw_bytes) /
                                   static_cast<double>(encoded_bytes)
                             : 0.0;
  }
};

/// Encodes rows [lo, hi) of a sorted run as one spill-frame payload:
///
///   u8 codec id | varint raw body size | body (codec-compressed)
///
/// body: varint rows | u8 flags | key section | position section | value
/// section. Keys are varint-length-prefixed; when the rows' sorted order
/// makes equal keys adjacent and at least halves the entry count, the key
/// section switches to a run-length dictionary (flags bit 0): varint runs,
/// then per run (varint key length, key bytes, varint row count).
/// Positions are zigzag varint deltas. The hash column is not stored — the
/// decoder recomputes HashBytes over the key bytes.
void EncodeBlock(const ColumnarRun& run, std::size_t lo, std::size_t hi,
                 const Codec& codec, std::string& payload,
                 BlockEncodeStats& stats);

/// Decodes one spill-frame payload back into `run` (cleared first),
/// recomputing the hash column. Any malformed byte surfaces as a Status.
common::Status DecodeBlock(std::string_view payload, ColumnarRun& run);

// ----------------------------------------------------------------------
// KeyIndex: grouping over (hash, key bytes).

/// Open-addressing hash index from (hash, key bytes) to a dense group id —
/// the grouping engine behind the block shuffle. Replaces the per-shard
/// std::unordered_map<Key, ...>: no per-node allocation, no re-hashing of
/// typed keys (hashes arrive precomputed from the block's hash column),
/// and key equality is one byte comparison against a slab view. The views
/// handed to FindOrInsert must stay valid for the index's lifetime (block
/// slabs are stable until cleared).
class KeyIndex {
 public:
  void Reserve(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    Rehash(cap);
  }

  /// Group id for (hash, key); allocates the next dense id when unseen.
  std::size_t FindOrInsert(std::uint64_t hash, std::string_view key,
                           bool& inserted) {
    if ((groups_.size() + 1) * 10 >= slots_.size() * 7) {
      Rehash(std::max<std::size_t>(16, slots_.size() * 2));
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (true) {
      Slot& slot = slots_[i];
      if (slot.group == kEmpty) {
        slot.hash = hash;
        slot.group = static_cast<std::uint32_t>(groups_.size());
        groups_.emplace_back(hash, key);
        inserted = true;
        return slot.group;
      }
      if (slot.hash == hash && groups_[slot.group].second == key) {
        inserted = false;
        return slot.group;
      }
      i = (i + 1) & mask;
    }
  }

  std::size_t size() const { return groups_.size(); }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t group = kEmpty;
  };
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  void Rehash(std::size_t cap) {
    if (cap <= slots_.size()) return;
    std::vector<Slot> fresh(cap);
    const std::size_t mask = cap - 1;
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      std::size_t i = groups_[g].first & mask;
      while (fresh[i].group != kEmpty) i = (i + 1) & mask;
      fresh[i] = Slot{groups_[g].first, g};
    }
    slots_ = std::move(fresh);
  }

  std::vector<Slot> slots_;
  std::vector<std::pair<std::uint64_t, std::string_view>> groups_;
};

// ----------------------------------------------------------------------
// KVBlock: the emitter-facing block.

/// One map task's emissions in columnar form: serialized key bytes in a
/// slab, finalized hashes (HashBytes, computed once at append), and the
/// values still typed — values only serialize when a block spills, so the
/// in-memory path moves each value exactly once (emitter column to reduce
/// group). Rows are in emission order; row index == the pair's local
/// emission position, which is what the executor's scan-order tags build
/// on.
template <typename Key, typename Value>
class KVBlock {
 public:
  std::size_t rows() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  void Append(const Key& key, Value&& value) {
    const std::size_t r = rows();
    keys_.AppendSerialized(key);
    hashes_.push_back(HashBytes(keys_.At(r)));
    values_.push_back(std::move(value));
  }

  /// Appends an already-serialized key (map-side combine reuses the input
  /// block's bytes and hash instead of re-serializing).
  void AppendRaw(std::string_view key_bytes, std::uint64_t hash,
                 Value&& value) {
    keys_.Append(key_bytes);
    hashes_.push_back(hash);
    values_.push_back(std::move(value));
  }

  std::string_view key_bytes(std::size_t i) const { return keys_.At(i); }
  std::uint64_t hash(std::size_t i) const { return hashes_[i]; }
  Value& value(std::size_t i) { return values_[i]; }
  const Value& value(std::size_t i) const { return values_[i]; }

  /// Deserializes row i's key — paid once per distinct key at group time,
  /// not once per pair.
  Key KeyAt(std::size_t i) const {
    Key key{};
    const std::string_view bytes = keys_.At(i);
    const char* p = bytes.data();
    MRCOST_CHECK(DeserializeValue(p, bytes.data() + bytes.size(), key));
    return key;
  }

  void Clear() {
    keys_.Clear();
    hashes_.clear();
    values_.clear();
  }

  /// Bytes physically copied into this block so far: the key slab plus
  /// one moved Value object per row — the JobMetrics::bytes_copied
  /// currency.
  std::uint64_t CopiedBytes() const {
    return keys_.bytes().size() + values_.size() * sizeof(Value);
  }

  /// In-memory footprint under the src/common/byte_size.h convention:
  /// the block object plus every owned payload (key arena, offset and
  /// hash columns, and each value's own footprint).
  std::size_t ByteSize() const {
    std::size_t total = sizeof(KVBlock) + keys_.PayloadBytes() +
                        hashes_.size() * sizeof(std::uint64_t);
    for (const Value& v : values_) total += common::ByteSizeOf(v);
    return total;
  }

  const ByteSlab& keys() const { return keys_; }

 private:
  ByteSlab keys_;
  std::vector<std::uint64_t> hashes_;
  std::vector<Value> values_;
};

/// Sorts rows [lo, hi) of `block` into spill order and serializes them as
/// a ColumnarRun. Row r's emission position is MakeSpillPos-style
/// `local_base + (r - lo)` packed by the caller via `make_pos`; the rows
/// of [lo, hi) must be in emission order (they are — row index is local
/// emission position). Values serialize here, at spill time only.
template <typename Key, typename Value, typename MakePos>
ColumnarRun SortedRunFromBlock(const KVBlock<Key, Value>& block,
                               std::size_t lo, std::size_t hi,
                               MakePos make_pos) {
  const std::size_t n = hi - lo;
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::size_t ra = lo + a, rb = lo + b;
              if (block.hash(ra) != block.hash(rb)) {
                return block.hash(ra) < block.hash(rb);
              }
              const int c = block.key_bytes(ra).compare(block.key_bytes(rb));
              if (c != 0) return c < 0;
              return a < b;  // row order == emission order == pos order
            });
  ColumnarRun run;
  run.hashes.reserve(n);
  run.positions.reserve(n);
  for (const std::uint32_t j : order) {
    const std::size_t r = lo + j;
    run.hashes.push_back(block.hash(r));
    run.positions.push_back(make_pos(j));
    run.keys.Append(block.key_bytes(r));
    run.values.AppendSerialized(block.value(r));
  }
  return run;
}

}  // namespace mrcost::storage

namespace mrcost::common {

/// ByteSizeOf overloads for the block types, so blocks and runs plug into
/// the same footprint accounting (budgets, metrics) as every other value.
inline std::size_t ByteSizeOf(const storage::ColumnarRun& run) {
  return run.ByteSize();
}

template <typename Key, typename Value>
std::size_t ByteSizeOf(const storage::KVBlock<Key, Value>& block) {
  return block.ByteSize();
}

}  // namespace mrcost::common

#endif  // MRCOST_STORAGE_BLOCK_H_
