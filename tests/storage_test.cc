#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/engine/shuffle.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/run_writer.h"
#include "src/storage/serde.h"
#include "src/storage/spill_file.h"

namespace mrcost::storage {
namespace {

/// Per-process scratch directory; removed by the last test that uses it.
std::string TestDir() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mrcost-storage-test-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string TestPath(const std::string& name) {
  return (std::filesystem::path(TestDir()) / name).string();
}

// -------------------------------------------------------------- serde

template <typename T>
T RoundTrip(const T& value) {
  std::string bytes;
  SerializeValue(value, bytes);
  const char* p = bytes.data();
  const char* end = p + bytes.size();
  T out{};
  EXPECT_TRUE(DeserializeValue(p, end, out));
  EXPECT_EQ(p, end) << "deserialize must consume every byte";
  return out;
}

TEST(Serde, RoundTripsEngineKeyAndValueTypes) {
  EXPECT_EQ(RoundTrip(std::uint64_t{42}), 42u);
  EXPECT_EQ(RoundTrip(std::int32_t{-7}), -7);
  EXPECT_EQ(RoundTrip(std::string()), "");
  EXPECT_EQ(RoundTrip(std::string("hello")), "hello");
  EXPECT_EQ(RoundTrip(std::string(1000, 'x')), std::string(1000, 'x'));
  EXPECT_EQ(RoundTrip(std::vector<int>{1, 2, 3}),
            (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(RoundTrip(std::vector<std::vector<int>>{{1}, {}, {2, 3}}),
            (std::vector<std::vector<int>>{{1}, {}, {2, 3}}));
  // The join drivers' shuffle value: (atom index, tuple).
  const std::pair<int, std::vector<std::int32_t>> tuple_value{2, {5, -1, 9}};
  EXPECT_EQ(RoundTrip(tuple_value), tuple_value);
  const std::tuple<int, std::string, double> mixed{1, "ab", 2.5};
  EXPECT_EQ(RoundTrip(mixed), mixed);
}

TEST(Serde, TruncatedInputFailsCleanly) {
  std::string bytes;
  SerializeValue(std::pair<std::uint64_t, std::string>{7, "payload"}, bytes);
  // Every strict prefix must fail, never read past `end`, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const char* p = bytes.data();
    const char* end = p + cut;
    std::pair<std::uint64_t, std::string> out;
    EXPECT_FALSE(DeserializeValue(p, end, out)) << "cut=" << cut;
  }
}

TEST(Serde, CorruptVectorCountCannotForceHugeAllocation) {
  std::string bytes;
  SerializeValue(std::vector<int>{1, 2, 3}, bytes);
  // Overwrite the count with a huge value: must fail, not allocate.
  const std::uint64_t huge = ~std::uint64_t{0};
  bytes.replace(0, sizeof(huge),
                reinterpret_cast<const char*>(&huge), sizeof(huge));
  const char* p = bytes.data();
  std::vector<int> out;
  EXPECT_FALSE(DeserializeValue(p, p + bytes.size(), out));
}

// --------------------------------------------------------- spill file

TEST(SpillFile, Crc32KnownAnswer) {
  // The IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(SpillFile, BlocksRoundTrip) {
  const std::string path = TestPath("roundtrip.spill");
  auto writer = SpillFileWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->AppendBlock("first block").ok());
  ASSERT_TRUE(writer->AppendBlock(std::string(100000, 'z')).ok());
  ASSERT_TRUE(writer->AppendBlock("").ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_GT(writer->bytes_written(), 100000u);

  auto reader = SpillFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::string payload;
  bool done = false;
  ASSERT_TRUE(reader->Next(payload, done).ok());
  ASSERT_FALSE(done);
  EXPECT_EQ(payload, "first block");
  ASSERT_TRUE(reader->Next(payload, done).ok());
  EXPECT_EQ(payload, std::string(100000, 'z'));
  ASSERT_TRUE(reader->Next(payload, done).ok());
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(reader->Next(payload, done).ok());
  EXPECT_TRUE(done);
}

TEST(SpillFile, MissingFileIsNotFound) {
  auto reader = SpillFileReader::Open(TestPath("does-not-exist.spill"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), common::StatusCode::kNotFound);
}

/// Writes a spill-file header with the given version followed by one
/// framed block, as a writer of that version would have.
void WriteVersionedFile(const std::string& path, std::uint32_t version) {
  const std::string payload = "payload";
  const std::uint32_t words[4] = {
      kSpillMagic, version, static_cast<std::uint32_t>(payload.size()),
      Crc32(payload.data(), payload.size())};
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(words), sizeof(words));
  out << payload;
}

TEST(SpillFile, BadMagicRejected) {
  const std::string path = TestPath("badmagic.spill");
  std::ofstream(path, std::ios::binary) << "XXXXYYYYsome bytes";
  auto reader = SpillFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SpillFile, TruncatedHeaderAndBlockReturnOutOfRange) {
  const std::string path = TestPath("truncated.spill");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t magic = kSpillMagic;
    out.write(reinterpret_cast<const char*>(&magic), 2);  // half a magic
  }
  auto reader = SpillFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), common::StatusCode::kOutOfRange);

  // A valid header + block, then the file cut mid-payload.
  auto writer = SpillFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendBlock("a payload that will be cut").ok());
  ASSERT_TRUE(writer->Close().ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5);
  auto cut = SpillFileReader::Open(path);
  ASSERT_TRUE(cut.ok());
  std::string payload;
  bool done = false;
  const auto status = cut->Next(payload, done);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kOutOfRange);
}

TEST(SpillFile, FlippedByteFailsCrc) {
  const std::string path = TestPath("corrupt.spill");
  auto writer = SpillFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendBlock("sensitive payload bytes").ok());
  ASSERT_TRUE(writer->Close().ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);  // inside the payload
    f.put('!');
  }
  auto reader = SpillFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::string payload;
  bool done = false;
  const auto status = reader->Next(payload, done);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInternal);
}

// ----------------------------------------------------- columnar blocks

/// The four key distributions of the PR 2 shuffle harness: the regimes
/// where an external merge could diverge from the in-memory reference.
enum class KeyDist { kUniform, kZipf, kAllSame, kAllDistinct };

const char* Name(KeyDist dist) {
  switch (dist) {
    case KeyDist::kUniform: return "uniform";
    case KeyDist::kZipf: return "zipf";
    case KeyDist::kAllSame: return "all-same";
    case KeyDist::kAllDistinct: return "all-distinct";
  }
  return "?";
}

std::vector<std::vector<std::pair<std::uint64_t, int>>> RandomChunks(
    KeyDist dist, std::uint64_t seed) {
  common::SplitMix64 rng(seed);
  const common::ZipfDistribution zipf(64, 1.3);
  const std::size_t num_chunks = 1 + rng.UniformBelow(8);
  std::vector<std::vector<std::pair<std::uint64_t, int>>> chunks(num_chunks);
  int serial = 0;
  for (auto& chunk : chunks) {
    const std::size_t size = rng.UniformBelow(400);
    chunk.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      std::uint64_t key = 0;
      switch (dist) {
        case KeyDist::kUniform: key = rng.UniformBelow(150); break;
        case KeyDist::kZipf: key = zipf.Sample(rng); break;
        case KeyDist::kAllSame: key = 42; break;
        case KeyDist::kAllDistinct:
          key = static_cast<std::uint64_t>(serial);
          break;
      }
      chunk.emplace_back(key, serial++);
    }
  }
  return chunks;
}

TEST(Varint, RoundTripsAndRejectsTruncation) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 44, ~std::uint64_t{0}}) {
    std::string bytes;
    PutVarint(v, bytes);
    const char* p = bytes.data();
    std::uint64_t out = 0;
    ASSERT_TRUE(GetVarint(p, bytes.data() + bytes.size(), out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(p, bytes.data() + bytes.size());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const char* q = bytes.data();
      EXPECT_FALSE(GetVarint(q, bytes.data() + cut, out)) << "cut=" << cut;
    }
  }
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                               std::int64_t{1}, std::int64_t{1} << 50,
                               -(std::int64_t{1} << 50)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(Codec, Lz77RoundTripsAssortedPayloads) {
  const Codec& lz = Lz77Codec();
  common::SplitMix64 rng(3);
  std::string random_bytes(2000, '\0');
  for (char& c : random_bytes) {
    c = static_cast<char>(rng.UniformBelow(256));
  }
  const std::vector<std::string> payloads = {
      "", "a", "abc", std::string(100000, 'z'),
      "abcabcabcabcabcabcabcabc", random_bytes,
      std::string(17, 'x') + random_bytes + std::string(17, 'x')};
  for (const std::string& raw : payloads) {
    std::string compressed;
    lz.Compress(raw, compressed);
    std::string back;
    ASSERT_TRUE(lz.Decompress(compressed, raw.size(), back).ok());
    EXPECT_EQ(back, raw);
  }
  // Redundant input must actually shrink.
  std::string compressed;
  lz.Compress(std::string(100000, 'z'), compressed);
  EXPECT_LT(compressed.size(), 1000u);
  // Corrupt streams surface a Status, never garbage or a crash.
  lz.Compress("abcabcabcabcabcabcabcabc", compressed);
  std::string back;
  for (std::size_t cut = 0; cut < compressed.size(); ++cut) {
    EXPECT_FALSE(
        lz.Decompress(std::string_view(compressed.data(), cut), 24, back)
            .ok())
        << "cut=" << cut;
  }
}

/// An owning record for building test runs: the block convention's hash
/// (HashBytes over the serialized key, which decoded blocks reproduce),
/// the global emission position, and the serialized key and value bytes.
struct TestRecord {
  std::uint64_t hash = 0;
  std::uint64_t pos = 0;
  std::string key;
  std::string value;

  RecordView view() const { return RecordView{hash, pos, key, value}; }
};

TestRecord MakeRecord(std::uint64_t key, int value, std::uint64_t pos) {
  TestRecord rec;
  rec.pos = pos;
  SerializeValue(key, rec.key);
  rec.hash = HashBytes(rec.key);
  SerializeValue(value, rec.value);
  return rec;
}

ColumnarRun RunFromRecords(std::vector<TestRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TestRecord& a, const TestRecord& b) {
              return RecordViewLess(a.view(), b.view());
            });
  ColumnarRun run;
  for (const TestRecord& rec : records) run.Append(rec.view());
  return run;
}

std::vector<TestRecord> BlockRecordsFor(KeyDist dist, std::uint64_t seed) {
  std::vector<TestRecord> records;
  std::uint32_t chunk_id = 0;
  for (const auto& chunk : RandomChunks(dist, seed)) {
    std::uint64_t local = 0;
    for (const auto& [key, value] : chunk) {
      records.push_back(
          MakeRecord(key, value, MakeSpillPos(chunk_id, local++)));
    }
    ++chunk_id;
  }
  return records;
}

TEST(BlockCodec, RoundTripsAcrossKeyDistributions) {
  // Every distribution, both codecs: encode the sorted run as one block,
  // decode it, and require every column back exactly — the hash column
  // included, which the decoder recomputes rather than reads.
  for (KeyDist dist : {KeyDist::kUniform, KeyDist::kZipf, KeyDist::kAllSame,
                       KeyDist::kAllDistinct}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ColumnarRun run = RunFromRecords(BlockRecordsFor(dist, seed));
      for (const Codec* codec : {&IdentityCodec(), &Lz77Codec()}) {
        SCOPED_TRACE(std::string(codec->name()) + " seed=" +
                     std::to_string(seed));
        std::string payload;
        BlockEncodeStats stats;
        EncodeBlock(run, 0, run.rows(), *codec, payload, stats);
        EXPECT_EQ(stats.blocks, 1u);
        ColumnarRun back;
        ASSERT_TRUE(DecodeBlock(payload, back).ok());
        ASSERT_EQ(back.rows(), run.rows());
        for (std::size_t i = 0; i < run.rows(); ++i) {
          ASSERT_EQ(back.hashes[i], run.hashes[i]) << i;
          ASSERT_EQ(back.positions[i], run.positions[i]) << i;
          ASSERT_EQ(back.keys.At(i), run.keys.At(i)) << i;
          ASSERT_EQ(back.values.At(i), run.values.At(i)) << i;
        }
      }
    }
  }
}

TEST(BlockCodec, DictionaryKicksInForLowCardinality) {
  const ColumnarRun same =
      RunFromRecords(BlockRecordsFor(KeyDist::kAllSame, 5));
  ASSERT_GT(same.rows(), 2u);
  std::string payload;
  BlockEncodeStats stats;
  EncodeBlock(same, 0, same.rows(), IdentityCodec(), payload, stats);
  EXPECT_EQ(stats.dict_blocks, 1u);
  // One dictionary entry replaces every per-row key: far below raw.
  EXPECT_LT(stats.encoded_bytes,
            same.keys.bytes().size() + same.rows() * 8);

  const ColumnarRun distinct =
      RunFromRecords(BlockRecordsFor(KeyDist::kAllDistinct, 5));
  stats = {};
  EncodeBlock(distinct, 0, distinct.rows(), IdentityCodec(), payload,
              stats);
  EXPECT_EQ(stats.dict_blocks, 0u);
}

TEST(BlockCodec, CorruptPayloadSurfacesStatusNotCrash) {
  const ColumnarRun run =
      RunFromRecords(BlockRecordsFor(KeyDist::kUniform, 7));
  std::string payload;
  BlockEncodeStats stats;
  EncodeBlock(run, 0, run.rows(), Lz77Codec(), payload, stats);
  ColumnarRun back;
  // Unknown codec id.
  std::string bad = payload;
  bad[0] = 42;
  EXPECT_FALSE(DecodeBlock(bad, back).ok());
  // Every truncation of the payload fails cleanly.
  for (std::size_t cut = 0; cut < payload.size(); cut += 7) {
    EXPECT_FALSE(
        DecodeBlock(std::string_view(payload.data(), cut), back).ok())
        << "cut=" << cut;
  }
  // Bit flips inside the compressed body: either the codec or the body
  // parser must reject or produce a clean decode — never crash. (The CRC
  // frame normally catches these; this exercises the layer below it.)
  for (std::size_t i = 2; i < bad.size(); i += 11) {
    bad = payload;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    ColumnarRun scratch;
    DecodeBlock(bad, scratch).ok();  // must not crash; status is free
  }
}

TEST(BlockSpill, WriterRoundTripsThroughDiskSource) {
  RunSpiller spiller(TestDir());
  ColumnarRun run = RunFromRecords(BlockRecordsFor(KeyDist::kZipf, 11));
  const ColumnarRun expect =
      RunFromRecords(BlockRecordsFor(KeyDist::kZipf, 11));
  ASSERT_TRUE(spiller.SpillBlockRun(run).ok());
  EXPECT_TRUE(run.empty()) << "spill consumes the run";
  EXPECT_EQ(spiller.spill_runs(), 1u);
  EXPECT_GT(spiller.bytes_written(), 0u);
  EXPECT_GT(spiller.encode_stats().blocks, 0u);

  DiskBlockRunSource source(spiller.spill_run_paths()[0]);
  std::size_t i = 0;
  while (const RecordView* rec = source.Peek()) {
    ASSERT_LT(i, expect.rows());
    EXPECT_EQ(rec->hash, expect.hashes[i]);
    EXPECT_EQ(rec->pos, expect.positions[i]);
    EXPECT_EQ(rec->key, expect.keys.At(i));
    EXPECT_EQ(rec->value, expect.values.At(i));
    source.Advance();
    ++i;
  }
  ASSERT_TRUE(source.status().ok()) << source.status();
  EXPECT_EQ(i, expect.rows());
}

TEST(RunSpiller, RemovesItsFilesOnDestruction) {
  // Spilled runs and merge rewrites alike are owned by the spiller.
  std::vector<std::string> paths;
  {
    RunSpiller spiller(TestDir());
    ColumnarRun run = RunFromRecords({MakeRecord(1, 1, 1)});
    ASSERT_TRUE(spiller.SpillBlockRun(run).ok());
    auto rewrite = spiller.NewBlockRun();
    ASSERT_TRUE(rewrite.ok()) << rewrite.status();
    ASSERT_TRUE(rewrite->Append(MakeRecord(2, 2, 2).view()).ok());
    ASSERT_TRUE(spiller.CloseBlockRun(*rewrite).ok());
    EXPECT_EQ(spiller.spill_runs(), 1u);  // rewrites are not spills
    paths = spiller.run_paths();
    ASSERT_EQ(paths.size(), 2u);
    for (const std::string& path : paths) {
      EXPECT_TRUE(std::filesystem::exists(path)) << path;
    }
  }
  for (const std::string& path : paths) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
}

TEST(BlockLoserTree, EmptyAndSingleSource) {
  BlockLoserTree empty({});
  EXPECT_EQ(empty.Peek(), nullptr);
  EXPECT_TRUE(empty.status().ok());

  // One source pops exactly its own (sorted) row order.
  const std::vector<TestRecord> records = {MakeRecord(5, 50, 1),
                                           MakeRecord(2, 20, 0)};
  const ColumnarRun expect = RunFromRecords(records);
  MemoryBlockRunSource source(RunFromRecords(records));
  BlockLoserTree tree({&source});
  for (std::size_t i = 0; i < expect.rows(); ++i) {
    const RecordView* rec = tree.Peek();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->pos, expect.positions[i]);
    EXPECT_EQ(rec->key, expect.keys.At(i));
    EXPECT_EQ(rec->value, expect.values.At(i));
    tree.Pop();
  }
  EXPECT_EQ(tree.Peek(), nullptr);
  EXPECT_TRUE(tree.status().ok());
}

TEST(BlockLoserTree, MergesManySourcesInOrder) {
  // 7 sources with interleaved keys; positions globally unique.
  common::SplitMix64 rng(13);
  std::vector<std::vector<TestRecord>> runs(7);
  for (std::uint64_t pos = 0; pos < 500; ++pos) {
    runs[rng.UniformBelow(7)].push_back(
        MakeRecord(rng.UniformBelow(40), static_cast<int>(pos), pos));
  }
  std::vector<MemoryBlockRunSource> owned;
  owned.reserve(runs.size());
  for (auto& run : runs) owned.emplace_back(RunFromRecords(std::move(run)));
  std::vector<BlockRunSource*> sources;
  for (auto& source : owned) sources.push_back(&source);
  BlockLoserTree tree(sources);
  TestRecord prev;
  std::size_t count = 0;
  while (const RecordView* rec = tree.Peek()) {
    TestRecord cur{rec->hash, rec->pos, std::string(rec->key),
                   std::string(rec->value)};
    if (count > 0) {
      EXPECT_TRUE(RecordViewLess(prev.view(), cur.view()));
    }
    prev = std::move(cur);
    ++count;
    tree.Pop();
  }
  EXPECT_EQ(count, 500u);
  EXPECT_TRUE(tree.status().ok());
}

TEST(BlockSpill, TruncatedAndCorruptedRunsSurfaceStatus) {
  // Truncation mid-frame: kOutOfRange from the frame layer.
  RunSpiller spiller(TestDir());
  ColumnarRun run = RunFromRecords(BlockRecordsFor(KeyDist::kUniform, 13));
  ASSERT_TRUE(spiller.SpillBlockRun(run).ok());
  const std::string path = spiller.spill_run_paths()[0];
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  {
    DiskBlockRunSource source(path);
    while (source.Peek() != nullptr) source.Advance();
    ASSERT_FALSE(source.status().ok());
    EXPECT_EQ(source.status().code(), common::StatusCode::kOutOfRange);
  }
  // A flipped byte inside the compressed frame: the CRC catches it
  // (kInternal) before the codec ever sees the bytes.
  ColumnarRun again = RunFromRecords(BlockRecordsFor(KeyDist::kUniform, 13));
  ASSERT_TRUE(spiller.SpillBlockRun(again).ok());
  const std::string path2 = spiller.spill_run_paths()[1];
  {
    std::fstream f(path2, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);
    f.put('!');
  }
  {
    DiskBlockRunSource source(path2);
    while (source.Peek() != nullptr) source.Advance();
    ASSERT_FALSE(source.status().ok());
    EXPECT_EQ(source.status().code(), common::StatusCode::kInternal);
  }
  // A run file with the retired version-1 (record-format) header: the
  // reader refuses it before the block decoder sees a byte.
  const std::string v1_path = TestPath("v1.run");
  WriteVersionedFile(v1_path, 1);
  {
    DiskBlockRunSource source(v1_path);
    EXPECT_EQ(source.Peek(), nullptr);
    EXPECT_EQ(source.status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

TEST(BlockMerge, CorruptRunSurfacesStatusNotCrash) {
  // A run truncated mid-frame fails the whole merge with kOutOfRange
  // instead of yielding partial groups or crashing.
  RunSpiller spiller(TestDir());
  std::vector<TestRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(MakeRecord(static_cast<std::uint64_t>(i), i,
                                 static_cast<std::uint64_t>(i)));
  }
  ColumnarRun run = RunFromRecords(std::move(records));
  ASSERT_TRUE(spiller.SpillBlockRun(run).ok());
  const std::string path = spiller.spill_run_paths()[0];
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);

  std::vector<std::unique_ptr<BlockRunSource>> sources;
  sources.push_back(std::make_unique<DiskBlockRunSource>(path));
  SpillStats stats;
  auto merged = MergeBlockRunsToGroups<std::uint64_t, int>(
      std::move(sources), spiller, kDefaultMergeFanIn, stats);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), common::StatusCode::kOutOfRange);
}

TEST(BlockMerge, MatchesSerialShuffleAcrossDistributions) {
  // The block merge, reordered by first-seen position, must reproduce the
  // serial reference shuffle exactly: same keys, same group contents, same
  // global first-seen order — for every distribution, spilled and
  // in-memory runs mixed, with a fan-in small enough to force multi-pass
  // rewrites.
  for (KeyDist dist : {KeyDist::kUniform, KeyDist::kZipf, KeyDist::kAllSame,
                       KeyDist::kAllDistinct}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(Name(dist)) + " seed=" +
                   std::to_string(seed));
      const auto records = BlockRecordsFor(dist, seed);
      // Deal records round-robin into 5 runs; spill runs 0-2, keep 3-4 in
      // memory.
      std::vector<std::vector<TestRecord>> runs(5);
      for (std::size_t i = 0; i < records.size(); ++i) {
        runs[i % runs.size()].push_back(records[i]);
      }
      RunSpiller spiller(TestDir());
      std::vector<std::unique_ptr<BlockRunSource>> sources;
      for (std::size_t r = 0; r < runs.size(); ++r) {
        ColumnarRun run = RunFromRecords(std::move(runs[r]));
        if (r < 3) {
          ASSERT_TRUE(spiller.SpillBlockRun(run).ok());
          sources.push_back(std::make_unique<DiskBlockRunSource>(
              spiller.spill_run_paths().back()));
        } else {
          sources.push_back(
              std::make_unique<MemoryBlockRunSource>(std::move(run)));
        }
      }
      SpillStats stats;
      auto merged = MergeBlockRunsToGroups<std::uint64_t, int>(
          std::move(sources), spiller, /*max_fan_in=*/2, stats);
      ASSERT_TRUE(merged.ok()) << merged.status();
      EXPECT_GT(stats.merge_passes, 1u);
      const auto grouped = engine::internal::ReorderByFirstSeen(*merged);

      auto chunks = RandomChunks(dist, seed);
      const auto serial = engine::SerialShuffle(chunks);
      EXPECT_EQ(grouped.keys, serial.keys);
      EXPECT_EQ(grouped.groups, serial.groups);
    }
  }
}

TEST(SpillFile, BlockFormatVersionAcceptedUnknownRejected) {
  // Writers write version 2, the only version readers accept: the
  // retired version 1 (record payloads) and unknown versions alike fail
  // Open with kInvalidArgument.
  const std::string path = TestPath("v2.spill");
  auto writer = SpillFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendBlock("payload").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader = SpillFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::string payload;
  bool done = false;
  ASSERT_TRUE(reader->Next(payload, done).ok());
  EXPECT_EQ(payload, "payload");

  for (const std::uint32_t version : {1u, 99u}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    WriteVersionedFile(path, version);
    auto rejected = SpillFileReader::Open(path);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

/// Removes the per-process scratch directory. gtest runs suites in
/// declaration order within a file, so keep this test last.
TEST(ZCleanup, RemoveTestDir) {
  std::error_code ec;
  std::filesystem::remove_all(TestDir(), ec);
  EXPECT_FALSE(ec) << ec.message();
}

}  // namespace
}  // namespace mrcost::storage
