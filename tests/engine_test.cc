#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/byte_size.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/core/lower_bound.h"
#include "src/engine/emitter.h"
#include "src/engine/hashing.h"
#include "src/engine/job.h"
#include "src/engine/metrics.h"
#include "src/engine/plan.h"
#include "src/engine/shuffle.h"
#include "src/engine/simulator.h"
#include "src/storage/block.h"

namespace mrcost::engine {
namespace {

// ------------------------------------------------------------ hashing

TEST(Hashing, IntegralStability) {
  EXPECT_EQ(HashValue(42), HashValue(42));
  EXPECT_NE(HashValue(42), HashValue(43));
}

TEST(Hashing, PairAndTuple) {
  EXPECT_EQ(HashValue(std::pair{1, 2}), HashValue(std::pair{1, 2}));
  EXPECT_NE(HashValue(std::pair{1, 2}), HashValue(std::pair{2, 1}));
  EXPECT_EQ(HashValue(std::tuple{1, 2, 3}), HashValue(std::tuple{1, 2, 3}));
  EXPECT_NE(HashValue(std::tuple{1, 2, 3}), HashValue(std::tuple{3, 2, 1}));
}

TEST(Hashing, Strings) {
  EXPECT_EQ(HashValue(std::string("abc")), HashValue(std::string("abc")));
  EXPECT_NE(HashValue(std::string("abc")), HashValue(std::string("abd")));
  EXPECT_NE(HashValue(std::string()), HashValue(std::string("a")));
}

TEST(Hashing, Vectors) {
  EXPECT_NE(HashValue(std::vector<int>{1, 2}),
            HashValue(std::vector<int>{2, 1}));
  EXPECT_NE(HashValue(std::vector<int>{}),
            HashValue(std::vector<int>{0}));
}

// ---------------------------------------------------------- byte size

TEST(ByteSize, TriviallyCopyable) {
  EXPECT_EQ(common::ByteSizeOf(1), sizeof(int));
  EXPECT_EQ(common::ByteSizeOf(1.0), sizeof(double));
}

TEST(ByteSize, Composites) {
  // The in-memory footprint convention of src/common/byte_size.h:
  // composites sum their members, containers count their object plus the
  // heap payload their elements own.
  EXPECT_EQ(common::ByteSizeOf(std::pair<int, double>{1, 2.0}),
            sizeof(int) + sizeof(double));
  EXPECT_EQ(common::ByteSizeOf(std::vector<int>{1, 2, 3}),
            sizeof(std::vector<int>) + 3 * sizeof(int));
  EXPECT_EQ(common::ByteSizeOf(std::pair<int, std::vector<int>>{1, {2, 3}}),
            sizeof(int) + sizeof(std::vector<int>) + 2 * sizeof(int));
}

TEST(ByteSize, StringSmallBufferConvention) {
  // Strings at or under the modeled SSO capacity cost only the object;
  // longer strings add their heap payload.
  EXPECT_EQ(common::ByteSizeOf(std::string("hello")), sizeof(std::string));
  const std::string sso_edge(common::kStringSsoCapacity, 'x');
  EXPECT_EQ(common::ByteSizeOf(sso_edge), sizeof(std::string));
  const std::string heap(common::kStringSsoCapacity + 1, 'x');
  EXPECT_EQ(common::ByteSizeOf(heap),
            sizeof(std::string) + common::kStringSsoCapacity + 1);
  // A vector of heap strings prices both levels of the hierarchy.
  const std::vector<std::string> v{heap, heap};
  EXPECT_EQ(common::ByteSizeOf(v),
            sizeof(std::vector<std::string>) + 2 * common::ByteSizeOf(heap));
}

TEST(ByteSize, StringViewConvention) {
  // A view prices the view object plus the full viewed payload — no SSO
  // discount, because the viewed bytes always live somewhere else (a
  // block's key arena, typically) regardless of their length.
  EXPECT_EQ(common::ByteSizeOf(std::string_view{}), sizeof(std::string_view));
  EXPECT_EQ(common::ByteSizeOf(std::string_view{"abc"}),
            sizeof(std::string_view) + 3);
  const std::string heap(100, 'x');
  EXPECT_EQ(common::ByteSizeOf(std::string_view{heap}),
            sizeof(std::string_view) + 100);
}

TEST(ByteSize, BlockTypesConvention) {
  // Blocks and runs follow the same convention: object plus every owned
  // payload. An empty block is just the object plus its slab's offset
  // sentinel.
  storage::KVBlock<std::string, std::uint64_t> block;
  EXPECT_EQ(common::ByteSizeOf(block),
            sizeof(block) + sizeof(std::uint64_t));  // offset sentinel
  block.Append(std::string("hello block"), 7);
  const std::size_t key_arena = block.keys().bytes().size();
  EXPECT_EQ(common::ByteSizeOf(block),
            sizeof(block) + key_arena + 2 * sizeof(std::uint64_t)  // offsets
                + sizeof(std::uint64_t)                            // hash
                + sizeof(std::uint64_t));                          // value

  storage::ColumnarRun run;
  EXPECT_EQ(common::ByteSizeOf(run),
            sizeof(run) + 2 * sizeof(std::uint64_t));  // two slab sentinels
}

// ------------------------------------------------------------- emitter

TEST(Emitter, EmitBatchEmptyBatchIsNoOp) {
  Emitter<int, int> emitter;
  std::uint64_t flushes = 0;
  // Budget 0: any flush-eligible call would trigger the sink at once.
  emitter.SetOverflow(0, [&flushes](Emitter<int, int>::Block&) { ++flushes; });
  Emitter<int, int>::Batch batch;
  emitter.EmitBatch(batch);
  EXPECT_EQ(emitter.num_emitted(), 0u);
  EXPECT_EQ(emitter.bytes(), 0u);
  EXPECT_EQ(emitter.blocks_emitted(), 0u);
  EXPECT_EQ(flushes, 0u);  // empty batch must not trigger a flush
}

TEST(Emitter, EmitBatchExactlyAtFlushBoundary) {
  // Budget equal to the batch's exact ByteSizeOf: the batch lands and the
  // block flushes once, leaving the buffer empty (>= boundary, not >).
  Emitter<int, int> emitter;
  Emitter<int, int>::Batch batch{{1, 10}, {2, 20}};
  std::uint64_t batch_bytes = 0;
  for (const auto& [k, v] : batch) {
    batch_bytes += common::ByteSizeOf(k) + common::ByteSizeOf(v);
  }
  std::uint64_t flushes = 0;
  std::uint64_t flushed_rows = 0;
  emitter.SetOverflow(batch_bytes,
                      [&](Emitter<int, int>::Block& block) {
                        ++flushes;
                        flushed_rows += block.rows();
                      });
  emitter.EmitBatch(batch);
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(flushed_rows, 2u);
  EXPECT_TRUE(emitter.block().empty());
  EXPECT_EQ(emitter.num_emitted(), 2u);
  EXPECT_EQ(emitter.bytes(), batch_bytes);
  EXPECT_EQ(emitter.blocks_emitted(), 1u);
}

TEST(Emitter, EmitBatchReusesMovedFromBatch) {
  // EmitBatch consumes the batch but keeps its capacity, so one buffer
  // can be refilled across inputs (the thread_local pattern the graph
  // and join mappers use).
  Emitter<std::string, int> emitter;
  Emitter<std::string, int>::Batch batch;
  batch.emplace_back(std::string(64, 'a'), 1);
  batch.emplace_back(std::string(64, 'b'), 2);
  emitter.EmitBatch(batch);
  EXPECT_TRUE(batch.empty());
  const std::size_t kept_capacity = batch.capacity();
  EXPECT_GE(kept_capacity, 2u);

  // Refill the moved-from slots and emit again: the second round must be
  // fully counted and must not disturb the first round's rows.
  batch.emplace_back(std::string(64, 'c'), 3);
  batch.emplace_back(std::string(64, 'd'), 4);
  emitter.EmitBatch(batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), kept_capacity);
  EXPECT_EQ(emitter.num_emitted(), 4u);
  ASSERT_EQ(emitter.block().rows(), 4u);
  EXPECT_EQ(emitter.block().value(0), 1);
  EXPECT_EQ(emitter.block().value(3), 4);
  EXPECT_EQ(emitter.block().KeyAt(0), std::string(64, 'a'));
  EXPECT_EQ(emitter.block().KeyAt(3), std::string(64, 'd'));
}

// ---------------------------------------------------------------- job

/// A toy job: map each integer x to key x % modulus; reducer sums values.
JobResult<std::pair<int, std::int64_t>> SumByResidue(
    const std::vector<int>& inputs, int modulus, const JobOptions& options) {
  auto map_fn = [modulus](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x % modulus, x);
  };
  auto reduce_fn = [](const int& key, const std::vector<int>& values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t sum = 0;
    for (int v : values) sum += v;
    out.emplace_back(key, sum);
  };
  return RunMapReduce<int, int, int, std::pair<int, std::int64_t>>(
      inputs, map_fn, reduce_fn, options);
}

TEST(Job, BasicGroupingAndMetrics) {
  std::vector<int> inputs(100);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto result = SumByResidue(inputs, 10, {});
  ASSERT_EQ(result.outputs.size(), 10u);
  std::int64_t total = 0;
  for (const auto& [key, sum] : result.outputs) total += sum;
  EXPECT_EQ(total, 99 * 100 / 2);

  const JobMetrics& m = result.metrics;
  EXPECT_EQ(m.num_inputs, 100u);
  EXPECT_EQ(m.pairs_shuffled, 100u);  // one pair per input
  EXPECT_EQ(m.num_reducers, 10u);
  EXPECT_EQ(m.max_reducer_input, 10u);
  EXPECT_DOUBLE_EQ(m.replication_rate(), 1.0);
  EXPECT_EQ(m.num_outputs, 10u);
}

TEST(Job, ReplicationRateCountsAllEmits) {
  // Map each input to 3 distinct keys: r must be exactly 3.
  std::vector<int> inputs(50);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, x);
    emitter.Emit(x + 1000, x);
    emitter.Emit(x + 2000, x);
  };
  auto reduce_fn = [](const int& key, const std::vector<int>& values,
                      std::vector<int>& out) {
    (void)key;
    out.push_back(static_cast<int>(values.size()));
  };
  auto result =
      RunMapReduce<int, int, int, int>(inputs, map_fn, reduce_fn, {});
  EXPECT_DOUBLE_EQ(result.metrics.replication_rate(), 3.0);
  EXPECT_EQ(result.metrics.num_reducers, 150u);
}

TEST(Job, ValueOrderIsInputOrder) {
  // All inputs to one key; values must arrive in input order regardless of
  // the number of map threads.
  std::vector<int> inputs(1000);
  std::iota(inputs.begin(), inputs.end(), 0);
  for (std::size_t threads : {1u, 4u, 16u}) {
    JobOptions options;
    options.num_threads = threads;
    auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
      emitter.Emit(0, x);
    };
    auto reduce_fn = [](const int&, const std::vector<int>& values,
                        std::vector<std::vector<int>>& out) {
      out.push_back(values);
    };
    auto result = RunMapReduce<int, int, int, std::vector<int>>(
        inputs, map_fn, reduce_fn, options);
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0], inputs) << "threads=" << threads;
  }
}

TEST(Job, DeterministicAcrossThreadCounts) {
  std::vector<int> inputs(997);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions one;
  one.num_threads = 1;
  JobOptions many;
  many.num_threads = 8;
  auto a = SumByResidue(inputs, 13, one);
  auto b = SumByResidue(inputs, 13, many);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.metrics.pairs_shuffled, b.metrics.pairs_shuffled);
  EXPECT_EQ(a.metrics.num_reducers, b.metrics.num_reducers);
}

TEST(Job, EmptyInput) {
  auto result = SumByResidue({}, 10, {});
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(result.metrics.num_inputs, 0u);
  EXPECT_EQ(result.metrics.pairs_shuffled, 0u);
  EXPECT_EQ(result.metrics.replication_rate(), 0.0);
}

TEST(Job, MapCanEmitNothing) {
  std::vector<int> inputs{1, 2, 3};
  auto map_fn = [](const int&, Emitter<int, int>&) {};
  auto reduce_fn = [](const int&, const std::vector<int>&,
                      std::vector<int>&) {};
  auto result =
      RunMapReduce<int, int, int, int>(inputs, map_fn, reduce_fn, {});
  EXPECT_EQ(result.metrics.pairs_shuffled, 0u);
  EXPECT_EQ(result.metrics.num_reducers, 0u);
}

TEST(Job, BytesShuffledAccounting) {
  std::vector<int> inputs{1, 2, 3};
  auto map_fn = [](const int& x, Emitter<int, double>& emitter) {
    emitter.Emit(x, 1.5);
  };
  auto reduce_fn = [](const int&, const std::vector<double>&,
                      std::vector<int>&) {};
  auto result =
      RunMapReduce<int, int, double, int>(inputs, map_fn, reduce_fn, {});
  EXPECT_EQ(result.metrics.bytes_shuffled,
            3 * (sizeof(int) + sizeof(double)));
}

TEST(Job, ReducerSizeDistribution) {
  // Keys 0..4 get 1, 2, 3, 4, 5 values respectively.
  std::vector<int> inputs;
  for (int key = 0; key < 5; ++key) {
    for (int i = 0; i <= key; ++i) inputs.push_back(key);
  }
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn = [](const int&, const std::vector<int>&,
                      std::vector<int>&) {};
  auto result =
      RunMapReduce<int, int, int, int>(inputs, map_fn, reduce_fn, {});
  EXPECT_EQ(result.metrics.max_reducer_input, 5u);
  EXPECT_EQ(result.metrics.reducer_sizes.count(), 5);
  EXPECT_DOUBLE_EQ(result.metrics.reducer_sizes.mean(), 3.0);
}

TEST(Job, SimulatedWorkerLoads) {
  std::vector<int> inputs(300);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions options;
  options.simulation.num_workers = 7;
  auto result = SumByResidue(inputs, 100, options);
  EXPECT_EQ(result.metrics.worker_loads.count(), 7);
  // Loads sum to the total pairs shuffled.
  EXPECT_DOUBLE_EQ(result.metrics.worker_loads.sum(),
                   static_cast<double>(result.metrics.pairs_shuffled));
}

TEST(Job, StringKeysWork) {
  std::vector<std::string> inputs{"a", "bb", "a", "ccc", "bb", "a"};
  auto map_fn = [](const std::string& w,
                   Emitter<std::string, std::uint64_t>& emitter) {
    emitter.Emit(w, 1);
  };
  auto reduce_fn = [](const std::string& w,
                      const std::vector<std::uint64_t>& ones,
                      std::vector<std::pair<std::string, std::size_t>>& out) {
    out.emplace_back(w, ones.size());
  };
  auto result =
      RunMapReduce<std::string, std::string, std::uint64_t,
                   std::pair<std::string, std::size_t>>(inputs, map_fn,
                                                        reduce_fn, {});
  ASSERT_EQ(result.outputs.size(), 3u);
  // First-seen key order is deterministic.
  EXPECT_EQ(result.outputs[0], (std::pair<std::string, std::size_t>{"a", 3}));
  EXPECT_EQ(result.outputs[1],
            (std::pair<std::string, std::size_t>{"bb", 2}));
}

// ----------------------------------------------------------- combiner

TEST(Combiner, SameResultLessCommunication) {
  // Word-count shape: many repeated keys per chunk. The combiner must not
  // change the output but must shrink pairs_shuffled.
  std::vector<int> inputs(10000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 7);  // 7 distinct keys
  }
  auto map_fn = [](const int& x, Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, 1);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key,
                      const std::vector<std::int64_t>& values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  auto plain = RunMapReduce<int, int, std::int64_t,
                            std::pair<int, std::int64_t>>(
      inputs, map_fn, reduce_fn, {});
  auto combined = RunMapReduceCombined<int, int, std::int64_t,
                                       std::pair<int, std::int64_t>>(
      inputs, map_fn, combine_fn, reduce_fn, {});
  auto sort_pairs = [](auto& v) { std::sort(v.begin(), v.end()); };
  sort_pairs(plain.outputs);
  sort_pairs(combined.outputs);
  EXPECT_EQ(plain.outputs, combined.outputs);
  EXPECT_EQ(combined.metrics.pairs_before_combine, inputs.size());
  EXPECT_LT(combined.metrics.pairs_shuffled,
            combined.metrics.pairs_before_combine / 100);
  EXPECT_EQ(plain.metrics.pairs_before_combine,
            plain.metrics.pairs_shuffled);
}

TEST(Combiner, NoOpWhenKeysAreUnique) {
  // Join-shaped traffic (all keys distinct): a combiner cannot help — the
  // footnote-1 point that combining does not reduce schema-mandated
  // deliveries.
  std::vector<int> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, x);
  };
  auto combine_fn = [](int a, int) { return a; };
  auto reduce_fn = [](const int&, const std::vector<int>&,
                      std::vector<int>&) {};
  auto result = RunMapReduceCombined<int, int, int, int>(
      inputs, map_fn, combine_fn, reduce_fn, {});
  EXPECT_EQ(result.metrics.pairs_shuffled,
            result.metrics.pairs_before_combine);
}

TEST(Combiner, DeterministicAcrossThreadCounts) {
  std::vector<int> inputs(4321);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 13);
  }
  auto map_fn = [](const int& x, Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, x);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key,
                      const std::vector<std::int64_t>& values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  JobOptions one;
  one.num_threads = 1;
  JobOptions many;
  many.num_threads = 8;
  auto a = RunMapReduceCombined<int, int, std::int64_t,
                                std::pair<int, std::int64_t>>(
      inputs, map_fn, combine_fn, reduce_fn, one);
  auto b = RunMapReduceCombined<int, int, std::int64_t,
                                std::pair<int, std::int64_t>>(
      inputs, map_fn, combine_fn, reduce_fn, many);
  std::sort(a.outputs.begin(), a.outputs.end());
  std::sort(b.outputs.begin(), b.outputs.end());
  EXPECT_EQ(a.outputs, b.outputs);
  // Sums are thread-layout independent even though per-chunk combining
  // differs.
  EXPECT_EQ(a.metrics.pairs_before_combine, b.metrics.pairs_before_combine);
}

TEST(Combiner, EmptyInput) {
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto combine_fn = [](int a, int b) { return a + b; };
  auto reduce_fn = [](const int&, const std::vector<int>&,
                      std::vector<int>&) {};
  auto result = RunMapReduceCombined<int, int, int, int>(
      {}, map_fn, combine_fn, reduce_fn, {});
  EXPECT_EQ(result.metrics.pairs_shuffled, 0u);
  EXPECT_TRUE(result.outputs.empty());
}

// ------------------------------------------------------------ shuffle

/// Fanout-3 workload with colliding keys: enough key reuse that grouping
/// order matters and enough keys that every shard owns some.
JobResult<std::pair<int, std::uint64_t>> FanoutJob(
    const JobOptions& options) {
  std::vector<int> inputs(3000);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x % 97, x);
    emitter.Emit(x % 251, x + 1);
    emitter.Emit(x % 599, x + 2);
  };
  auto reduce_fn = [](const int& key, const std::vector<int>& values,
                      std::vector<std::pair<int, std::uint64_t>>& out) {
    // Order-sensitive fold; unsigned so the deliberate wraparound is
    // defined (the sanitized CI job runs this test under UBSan).
    auto acc = static_cast<std::uint64_t>(key);
    for (int v : values) acc = acc * 31 + static_cast<std::uint64_t>(v);
    out.emplace_back(key, acc);
  };
  return RunMapReduce<int, int, int, std::pair<int, std::uint64_t>>(
      inputs, map_fn, reduce_fn, options);
}

TEST(Shuffle, DeterministicAcrossThreadAndShardCounts) {
  JobOptions baseline;
  baseline.num_threads = 1;
  baseline.num_shards = 1;
  const auto reference = FanoutJob(baseline);
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t shards : {0u, 1u, 2u, 8u, 16u}) {
      JobOptions options;
      options.num_threads = threads;
      options.num_shards = shards;
      const auto run = FanoutJob(options);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(run.outputs, reference.outputs);
      EXPECT_EQ(run.metrics.pairs_shuffled, reference.metrics.pairs_shuffled);
      EXPECT_EQ(run.metrics.bytes_shuffled, reference.metrics.bytes_shuffled);
      EXPECT_EQ(run.metrics.num_reducers, reference.metrics.num_reducers);
      EXPECT_EQ(run.metrics.max_reducer_input,
                reference.metrics.max_reducer_input);
    }
  }
}

TEST(Shuffle, CombinedDeterministicAcrossThreadAndShardCounts) {
  std::vector<int> inputs(5000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 613);
  }
  auto map_fn = [](const int& x, Emitter<int, std::int64_t>& emitter) {
    emitter.Emit(x, x);
    emitter.Emit(x + 1000, 2 * x);
  };
  auto combine_fn = [](std::int64_t a, std::int64_t b) { return a + b; };
  auto reduce_fn = [](const int& key,
                      const std::vector<std::int64_t>& values,
                      std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (std::int64_t v : values) total += v;
    out.emplace_back(key, total);
  };
  auto run = [&](std::size_t threads, std::size_t shards) {
    JobOptions options;
    options.num_threads = threads;
    options.num_shards = shards;
    auto result = RunMapReduceCombined<int, int, std::int64_t,
                                       std::pair<int, std::int64_t>>(
        inputs, map_fn, combine_fn, reduce_fn, options);
    std::sort(result.outputs.begin(), result.outputs.end());
    return result;
  };
  const auto reference = run(1, 1);
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t shards : {1u, 4u, 16u}) {
      const auto sharded = run(threads, shards);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(sharded.outputs, reference.outputs);
      EXPECT_EQ(sharded.metrics.pairs_before_combine,
                reference.metrics.pairs_before_combine);
      // pairs_shuffled depends on the chunking (per-chunk combining), which
      // is fixed per thread count; at equal thread counts it must match.
      if (threads == 1) {
        EXPECT_EQ(sharded.metrics.pairs_shuffled,
                  reference.metrics.pairs_shuffled);
        EXPECT_EQ(sharded.metrics.bytes_shuffled,
                  reference.metrics.bytes_shuffled);
      }
    }
  }
}

TEST(Shuffle, ResolveShardCount) {
  EXPECT_EQ(ResolveShardCount(7, 4, 1 << 20), 7u);   // explicit wins
  EXPECT_EQ(ResolveShardCount(0, 1, 1 << 20), 1u);   // single thread
  EXPECT_EQ(ResolveShardCount(0, 8, 1 << 20), 8u);   // one per thread
  EXPECT_EQ(ResolveShardCount(0, 8, 100), 1u);       // tiny job stays serial
}

TEST(Shuffle, IndexOfHashRangeAndBalance) {
  for (std::size_t n : {1u, 2u, 7u, 64u}) {
    std::vector<std::uint64_t> load(n, 0);
    const std::size_t kKeys = 100000;
    for (std::size_t k = 0; k < kKeys; ++k) {
      const std::size_t idx = IndexOfHash(HashValue(k), n);
      ASSERT_LT(idx, n);
      ++load[idx];
    }
    const double mean = static_cast<double>(kKeys) / n;
    for (std::uint64_t l : load) {
      EXPECT_LT(static_cast<double>(l), 1.15 * mean) << "n=" << n;
      EXPECT_GT(static_cast<double>(l), 0.85 * mean) << "n=" << n;
    }
  }
}

TEST(Shuffle, SimulatedWorkerLoadBalance) {
  // The finalized-hash placement must spread many uniform keys evenly over
  // the simulated workers (the biased low-bit placement this replaced
  // could collapse onto a subset of workers for structured keys).
  std::vector<int> inputs(40000);
  std::iota(inputs.begin(), inputs.end(), 0);
  JobOptions options;
  options.simulation.num_workers = 16;
  auto result = SumByResidue(inputs, 20000, options);
  ASSERT_EQ(result.metrics.worker_loads.count(), 16);
  const double mean = result.metrics.worker_loads.mean();
  EXPECT_LT(result.metrics.worker_loads.max(), 1.15 * mean);
  EXPECT_GT(result.metrics.worker_loads.min(), 0.85 * mean);
}

// ------------------------------------------- shuffle property harness

/// Key distributions the equivalence property is checked under: the
/// regimes where a sharded shuffle can diverge from the serial reference
/// (hot keys concentrating in one shard, every key distinct, every pair
/// the same key).
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

/// Seed-deterministic random chunks: chunk count, chunk sizes (including
/// empty chunks), and keys all drawn from `seed`.
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
        case KeyDist::kUniform:
          key = rng.UniformBelow(150);
          break;
        case KeyDist::kZipf:
          key = zipf.Sample(rng);
          break;
        case KeyDist::kAllSame:
          key = 42;
          break;
        case KeyDist::kAllDistinct:
          key = static_cast<std::uint64_t>(serial);
          break;
      }
      chunk.emplace_back(key, serial++);
    }
  }
  return chunks;
}

constexpr KeyDist kAllDists[] = {KeyDist::kUniform, KeyDist::kZipf,
                                 KeyDist::kAllSame, KeyDist::kAllDistinct};

/// The same chunks with string keys and values of varying length, so the
/// key-byte comparisons of the block index and the spill merge run on
/// variable-width keys.
std::vector<std::vector<std::pair<std::string, std::string>>> StringChunks(
    KeyDist dist, std::uint64_t seed) {
  std::vector<std::vector<std::pair<std::string, std::string>>> out;
  for (const auto& chunk : RandomChunks(dist, seed)) {
    auto& converted = out.emplace_back();
    for (const auto& [key, value] : chunk) {
      converted.emplace_back(
          "key-" + std::string(key % 5, 'x') + std::to_string(key),
          "value-" + std::to_string(value));
    }
  }
  return out;
}

/// The shuffle property harness: runs the production round (RunMapReduce
/// with an identity map over the chunks' pairs and a reduce that returns
/// each group whole) and requires keys, group contents and global
/// first-seen order to match SerialShuffle exactly. The round chunks its
/// input its own way; first-seen order is a property of the global scan
/// order, so the chunk boundaries do not matter. Returns the round's
/// metrics through `metrics` for strategy-specific checks.
template <typename Key, typename Value>
void ExpectRoundMatchesSerial(
    std::vector<std::vector<std::pair<Key, Value>>> chunks,
    const JobOptions& options, JobMetrics* metrics = nullptr) {
  using Pair = std::pair<Key, Value>;
  using Group = std::pair<Key, std::vector<Value>>;
  std::vector<Pair> inputs;
  for (const auto& chunk : chunks) {
    inputs.insert(inputs.end(), chunk.begin(), chunk.end());
  }
  const auto serial = SerialShuffle(chunks);
  auto result = RunMapReduce<Pair, Key, Value, Group>(
      inputs,
      [](const Pair& kv, Emitter<Key, Value>& emitter) {
        emitter.Emit(kv.first, kv.second);
      },
      [](const Key& key, const std::vector<Value>& values,
         std::vector<Group>& out) { out.emplace_back(key, values); },
      options);
  ASSERT_EQ(result.outputs.size(), serial.keys.size());
  std::uint64_t max_group = 0;
  for (std::size_t i = 0; i < serial.keys.size(); ++i) {
    ASSERT_EQ(result.outputs[i].first, serial.keys[i]) << "group " << i;
    ASSERT_EQ(result.outputs[i].second, serial.groups[i]) << "group " << i;
    max_group = std::max<std::uint64_t>(max_group, serial.groups[i].size());
  }
  EXPECT_EQ(result.metrics.pairs_shuffled, inputs.size());
  EXPECT_EQ(result.metrics.num_reducers, serial.keys.size());
  EXPECT_EQ(result.metrics.max_reducer_input, max_group);
  if (metrics != nullptr) *metrics = result.metrics;
}

std::string CaseName(KeyDist dist, std::uint64_t seed) {
  return std::string(Name(dist)) + " seed=" + std::to_string(seed);
}

TEST(ShuffleProperty, ShardedRoundMatchesSerial) {
  // Every distribution, seed, and shard count 1..16.
  common::ThreadPool pool(4);
  for (KeyDist dist : kAllDists) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      for (std::size_t shards = 1; shards <= 16; ++shards) {
        SCOPED_TRACE(CaseName(dist, seed) +
                     " shards=" + std::to_string(shards));
        JobOptions options;
        options.pool = &pool;
        options.num_shards = shards;
        options.shuffle.strategy = ShuffleStrategy::kSharded;
        ExpectRoundMatchesSerial(RandomChunks(dist, seed), options);
      }
    }
  }
}

TEST(ShuffleProperty, ExternalRoundMatchesSerialAtEveryBudget) {
  // From spill-every-pair (budget 0) to spill-nothing (1 GiB).
  common::ThreadPool pool(4);
  for (KeyDist dist : kAllDists) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      for (std::uint64_t budget :
           {std::uint64_t{0}, std::uint64_t{256}, std::uint64_t{4096},
            std::uint64_t{1} << 30}) {
        SCOPED_TRACE(CaseName(dist, seed) +
                     " budget=" + std::to_string(budget));
        JobOptions options;
        options.pool = &pool;
        options.shuffle.strategy = ShuffleStrategy::kExternal;
        options.shuffle.memory_budget_bytes = budget;
        JobMetrics m;
        ExpectRoundMatchesSerial(RandomChunks(dist, seed), options, &m);
        EXPECT_GE(m.merge_passes, 1u);
        // A zero budget spills every pair as its own run; a budget above
        // the data spills nothing.
        if (budget == 0) {
          EXPECT_EQ(m.spill_runs, m.pairs_shuffled);
        }
        if (budget == std::uint64_t{1} << 30) {
          EXPECT_EQ(m.spill_runs, 0u);
        }
      }
    }
  }
}

TEST(ShuffleProperty, TinyFanInForcesMultiPassMerge) {
  // Fan-in 2 (the smallest legal) over many small runs: the merge must
  // rewrite intermediate runs in extra passes and still match.
  common::ThreadPool pool(4);
  for (KeyDist dist : kAllDists) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(CaseName(dist, seed));
      JobOptions options;
      options.pool = &pool;
      options.shuffle.strategy = ShuffleStrategy::kExternal;
      options.shuffle.memory_budget_bytes = 512;
      options.shuffle.merge_fan_in = 2;
      JobMetrics m;
      ExpectRoundMatchesSerial(RandomChunks(dist, seed), options, &m);
      EXPECT_GT(m.spill_runs, 2u);
      EXPECT_GT(m.merge_passes, 1u);
    }
  }
}

TEST(ShuffleProperty, StringKeysAndValuesMatchSerial) {
  common::ThreadPool pool(4);
  for (KeyDist dist : kAllDists) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      for (std::size_t shards : {1u, 3u, 8u, 16u}) {
        SCOPED_TRACE(CaseName(dist, seed) +
                     " shards=" + std::to_string(shards));
        JobOptions options;
        options.pool = &pool;
        options.num_shards = shards;
        options.shuffle.strategy = ShuffleStrategy::kSharded;
        ExpectRoundMatchesSerial(StringChunks(dist, seed), options);
      }
      for (std::uint64_t budget : {std::uint64_t{256}, std::uint64_t{4096}}) {
        SCOPED_TRACE(CaseName(dist, seed) +
                     " budget=" + std::to_string(budget));
        JobOptions options;
        options.pool = &pool;
        options.shuffle.strategy = ShuffleStrategy::kExternal;
        options.shuffle.memory_budget_bytes = budget;
        ExpectRoundMatchesSerial(StringChunks(dist, seed), options);
      }
    }
  }
}

TEST(Shuffle, IndexOfHashSingleBucket) {
  // n = 1: every hash, including the extremes, must land in bucket 0.
  EXPECT_EQ(IndexOfHash(0, 1), 0u);
  EXPECT_EQ(IndexOfHash(~std::uint64_t{0}, 1), 0u);
  common::SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(IndexOfHash(rng.Next(), 1), 0u);
  }
}

TEST(Shuffle, IndexOfHashCoversFullRange) {
  // fastrange maps the hash's high bits onto [0, n): the extremes of the
  // hash space must reach the extremes of the bucket range.
  for (std::size_t n : {2u, 7u, 64u, 1000u}) {
    EXPECT_EQ(IndexOfHash(0, n), 0u) << n;
    EXPECT_EQ(IndexOfHash(~std::uint64_t{0}, n), n - 1) << n;
  }
}

TEST(Shuffle, ResolveShardCountZeroPairs) {
  // A zero-pair job must stay serial under auto sharding (no useful
  // shards), while an explicit request still wins.
  EXPECT_EQ(ResolveShardCount(0, 8, 0), 1u);
  EXPECT_EQ(ResolveShardCount(3, 8, 0), 3u);
}

// ---------------------------------------------------------- simulator

TEST(Simulator, WorkerSpeedsDeterministic) {
  SimulationOptions options;
  options.num_workers = 8;
  options.speed_jitter = 0.2;
  options.straggler_fraction = 0.25;
  options.straggler_slowdown = 4.0;
  options.seed = 7;
  const auto a = WorkerSpeeds(options);
  const auto b = WorkerSpeeds(options);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b);
  // Exactly floor(0.25 * 8) = 2 stragglers: jittered speeds live in
  // [0.8, 1.2], slowed ones in [0.2, 0.3] — cleanly separable at 0.5.
  int stragglers = 0;
  for (double s : a) {
    if (s < 0.5) ++stragglers;
  }
  EXPECT_EQ(stragglers, 2);
  options.seed = 8;
  EXPECT_NE(WorkerSpeeds(options), a);
}

TEST(Simulator, StragglerSetIndependentOfJitterStream) {
  // Regression for the shared-RNG bug: straggler selection used to draw
  // from the same stream as the speed jitter, so toggling the jitter knob
  // silently reshuffled which workers straggled (and any sweep varying
  // jitter swept the straggler set with it). The straggler set must be a
  // function of (seed, num_workers, fraction) alone.
  SimulationOptions options;
  options.num_workers = 16;
  options.straggler_fraction = 0.25;
  options.straggler_slowdown = 4.0;
  options.seed = 13;
  const auto without_jitter = StragglerWorkers(options);
  options.speed_jitter = 0.2;
  const auto with_jitter = StragglerWorkers(options);
  EXPECT_EQ(without_jitter, with_jitter);

  // Pinned values for seed 13: any change to the straggler stream (its
  // constant, the sampler, or the ordering) must show up here.
  const std::vector<std::uint64_t> expected = {1, 4, 10, 15};
  EXPECT_EQ(without_jitter, expected);

  // The slowed speeds land exactly on the pinned set.
  const auto speeds = WorkerSpeeds(options);
  for (std::uint64_t w = 0; w < speeds.size(); ++w) {
    const bool slowed = speeds[w] < 0.5;  // jittered >= 0.8, slowed <= 0.3
    const bool pinned =
        std::find(expected.begin(), expected.end(), w) != expected.end();
    EXPECT_EQ(slowed, pinned) << "worker " << w;
  }

  // A different seed picks a different set.
  options.seed = 14;
  EXPECT_NE(StragglerWorkers(options), expected);
}

TEST(Simulator, DirectQueuesCapacityAndMakespan) {
  // Hand-placed reducers: with 2 workers, IndexOfHash takes the hash's top
  // bit, so hash 0 and 1<<62 land on worker 0 and ~0 lands on worker 1.
  std::vector<ReducerLoad> loads;
  loads.push_back(ReducerLoad{0, 5, 50});
  loads.push_back(ReducerLoad{~std::uint64_t{0}, 2, 20});
  loads.push_back(ReducerLoad{std::uint64_t{1} << 62, 1, 10});
  SimulationOptions options;
  options.num_workers = 2;
  options.reducer_capacity_q = 4;  // the 5-pair reducer violates
  const auto report = SimulateCluster(loads, options);
  ASSERT_EQ(report.queues.size(), 2u);
  EXPECT_EQ(report.queues[0].pairs, 6u);
  EXPECT_EQ(report.queues[1].pairs, 2u);
  EXPECT_EQ(report.queues[0].reducers, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_DOUBLE_EQ(report.makespan, 6.0);       // cost_per_pair = 1, speed 1
  EXPECT_DOUBLE_EQ(report.ideal_makespan, 4.0);  // 8 pairs / 2 workers
  EXPECT_DOUBLE_EQ(report.load_imbalance, 1.5);  // max 6 / mean 4
  EXPECT_DOUBLE_EQ(report.straggler_impact, 1.0);
  EXPECT_EQ(report.capacity_violations, 1u);
  EXPECT_EQ(report.max_worker_pairs, 6u);
}

TEST(Simulator, ByteCapacityViaByteCost) {
  std::vector<ReducerLoad> loads;
  loads.push_back(ReducerLoad{0, 1, 100});
  loads.push_back(ReducerLoad{~std::uint64_t{0}, 1, 10});
  SimulationOptions options;
  options.num_workers = 2;
  options.reducer_capacity_bytes = 50;
  options.cost_per_pair = 0;
  options.cost_per_byte = 1.0;
  const auto report = SimulateCluster(loads, options);
  EXPECT_EQ(report.capacity_violations, 1u);
  EXPECT_DOUBLE_EQ(report.makespan, 100.0);
}

TEST(Simulator, StragglerStretchesMakespan) {
  // 64 equal reducers over 4 workers; slowing half the workers 4x must
  // stretch the makespan by ~4x relative to the homogeneous cluster.
  std::vector<ReducerLoad> loads;
  common::SplitMix64 rng(11);
  for (int i = 0; i < 64; ++i) {
    loads.push_back(ReducerLoad{rng.Next(), 10, 80});
  }
  SimulationOptions fair;
  fair.num_workers = 4;
  const auto baseline = SimulateCluster(loads, fair);
  SimulationOptions slow = fair;
  slow.straggler_fraction = 0.5;
  slow.straggler_slowdown = 4.0;
  slow.seed = 3;
  const auto straggled = SimulateCluster(loads, slow);
  EXPECT_DOUBLE_EQ(baseline.straggler_impact, 1.0);
  EXPECT_GE(straggled.straggler_impact, 2.0);
  EXPECT_GT(straggled.makespan, baseline.makespan);
  // Placement is speed-independent, so load stats are unchanged.
  EXPECT_DOUBLE_EQ(straggled.worker_pairs.max(), baseline.worker_pairs.max());
  EXPECT_EQ(straggled.load_imbalance, baseline.load_imbalance);
}

/// A key-skewed job: `inputs` keys drawn Zipf(exponent) over `num_keys`
/// (exponent 0 = uniform), one pair per input.
JobResult<std::pair<std::uint64_t, std::int64_t>> ZipfJob(
    double exponent, const JobOptions& options) {
  common::SplitMix64 rng(99);
  const common::ZipfDistribution zipf(512, exponent);
  std::vector<std::uint64_t> inputs(20000);
  for (auto& x : inputs) x = zipf.Sample(rng);
  auto map_fn = [](const std::uint64_t& x,
                   Emitter<std::uint64_t, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn = [](const std::uint64_t& key, const std::vector<int>& values,
                      std::vector<std::pair<std::uint64_t, std::int64_t>>&
                          out) {
    out.emplace_back(key, static_cast<std::int64_t>(values.size()));
  };
  return RunMapReduce<std::uint64_t, std::uint64_t, int,
                      std::pair<std::uint64_t, std::int64_t>>(
      inputs, map_fn, reduce_fn, options);
}

TEST(Simulator, OutputsBitIdenticalWithAndWithoutSimulation) {
  // The acceptance bar: simulation may only touch metrics. Reduce outputs
  // must be bit-identical across simulation on/off, worker counts, thread
  // counts, and shard counts.
  JobOptions plain;
  plain.num_threads = 1;
  plain.num_shards = 1;
  const auto reference = ZipfJob(1.1, plain);
  for (std::size_t workers : {1u, 4u, 31u}) {
    for (std::size_t threads : {1u, 8u}) {
      for (std::size_t shards : {1u, 8u}) {
        JobOptions options;
        options.num_threads = threads;
        options.num_shards = shards;
        options.simulation.num_workers = workers;
        options.simulation.straggler_fraction = 0.3;
        options.simulation.straggler_slowdown = 3.0;
        options.simulation.speed_jitter = 0.1;
        options.simulation.seed = 5;
        const auto run = ZipfJob(1.1, options);
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        ASSERT_EQ(run.outputs, reference.outputs);
      }
    }
  }
}

TEST(Simulator, MetricsDeterministicAcrossThreadCounts) {
  // Fixed seed => identical makespan/load metrics for every thread and
  // shard count: the simulation is a pure function of the (deterministic)
  // shuffle result and the options.
  JobOptions base;
  base.num_threads = 1;
  base.num_shards = 1;
  base.simulation.num_workers = 16;
  base.simulation.speed_jitter = 0.15;
  base.simulation.straggler_fraction = 0.25;
  base.simulation.straggler_slowdown = 2.0;
  base.simulation.reducer_capacity_q = 100;
  base.simulation.seed = 42;
  const auto reference = ZipfJob(1.3, base);
  EXPECT_GT(reference.metrics.makespan, 0.0);
  for (std::size_t threads : {2u, 8u}) {
    for (std::size_t shards : {1u, 4u, 16u}) {
      JobOptions options = base;
      options.num_threads = threads;
      options.num_shards = shards;
      const auto run = ZipfJob(1.3, options);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EXPECT_DOUBLE_EQ(run.metrics.makespan, reference.metrics.makespan);
      EXPECT_DOUBLE_EQ(run.metrics.load_imbalance,
                       reference.metrics.load_imbalance);
      EXPECT_DOUBLE_EQ(run.metrics.straggler_impact,
                       reference.metrics.straggler_impact);
      EXPECT_EQ(run.metrics.capacity_violations,
                reference.metrics.capacity_violations);
      EXPECT_DOUBLE_EQ(run.metrics.worker_loads.max(),
                       reference.metrics.worker_loads.max());
      EXPECT_DOUBLE_EQ(run.metrics.worker_loads.mean(),
                       reference.metrics.worker_loads.mean());
    }
  }
}

TEST(Simulator, CapacityViolationsInsteadOfSilentOverfill) {
  // Keys 0..4 receive 1..5 values; a recipe that promises q = 3 must
  // report the two oversized reducers (4 and 5), not silently absorb them.
  std::vector<int> inputs;
  for (int key = 0; key < 5; ++key) {
    for (int i = 0; i <= key; ++i) inputs.push_back(key);
  }
  auto map_fn = [](const int& x, Emitter<int, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn = [](const int&, const std::vector<int>&,
                      std::vector<int>&) {};
  JobOptions options;
  options.simulation.num_workers = 4;
  options.simulation.reducer_capacity_q = 3;
  auto result =
      RunMapReduce<int, int, int, int>(inputs, map_fn, reduce_fn, options);
  EXPECT_EQ(result.metrics.capacity_violations, 2u);
  ASSERT_TRUE(result.metrics.simulated());
  // And with a generous q, no violations.
  options.simulation.reducer_capacity_q = 5;
  result = RunMapReduce<int, int, int, int>(inputs, map_fn, reduce_fn,
                                            options);
  EXPECT_EQ(result.metrics.capacity_violations, 0u);
}

TEST(Simulator, ZipfSkewRaisesImbalance) {
  JobOptions options;
  options.simulation.num_workers = 8;
  const auto uniform = ZipfJob(0.0, options);
  const auto skewed = ZipfJob(1.5, options);
  // Uniform keys spread evenly; heavy Zipf concentrates pairs on whichever
  // worker owns key rank 0.
  EXPECT_LT(uniform.metrics.load_imbalance, 1.3);
  EXPECT_GT(skewed.metrics.load_imbalance,
            1.5 * uniform.metrics.load_imbalance);
  EXPECT_GT(skewed.metrics.makespan, uniform.metrics.makespan);
}

TEST(SimulatorDeathTest, SkewKnobsWithoutWorkersFailLoudly) {
  // Setting capacity/skew knobs but forgetting num_workers would
  // otherwise silently skip the simulation (makespan 0, "no violations").
  JobOptions options;
  options.simulation.reducer_capacity_q = 256;
  EXPECT_DEATH(options.ResolvedSimulation(), "MRCOST_CHECK failed");
}

TEST(Simulator, WorkerCountOnlySimulation) {
  // simulation.num_workers alone runs the (skew-free) simulation and
  // fills worker_loads, with makespan alongside.
  JobOptions options;
  options.simulation.num_workers = 7;
  const auto sim = options.ResolvedSimulation();
  EXPECT_TRUE(sim.enabled());
  EXPECT_EQ(sim.num_workers, 7u);
  const auto run = ZipfJob(0.0, options);
  EXPECT_EQ(run.metrics.worker_loads.count(), 7);
  EXPECT_DOUBLE_EQ(run.metrics.worker_loads.sum(),
                   static_cast<double>(run.metrics.pairs_shuffled));
  EXPECT_GT(run.metrics.makespan, 0.0);
}

/// Two rounds on one plan: round 1 sums `inputs` by residue mod
/// `modulus`; round 2 regroups the sums by parity and sums again.
/// `round1_options`, when set, are round 1's own JobOptions.
Dataset<std::pair<int, std::int64_t>> SumThenRegroupByParity(
    std::vector<int> inputs, int modulus,
    std::optional<JobOptions> round1_options = std::nullopt) {
  auto sum = [](const int& key, const auto& values,
                std::vector<std::pair<int, std::int64_t>>& out) {
    std::int64_t total = 0;
    for (const auto v : values) total += v;
    out.emplace_back(key, total);
  };
  Plan plan;
  auto round1 = plan.Source(std::move(inputs))
                    .Map<int, int>([modulus](const int& x,
                                             Emitter<int, int>& emitter) {
                      emitter.Emit(x % modulus, x);
                    });
  if (round1_options.has_value()) {
    round1 = round1.WithOptions(*round1_options);
  }
  return round1.ReduceByKey<std::pair<int, std::int64_t>>(sum)
      .Map<int, std::int64_t>([](const std::pair<int, std::int64_t>& p,
                                 Emitter<int, std::int64_t>& emitter) {
        emitter.Emit(p.first % 2, p.second);
      })
      .ReduceByKey<std::pair<int, std::int64_t>>(sum);
}

std::vector<int> Iota(std::size_t n) {
  std::vector<int> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  return inputs;
}

TEST(Simulator, ExecutionWideSimulationAndCostReports) {
  // An execution-wide SimulationOptions must reach every round, surface
  // in PipelineMetrics aggregates, and ride along in CompareToLowerBound's
  // per-round reports.
  ExecutionOptions options;
  options.pipeline.simulation.num_workers = 4;
  options.pipeline.simulation.reducer_capacity_q = 5;
  // 10 keys x 10 values in round 1 violate q = 5.
  const auto run = SumThenRegroupByParity(Iota(100), 10).Execute(options);

  const PipelineMetrics& m = run.metrics;
  ASSERT_EQ(m.rounds.size(), 2u);
  EXPECT_TRUE(m.rounds[0].simulated());
  EXPECT_TRUE(m.rounds[1].simulated());
  EXPECT_EQ(m.rounds[0].capacity_violations, 10u);  // all 10 reducers > 5
  EXPECT_EQ(m.rounds[1].capacity_violations, 0u);   // 2 keys x 5 values
  EXPECT_GT(m.max_makespan(), 0.0);
  EXPECT_GE(m.total_makespan(), m.max_makespan());
  EXPECT_EQ(m.total_capacity_violations(), 10u);
  EXPECT_GE(m.max_load_imbalance(), 1.0);

  core::Recipe recipe;
  recipe.problem_name = "synthetic";
  recipe.g = [](double q) { return q; };
  recipe.num_inputs = 100;
  recipe.num_outputs = 100;
  const auto reports = CompareToLowerBound(m, recipe);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].simulated);
  EXPECT_DOUBLE_EQ(reports[0].makespan, m.rounds[0].makespan);
  EXPECT_EQ(reports[0].capacity_violations, 10u);
  EXPECT_NE(ToString(reports).find("capacity_violations=10"),
            std::string::npos);
}

// --------------------------------------------------------- caller pool

TEST(Job, CallerOwnedPoolIsReused) {
  common::ThreadPool pool(3);
  JobOptions options;
  options.pool = &pool;
  EXPECT_EQ(options.ResolvedThreads(), 3u);
  std::vector<int> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  const auto baseline = SumByResidue(inputs, 17, {});
  // Two consecutive rounds on the same pool: both must match a fresh-pool
  // run exactly.
  for (int round = 0; round < 2; ++round) {
    const auto pooled = SumByResidue(inputs, 17, options);
    EXPECT_EQ(pooled.outputs, baseline.outputs);
    EXPECT_EQ(pooled.metrics.pairs_shuffled, baseline.metrics.pairs_shuffled);
  }
}

// -------------------------------------------------- multi-round plans

TEST(MultiRound, TwoRoundMetricsAccumulate) {
  const auto run = SumThenRegroupByParity(Iota(100), 10).Execute();
  ASSERT_EQ(run.outputs.size(), 2u);
  std::int64_t grand = 0;
  for (const auto& [parity, sum] : run.outputs) grand += sum;
  EXPECT_EQ(grand, 99 * 100 / 2);

  const PipelineMetrics& m = run.metrics;
  ASSERT_EQ(m.rounds.size(), 2u);
  EXPECT_EQ(m.rounds[0].num_inputs, 100u);
  EXPECT_EQ(m.rounds[0].num_outputs, 10u);
  EXPECT_EQ(m.rounds[1].num_inputs, 10u);
  EXPECT_EQ(m.total_pairs(), 110u);
  EXPECT_DOUBLE_EQ(m.replication_rate(0), 1.0);
  EXPECT_DOUBLE_EQ(m.replication_rate(1), 1.0);
  // All 110 shuffled pairs charged against the 100 round-1 inputs.
  EXPECT_DOUBLE_EQ(m.total_replication_rate(), 1.1);
}

TEST(MultiRound, CallerPoolAndPerRoundOptions) {
  common::ThreadPool pool(2);
  // The pool's worker ids: two tasks that each wait for the other occupy
  // both workers at once.
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> pool_ids;
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      pool_ids.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait(lock, [&] { return pool_ids.size() == 2; });
    });
  }
  pool.Wait();

  ExecutionOptions options;
  options.pipeline.pool = &pool;
  JobOptions round;
  round.simulation.num_workers = 3;
  std::set<std::thread::id> reduce_ids;
  Plan plan;
  const auto run =
      plan.Source(Iota(200))
          .Map<int, int>([](const int& x, Emitter<int, int>& emitter) {
            emitter.Emit(x % 5, x);
          })
          .WithOptions(round)
          .ReduceByKey<std::pair<int, std::size_t>>(
              [&](const int& key, const std::vector<int>& values,
                  std::vector<std::pair<int, std::size_t>>& out) {
                {
                  std::lock_guard<std::mutex> lock(mu);
                  reduce_ids.insert(std::this_thread::get_id());
                }
                out.emplace_back(key, values.size());
              })
          .Execute(options);
  EXPECT_EQ(run.outputs.size(), 5u);
  EXPECT_EQ(run.metrics.rounds[0].worker_loads.count(), 3);
  // Every reduce task ran on the caller's pool.
  ASSERT_FALSE(reduce_ids.empty());
  for (const std::thread::id& id : reduce_ids) {
    EXPECT_EQ(pool_ids.count(id), 1u);
  }
}

TEST(MultiRound, RoundDefaultsMergeFieldWise) {
  // The historical footgun: per-round options used to replace the
  // defaults wholesale, so a round overriding only num_shards silently
  // dropped the execution's memory budget. MergedJobOptions inherits
  // every unset field instead — the round below must still spill.
  ExecutionOptions options;
  options.pipeline.round_defaults.shuffle.memory_budget_bytes = 1 << 10;
  options.pipeline.round_defaults.simulation.num_workers = 4;
  options.choose_strategy_per_round = false;  // budget => external
  JobOptions round;
  round.num_shards = 2;  // the only field the round overrides
  const auto run =
      SumThenRegroupByParity(Iota(4000), 512, round).Execute(options);
  const JobMetrics& m = run.metrics.rounds[0];
  EXPECT_EQ(m.num_outputs, 512u);
  // Budget inherited from the defaults: the round ran externally...
  EXPECT_TRUE(m.external_shuffle());
  EXPECT_GT(m.spill_runs, 0u);
  // ...and the defaults' simulation reached it too.
  EXPECT_EQ(m.worker_loads.count(), 4);

  // The execution-wide shuffle backstop composes field-wise as well: a
  // round forcing only the strategy still inherits the backstop budget.
  JobOptions merged =
      MergedJobOptions(round, options.pipeline.round_defaults);
  EXPECT_EQ(merged.num_shards, 2u);
  EXPECT_EQ(merged.shuffle.memory_budget_bytes, std::uint64_t{1} << 10);
  EXPECT_EQ(merged.simulation.num_workers, 4u);
}

// ------------------------------------------- shuffle-config resolution

/// A fully populated config, distinct from the per-field overrides below.
ShuffleConfig FullShuffleDefaults() {
  ShuffleConfig defaults;
  defaults.strategy = ShuffleStrategy::kSharded;
  defaults.memory_budget_bytes = 1 << 20;
  defaults.spill_dir = "/tmp/mrcost-default-spill";
  defaults.merge_fan_in = 16;
  return defaults;
}

TEST(ShuffleConfigResolution, SingleFieldOverridesInheritTheRest) {
  // The documented resolution order, exercised field by field: a round
  // overriding exactly one field keeps that field and inherits the other
  // three from the fallback.
  const ShuffleConfig defaults = FullShuffleDefaults();

  {
    ShuffleConfig round;
    round.strategy = ShuffleStrategy::kExternal;
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, ShuffleStrategy::kExternal);
    EXPECT_EQ(merged.memory_budget_bytes, defaults.memory_budget_bytes);
    EXPECT_EQ(merged.spill_dir, defaults.spill_dir);
    EXPECT_EQ(merged.merge_fan_in, defaults.merge_fan_in);
  }
  {
    ShuffleConfig round;
    round.memory_budget_bytes = 1 << 12;
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, defaults.strategy);
    EXPECT_EQ(merged.memory_budget_bytes, std::uint64_t{1} << 12);
    EXPECT_EQ(merged.spill_dir, defaults.spill_dir);
    EXPECT_EQ(merged.merge_fan_in, defaults.merge_fan_in);
  }
  {
    ShuffleConfig round;
    round.spill_dir = "/tmp/mrcost-round-spill";
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, defaults.strategy);
    EXPECT_EQ(merged.memory_budget_bytes, defaults.memory_budget_bytes);
    EXPECT_EQ(merged.spill_dir, "/tmp/mrcost-round-spill");
    EXPECT_EQ(merged.merge_fan_in, defaults.merge_fan_in);
  }
  {
    ShuffleConfig round;
    round.merge_fan_in = 2;
    const ShuffleConfig merged = round.MergedOver(defaults);
    EXPECT_EQ(merged.strategy, defaults.strategy);
    EXPECT_EQ(merged.memory_budget_bytes, defaults.memory_budget_bytes);
    EXPECT_EQ(merged.spill_dir, defaults.spill_dir);
    EXPECT_EQ(merged.merge_fan_in, 2u);
  }
}

TEST(ShuffleConfigResolution, UnsetInheritsEverythingAndZeroStaysZero) {
  const ShuffleConfig defaults = FullShuffleDefaults();
  const ShuffleConfig inherited = ShuffleConfig{}.MergedOver(defaults);
  EXPECT_EQ(inherited.strategy, defaults.strategy);
  EXPECT_EQ(inherited.memory_budget_bytes, defaults.memory_budget_bytes);
  EXPECT_EQ(inherited.spill_dir, defaults.spill_dir);
  EXPECT_EQ(inherited.merge_fan_in, defaults.merge_fan_in);
  EXPECT_TRUE(inherited.configured());

  const ShuffleConfig untouched = ShuffleConfig{}.MergedOver(ShuffleConfig{});
  EXPECT_EQ(untouched.strategy, ShuffleStrategy::kAuto);
  EXPECT_EQ(untouched.memory_budget_bytes, 0u);
  EXPECT_TRUE(untouched.spill_dir.empty());
  EXPECT_EQ(untouched.merge_fan_in, 0u);
  EXPECT_FALSE(untouched.configured());
}

TEST(ShuffleConfigResolution, ThreeLayerOrderRoundBeatsDefaultsBeatsBackstop) {
  // The full chain the plan executor (ResolveRoundOptions) applies:
  // per-round fields win, then the round defaults, then the
  // execution-wide backstop — field by field, not wholesale.
  ShuffleConfig backstop;
  backstop.strategy = ShuffleStrategy::kSerial;
  backstop.memory_budget_bytes = 1 << 22;
  backstop.spill_dir = "/tmp/mrcost-backstop-spill";
  backstop.merge_fan_in = 64;

  ShuffleConfig defaults;  // sets two of four fields
  defaults.memory_budget_bytes = 1 << 16;
  defaults.merge_fan_in = 8;

  ShuffleConfig round;  // sets one field the defaults also set, one not
  round.merge_fan_in = 3;
  round.strategy = ShuffleStrategy::kExternal;

  const ShuffleConfig merged =
      round.MergedOver(defaults).MergedOver(backstop);
  EXPECT_EQ(merged.strategy, ShuffleStrategy::kExternal);  // round
  EXPECT_EQ(merged.memory_budget_bytes,
            std::uint64_t{1} << 16);                       // defaults
  EXPECT_EQ(merged.spill_dir, backstop.spill_dir);         // backstop
  EXPECT_EQ(merged.merge_fan_in, 3u);                      // round
}

TEST(ShuffleConfigResolution, ResolvedStrategyFollowsBudget) {
  ShuffleConfig config;
  EXPECT_EQ(config.Resolved(), ShuffleStrategy::kSharded);
  config.memory_budget_bytes = 1;
  EXPECT_EQ(config.Resolved(), ShuffleStrategy::kExternal);
  config.strategy = ShuffleStrategy::kSerial;  // explicit beats the rule
  EXPECT_EQ(config.Resolved(), ShuffleStrategy::kSerial);
}

TEST(MultiRound, CombinedRound) {
  std::vector<int> inputs(1000);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = static_cast<int>(i % 4);
  }
  Plan plan;
  const auto run =
      plan.Source(std::move(inputs))
          .Map<int, std::int64_t>(
              [](const int& x, Emitter<int, std::int64_t>& emitter) {
                emitter.Emit(x, 1);
              })
          .CombineByKey([](std::int64_t a, std::int64_t b) { return a + b; })
          .ReduceByKey<std::pair<int, std::int64_t>>(
              [](const int& key, const std::vector<std::int64_t>& values,
                 std::vector<std::pair<int, std::int64_t>>& out) {
                std::int64_t total = 0;
                for (std::int64_t v : values) total += v;
                out.emplace_back(key, total);
              })
          .Execute();
  ASSERT_EQ(run.outputs.size(), 4u);
  const JobMetrics& m = run.metrics.rounds[0];
  EXPECT_EQ(m.pairs_before_combine, 1000u);
  EXPECT_LT(m.pairs_shuffled, m.pairs_before_combine);
}

TEST(Metrics, CompareToLowerBound) {
  // A synthetic recipe with g(q) = q and |O| = 2|I|: Equation 4 gives
  // r >= q*|O| / (g(q)*|I|) = 2 at every q.
  core::Recipe recipe;
  recipe.problem_name = "synthetic";
  recipe.g = [](double q) { return q; };
  recipe.num_inputs = 100;
  recipe.num_outputs = 200;

  PipelineMetrics metrics;
  JobMetrics round;
  round.num_inputs = 100;
  round.pairs_shuffled = 300;  // realized r = 3
  round.max_reducer_input = 10;
  metrics.Add(round);

  const auto reports = CompareToLowerBound(metrics, recipe);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].round, 1u);
  EXPECT_DOUBLE_EQ(reports[0].realized_q, 10.0);
  EXPECT_DOUBLE_EQ(reports[0].realized_r, 3.0);
  EXPECT_DOUBLE_EQ(reports[0].lower_bound_r, 2.0);
  EXPECT_DOUBLE_EQ(reports[0].optimality_ratio, 1.5);
  EXPECT_NE(ToString(reports).find("ratio=1.5"), std::string::npos);
}

// ------------------------------------------------------------ metrics

TEST(Metrics, PipelineAccumulates) {
  PipelineMetrics pipeline;
  JobMetrics round1;
  round1.pairs_shuffled = 100;
  round1.bytes_shuffled = 800;
  round1.max_reducer_input = 10;
  JobMetrics round2;
  round2.pairs_shuffled = 50;
  round2.bytes_shuffled = 400;
  round2.max_reducer_input = 25;
  pipeline.Add(round1);
  pipeline.Add(round2);
  EXPECT_EQ(pipeline.total_pairs(), 150u);
  EXPECT_EQ(pipeline.total_bytes(), 1200u);
  EXPECT_EQ(pipeline.max_reducer_input(), 25u);
  EXPECT_NE(pipeline.ToString().find("2 round(s)"), std::string::npos);
}

TEST(Metrics, ReplicationRateFormula) {
  JobMetrics m;
  m.num_inputs = 10;
  m.pairs_shuffled = 35;
  EXPECT_DOUBLE_EQ(m.replication_rate(), 3.5);
}

}  // namespace
}  // namespace mrcost::engine
