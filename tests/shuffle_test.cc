// Shuffle-service tests: block compression round-trips and fails closed on
// damage, spill files append/read under the unlink-on-create discipline,
// a spilling ShuffleRun replays byte-identical to the resident path with
// its spill/fetch counters visible, corruption of stored bytes surfaces as
// TaskError{kCorruptInput}, the credit gate bounds concurrent fetches, and
// — the wire-robustness suite — NativePartition::Parse never crashes on
// truncated streams, flipped bytes, or oversized length prefixes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/fault.h"
#include "src/nativebuf/native_buffer.h"
#include "src/shuffle/compress.h"
#include "src/shuffle/spill_file.h"
#include "src/shuffle/shuffle_service.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// ---------------------------------------------------------------------------
// Block compression
// ---------------------------------------------------------------------------

std::vector<uint8_t> Roundtrip(const std::vector<uint8_t>& raw, size_t* stored_size) {
  ByteBuffer encoded;
  CompressBlock(raw.data(), raw.size(), &encoded);
  if (stored_size != nullptr) {
    *stored_size = encoded.size();
  }
  std::vector<uint8_t> decoded;
  EXPECT_TRUE(DecompressBlock(encoded.data(), encoded.size(), raw.size(), &decoded));
  return decoded;
}

TEST(CompressTest, CompressibleDataRoundTripsSmaller) {
  std::vector<uint8_t> raw;
  for (int i = 0; i < 4096; ++i) {
    raw.push_back(static_cast<uint8_t>("abcdabcdabcd"[i % 12]));
  }
  size_t stored = 0;
  EXPECT_EQ(Roundtrip(raw, &stored), raw);
  EXPECT_LT(stored, raw.size());
}

TEST(CompressTest, IncompressibleDataFallsBackToStored) {
  std::mt19937 rng(7);
  std::vector<uint8_t> raw(4096);
  for (uint8_t& b : raw) {
    b = static_cast<uint8_t>(rng());
  }
  size_t stored = 0;
  EXPECT_EQ(Roundtrip(raw, &stored), raw);
  // The stored fallback costs exactly the codec byte.
  EXPECT_LE(stored, raw.size() + 1);
}

TEST(CompressTest, EmptyAndTinyBlocksRoundTrip) {
  EXPECT_EQ(Roundtrip({}, nullptr), std::vector<uint8_t>{});
  EXPECT_EQ(Roundtrip({42}, nullptr), std::vector<uint8_t>{42});
}

TEST(CompressTest, DamagedStreamsFailClosed) {
  std::vector<uint8_t> raw;
  for (int i = 0; i < 1024; ++i) {
    raw.push_back(static_cast<uint8_t>(i % 16));
  }
  ByteBuffer encoded;
  CompressBlock(raw.data(), raw.size(), &encoded);
  std::vector<uint8_t> decoded;
  // Truncation anywhere must return false, never read out of bounds.
  for (size_t cut : {size_t{0}, size_t{1}, encoded.size() / 2, encoded.size() - 1}) {
    EXPECT_FALSE(DecompressBlock(encoded.data(), cut, raw.size(), &decoded))
        << "cut at " << cut;
  }
  // Unknown codec byte.
  std::vector<uint8_t> bogus(encoded.data(), encoded.data() + encoded.size());
  bogus[0] = 0x7f;
  EXPECT_FALSE(DecompressBlock(bogus.data(), bogus.size(), raw.size(), &decoded));
  // Wrong raw size claim.
  EXPECT_FALSE(DecompressBlock(encoded.data(), encoded.size(), raw.size() + 1, &decoded));
}

// ---------------------------------------------------------------------------
// Spill file
// ---------------------------------------------------------------------------

TEST(SpillFileTest, AppendsAndReadsAtOffsets) {
  SpillFile file;
  EXPECT_FALSE(file.created());  // lazily created on first Append
  std::vector<uint8_t> a(100, 0xaa);
  std::vector<uint8_t> b(57, 0xbb);
  int64_t off_a = file.Append(a.data(), a.size());
  int64_t off_b = file.Append(b.data(), b.size());
  EXPECT_TRUE(file.created());
  EXPECT_EQ(off_a, 0);
  EXPECT_EQ(off_b, static_cast<int64_t>(a.size()));
  EXPECT_EQ(file.size(), static_cast<int64_t>(a.size() + b.size()));
  std::vector<uint8_t> back(b.size());
  file.ReadAt(off_b, back.data(), back.size());
  EXPECT_EQ(back, b);
  back.resize(a.size());
  file.ReadAt(off_a, back.data(), back.size());
  EXPECT_EQ(back, a);
}

// ---------------------------------------------------------------------------
// ShuffleRun: resident vs spilled determinism, corruption, backpressure
// ---------------------------------------------------------------------------

NativePartition PartitionWithPattern(int producer, int bucket, int records) {
  NativePartition part;
  std::vector<uint8_t> body(48);
  for (int r = 0; r < records; ++r) {
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<uint8_t>(producer * 97 + bucket * 31 + r * 7 + i);
    }
    part.AppendRecord(body.data(), static_cast<uint32_t>(body.size()));
  }
  part.Seal();
  return part;
}

std::vector<uint8_t> DrainBucket(const ShuffleRun& run, int bucket, EngineStats* stats) {
  std::vector<uint8_t> bytes;
  run.ForEachRecordInBucket(bucket, stats, nullptr,
                            [&bytes](int64_t addr, uint32_t size) {
                              const uint8_t* p = reinterpret_cast<const uint8_t*>(addr);
                              bytes.insert(bytes.end(), p, p + size);
                            });
  return bytes;
}

ShuffleConfig SpillEverything(bool compress) {
  ShuffleConfig config;
  config.spill_threshold_bytes = 1;  // every block past the first byte spills
  config.compress = compress;
  return config;
}

TEST(ShuffleRunTest, SpilledBucketsReplayByteIdenticalToResident) {
  constexpr int kProducers = 3;
  constexpr int kBuckets = 2;
  for (bool compress : {true, false}) {
    ShuffleRun resident(kProducers, kBuckets, ShuffleConfig{});
    ShuffleRun spilled(kProducers, kBuckets, SpillEverything(compress));
    EngineStats resident_stats;
    EngineStats spilled_stats;
    for (int p = 0; p < kProducers; ++p) {
      for (int b = 0; b < kBuckets; ++b) {
        resident.Add(p, b, PartitionWithPattern(p, b, 5 + p), &resident_stats);
        spilled.Add(p, b, PartitionWithPattern(p, b, 5 + p), &spilled_stats);
      }
    }
    EXPECT_EQ(resident.spilled_blocks(), 0);
    EXPECT_GT(spilled.spilled_blocks(), 0);
    EXPECT_GT(spilled_stats.spill_blocks, 0);
    EXPECT_GT(spilled_stats.spill_bytes_raw, 0);
    EXPECT_GT(spilled_stats.spill_bytes_stored, 0);
    for (int b = 0; b < kBuckets; ++b) {
      EXPECT_EQ(DrainBucket(spilled, b, &spilled_stats),
                DrainBucket(resident, b, &resident_stats))
          << "bucket " << b << " compress=" << compress;
    }
    // Reading a bucket with >= 2 spilled runs is an external merge.
    EXPECT_GT(spilled_stats.shuffle_fetches, 0);
    EXPECT_GT(spilled_stats.spill_merges, 0);
    EXPECT_EQ(resident_stats.shuffle_fetches, 0);
  }
}

TEST(ShuffleRunTest, CorruptStoredBlockFailsClosedAsCorruptInput) {
  ShuffleRun run(2, 1, SpillEverything(true));
  EngineStats stats;
  run.Add(0, 0, PartitionWithPattern(0, 0, 8), &stats);
  run.Add(1, 0, PartitionWithPattern(1, 0, 8), &stats);
  ASSERT_GT(run.spilled_blocks(), 0);
  run.CorruptStoredByteForTest(0);
  try {
    DrainBucket(run, 0, &stats);
    FAIL() << "corrupted spill block must not read back";
  } catch (const TaskError& e) {
    EXPECT_EQ(e.kind(), TaskErrorKind::kCorruptInput);
    EXPECT_NE(e.detail().find("bucket"), std::string::npos) << e.detail();
  }
}

TEST(ShuffleRunTest, CreditGateBoundsConcurrentFetches) {
  // Two spilled buckets, each far over the 1-byte fetch budget: the first
  // open is admitted (idle gate), the second must wait for the first
  // reader's credit (or the grace timeout) — either way a counted wait.
  ShuffleConfig config = SpillEverything(false);
  config.fetch_budget_bytes = 1;
  config.backpressure_grace_ms = 2000;  // long: the release must unblock it
  ShuffleRun run(1, 2, config);
  EngineStats add_stats;
  run.Add(0, 0, PartitionWithPattern(0, 0, 64), &add_stats);
  run.Add(0, 1, PartitionWithPattern(0, 1, 64), &add_stats);
  ASSERT_EQ(run.spilled_blocks(), 2);

  EngineStats first_stats;
  EngineStats second_stats;
  std::atomic<bool> second_opened{false};
  auto first = std::make_unique<BucketReader>(run.OpenBucket(0, &first_stats));
  std::thread consumer([&] {
    BucketReader second = run.OpenBucket(1, &second_stats);
    second_opened.store(true);
    size_t records = 0;
    second.ForEachRecord([&records](int64_t, uint32_t) { records += 1; });
    EXPECT_EQ(records, 64u);
  });
  // Give the consumer time to hit the gate, then release the first reader's
  // credit; the consumer must then proceed (well before the grace timeout).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  first.reset();
  consumer.join();
  EXPECT_TRUE(second_opened.load());
  EXPECT_GT(second_stats.fetch_backpressure_waits, 0);
  EXPECT_EQ(first_stats.fetch_backpressure_waits, 0);  // idle gate: no wait
}

TEST(CreditGateTest, GraceTimeoutAdmitsOverBudget) {
  CreditGate gate(/*budget_bytes=*/10, /*grace_ms=*/20);
  EXPECT_FALSE(gate.Acquire(8));  // fits, no wait
  // Over budget with credit outstanding: blocks until the grace elapses,
  // then admits (hold-and-wait liveness for joins), reporting the wait.
  EXPECT_TRUE(gate.Acquire(8));
  EXPECT_EQ(gate.inflight(), 16);
  gate.Release(8);
  gate.Release(8);
  EXPECT_EQ(gate.inflight(), 0);
}

// ---------------------------------------------------------------------------
// NativePartition wire robustness (the executor exchange rides on this)
// ---------------------------------------------------------------------------

std::vector<uint8_t> WireBytesOf(int records) {
  NativePartition part = PartitionWithPattern(1, 2, records);
  ByteBuffer wire;
  part.SerializeTo(wire);
  return std::vector<uint8_t>(wire.data(), wire.data() + wire.size());
}

TEST(WireRobustnessTest, TruncatedStreamsThrowWireFormatError) {
  std::vector<uint8_t> wire = WireBytesOf(6);
  // Every proper prefix must fail closed with the classified error — never
  // crash, never return a partition (asan/ubsan presets police the "never
  // crash" half).
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    ByteReader reader(wire.data(), cut);
    EXPECT_THROW(NativePartition::Parse(reader), WireFormatError) << "cut at " << cut;
  }
}

TEST(WireRobustnessTest, OversizedLengthPrefixesThrowWireFormatError) {
  std::vector<uint8_t> wire = WireBytesOf(4);
  {
    // Record count far beyond what the stream could hold.
    std::vector<uint8_t> bad = wire;
    bad[0] = 0xff;
    bad[1] = 0xff;
    bad[2] = 0xff;
    bad[3] = 0x7f;
    ByteReader reader(bad.data(), bad.size());
    EXPECT_THROW(NativePartition::Parse(reader), WireFormatError);
  }
  {
    // First record's size prefix larger than the remaining stream.
    std::vector<uint8_t> bad = wire;
    bad[4] = 0xff;
    bad[5] = 0xff;
    bad[6] = 0xff;
    bad[7] = 0x7f;
    ByteReader reader(bad.data(), bad.size());
    EXPECT_THROW(NativePartition::Parse(reader), WireFormatError);
  }
}

TEST(WireRobustnessTest, FlippedBodyByteFailsTheSeal) {
  std::vector<uint8_t> wire = WireBytesOf(4);
  // Flip one byte inside a record body: structurally valid, so Parse
  // succeeds — and the seal (carried on the wire) catches the damage.
  std::vector<uint8_t> bad = wire;
  bad[10] ^= 0x5a;
  ByteReader reader(bad.data(), bad.size());
  NativePartition parsed = NativePartition::Parse(reader);
  EXPECT_TRUE(parsed.sealed());
  EXPECT_FALSE(parsed.VerifyChecksum());
}

TEST(WireRobustnessTest, ConcatenatedPartitionsParseInSequence) {
  // The executor protocol concatenates partitions on one frame (shuffle-map
  // replies); each partition's trailer must delimit it exactly.
  std::vector<uint8_t> first = WireBytesOf(3);
  std::vector<uint8_t> second = WireBytesOf(5);
  std::vector<uint8_t> both = first;
  both.insert(both.end(), second.begin(), second.end());
  ByteReader reader(both.data(), both.size());
  NativePartition a = NativePartition::Parse(reader);
  NativePartition b = NativePartition::Parse(reader);
  EXPECT_EQ(a.record_count(), 3u);
  EXPECT_EQ(b.record_count(), 5u);
  EXPECT_TRUE(a.VerifyChecksum());
  EXPECT_TRUE(b.VerifyChecksum());
  EXPECT_EQ(reader.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Engine integration: a spilling shuffle keeps the determinism invariant
// ---------------------------------------------------------------------------

std::vector<uint8_t> RunReduceJob(EngineConfig config, int64_t records) {
  SparkJob job(config);
  DatasetPtr in = job.MakeInput(records);
  job.engine.ResetMetrics();
  DatasetPtr out = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                          job.sum_values);
  return DatasetBytes(out);
}

TEST(ShuffleEngineTest, SpillingReduceMatchesResidentAcrossWorkerCounts) {
  // 600 records merge every key many times; 10 records (keys 0..9, one
  // record each) leave every key seen once per bucket, so the reduce output
  // is copied straight out of the fetched spilled blocks.
  for (int64_t records : {600, 10}) {
    const std::vector<uint8_t> reference = RunReduceJob(SparkWith(1), records);
    ASSERT_FALSE(reference.empty());
    for (int workers : kWorkerCounts) {
      for (bool compress : {true, false}) {
        EngineConfig config = SparkWith(workers);
        config.shuffle.shuffle_spill_threshold_bytes = 1;  // spill every block
        config.shuffle.shuffle_compress = compress;
        SparkJob job(config);
        DatasetPtr in = job.MakeInput(records);
        job.engine.ResetMetrics();
        DatasetPtr out = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                                job.sum_values);
        EXPECT_EQ(DatasetBytes(out), reference)
            << "records=" << records << " workers=" << workers << " compress=" << compress;
        EXPECT_GT(job.engine.stats().spill_blocks, 0);
        EXPECT_GT(job.engine.stats().shuffle_fetches, 0);
      }
    }
  }
}

TEST(ShuffleEngineTest, SpillingJoinMatchesResident) {
  auto run_join = [](EngineConfig config) {
    SparkJob job(config);
    DatasetPtr left = job.MakeInput(200);
    DatasetPtr right = job.MakeInput(140);
    job.engine.ResetMetrics();
    DatasetPtr out = job.engine.JoinByKey(left, KeySpec{job.get_key, false}, right,
                                          KeySpec{job.get_key, false}, job.udfs,
                                          job.sum_values, job.pair);
    return DatasetBytes(out);
  };
  const std::vector<uint8_t> reference = run_join(SparkWith(2));
  ASSERT_FALSE(reference.empty());
  EngineConfig config = SparkWith(2);
  config.shuffle.shuffle_spill_threshold_bytes = 1;
  // A tight fetch budget forces the join's build side to hold credit while
  // the probe side fetches — the hold-and-wait pattern the grace timeout
  // converts into bounded over-admission.
  config.shuffle.shuffle_fetch_budget_bytes = 256;
  EXPECT_EQ(run_join(config), reference);
}

}  // namespace
}  // namespace gerenuk
