// Unit tests for the replication foundation: change-log record encoding,
// segment rotation, torn-tail tolerance vs corruption, fencing epochs
// (segment supersession, divergence detection, the durable epoch file),
// base-snapshot discovery, checkpoint bootstrap (base + tail replay), and
// the CreateFromGraph resharding primitive's id-space exactness.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dynmis/serve.h"
#include "dynmis/sharded_engine.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/repl/bootstrap.h"
#include "src/repl/change_log.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace repl {
namespace {

// A fresh, empty directory under the test tmpdir (prior runs' leftovers
// removed — change-log scans pick up anything that looks like a segment).
std::string FreshDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

LogBatch MakeBatch(int64_t seq) {
  LogBatch batch;
  batch.seq = seq;
  GraphUpdate ins;
  ins.kind = UpdateKind::kInsertEdge;
  ins.u = static_cast<VertexId>(seq);
  ins.v = static_cast<VertexId>(seq + 1);
  batch.updates.push_back(ins);
  GraphUpdate insv;
  insv.kind = UpdateKind::kInsertVertex;
  insv.neighbors = {static_cast<VertexId>(seq), 2, 3};
  batch.updates.push_back(insv);
  GraphUpdate del;
  del.kind = UpdateKind::kDeleteVertex;
  del.u = static_cast<VertexId>(seq + 2);
  batch.updates.push_back(del);
  return batch;
}

void ExpectBatchEq(const LogBatch& want, const LogBatch& got) {
  EXPECT_EQ(want.seq, got.seq);
  ASSERT_EQ(want.updates.size(), got.updates.size());
  for (size_t i = 0; i < want.updates.size(); ++i) {
    EXPECT_EQ(want.updates[i].kind, got.updates[i].kind);
    EXPECT_EQ(want.updates[i].u, got.updates[i].u);
    EXPECT_EQ(want.updates[i].v, got.updates[i].v);
    EXPECT_EQ(want.updates[i].neighbors, got.updates[i].neighbors);
  }
}

TEST(ChangeLogRecordTest, EncodeDecodeRoundtrip) {
  const LogBatch batch = MakeBatch(42);
  const std::string record = EncodeLogRecord(batch);
  // Header = payload_len + crc; payload follows.
  ASSERT_GT(record.size(), 8u);
  LogBatch decoded;
  ASSERT_TRUE(DecodeLogPayload(record.data() + 8, record.size() - 8,
                               &decoded));
  ExpectBatchEq(batch, decoded);
}

TEST(ChangeLogRecordTest, TruncatedPayloadIsRejected) {
  const std::string record = EncodeLogRecord(MakeBatch(7));
  LogBatch decoded;
  EXPECT_FALSE(
      DecodeLogPayload(record.data() + 8, record.size() - 9, &decoded));
}

TEST(ChangeLogWriterTest, WriteReadRoundtrip) {
  const std::string dir = FreshDir("cl_roundtrip");
  ChangeLogWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(dir, 4 << 20, 0, /*epoch=*/3, &error)) << error;
  for (int64_t seq = 0; seq < 20; ++seq) {
    ASSERT_TRUE(writer.Append(MakeBatch(seq), &error)) << error;
  }
  ASSERT_TRUE(writer.Sync(&error)) << error;

  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  for (int64_t seq = 0; seq < 20; ++seq) {
    LogBatch batch;
    bool available = false;
    ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
    ASSERT_TRUE(available) << "seq " << seq;
    ExpectBatchEq(MakeBatch(seq), batch);
    // The cursor stamps each batch with its segment's fencing epoch.
    EXPECT_EQ(batch.epoch, 3);
  }
  // At the live tail: no record, no error.
  LogBatch batch;
  bool available = true;
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  EXPECT_FALSE(available);
  EXPECT_EQ(cursor.next_seq(), 20);
}

TEST(ChangeLogWriterTest, RotatesSegmentsAndCursorFollows) {
  const std::string dir = FreshDir("cl_rotate");
  ChangeLogWriter writer;
  std::string error;
  // Tiny threshold: every record lands past it, so each batch gets its own
  // segment after the first.
  ASSERT_TRUE(writer.Open(dir, 1, 0, /*epoch=*/1, &error)) << error;
  for (int64_t seq = 0; seq < 10; ++seq) {
    ASSERT_TRUE(writer.Append(MakeBatch(seq), &error)) << error;
  }
  ChangeLogDirState state;
  ASSERT_TRUE(ScanChangeLogDir(dir, &state, &error)) << error;
  // Every record lands in its own segment once the threshold trips.
  EXPECT_EQ(state.segments.size(), 10u);
  EXPECT_EQ(state.segments.front().first_seq, 0);
  EXPECT_EQ(state.segments.front().epoch, 1);
  EXPECT_EQ(state.max_epoch, 1);

  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  for (int64_t seq = 0; seq < 10; ++seq) {
    LogBatch batch;
    bool available = false;
    ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
    ASSERT_TRUE(available);
    EXPECT_EQ(batch.seq, seq);
  }
}

TEST(ChangeLogCursorTest, MidLogStartSkipsEarlierRecords) {
  const std::string dir = FreshDir("cl_midstart");
  ChangeLogWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(dir, 256, 0, /*epoch=*/1, &error)) << error;
  for (int64_t seq = 0; seq < 12; ++seq) {
    ASSERT_TRUE(writer.Append(MakeBatch(seq), &error)) << error;
  }
  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 7, &error)) << error;
  LogBatch batch;
  bool available = false;
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  ASSERT_TRUE(available);
  EXPECT_EQ(batch.seq, 7);
}

TEST(ChangeLogCursorTest, TornTailIsLiveNotCorrupt) {
  const std::string dir = FreshDir("cl_torn_tail");
  ChangeLogWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(dir, 4 << 20, 0, /*epoch=*/1, &error)) << error;
  ASSERT_TRUE(writer.Append(MakeBatch(0), &error)) << error;

  // Simulate an append in progress: half a record at the newest segment.
  const std::string record = EncodeLogRecord(MakeBatch(1));
  {
    std::ofstream out(dir + "/" + SegmentFileName(0),
                      std::ios::binary | std::ios::app);
    out.write(record.data(), static_cast<std::streamsize>(record.size() / 2));
  }

  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  LogBatch batch;
  bool available = false;
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  EXPECT_TRUE(available);
  EXPECT_EQ(batch.seq, 0);
  // The half record reads as "not yet available", repeatedly.
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  EXPECT_FALSE(available);

  // Completing the bytes makes the record appear on the next poll.
  {
    std::ofstream out(dir + "/" + SegmentFileName(0),
                      std::ios::binary | std::ios::app);
    out.write(record.data() + record.size() / 2,
              static_cast<std::streamsize>(record.size() - record.size() / 2));
  }
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  EXPECT_TRUE(available);
  EXPECT_EQ(batch.seq, 1);
}

TEST(ChangeLogCursorTest, TornRecordBeforeNewerSegmentIsCorruption) {
  const std::string dir = FreshDir("cl_torn_mid");
  ChangeLogWriter writer;
  std::string error;
  // Epoch 0 writer: the hand-written V1 successor below (header-only, no
  // epoch field) also reads as epoch 0, so this is a same-epoch rotation —
  // the fencing escape hatch must not kick in.
  ASSERT_TRUE(writer.Open(dir, 4 << 20, 0, /*epoch=*/0, &error)) << error;
  ASSERT_TRUE(writer.Append(MakeBatch(0), &error)) << error;
  const std::string record = EncodeLogRecord(MakeBatch(1));
  {
    std::ofstream out(dir + "/" + SegmentFileName(0),
                      std::ios::binary | std::ios::app);
    out.write(record.data(), static_cast<std::streamsize>(record.size() / 2));
  }
  // A same-epoch successor segment claims seq 1 lives there: the torn bytes
  // can no longer be an append in progress.
  {
    std::ofstream out(dir + "/" + SegmentFileName(1), std::ios::binary);
    out << "DMISLOG1";
  }
  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  LogBatch batch;
  bool available = false;
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  EXPECT_TRUE(available);
  EXPECT_FALSE(cursor.Next(&batch, &available, &error));
  EXPECT_NE(error.find("torn"), std::string::npos) << error;
}

TEST(ChangeLogCursorTest, CorruptPayloadFailsCrc) {
  const std::string dir = FreshDir("cl_crc");
  ChangeLogWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(dir, 4 << 20, 0, /*epoch=*/1, &error)) << error;
  ASSERT_TRUE(writer.Append(MakeBatch(0), &error)) << error;

  const std::string path = dir + "/" + SegmentFileName(0);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  // Flip one payload byte (past the 16-byte V2 segment header + 8-byte
  // record header).
  file.seekp(28);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(28);
  byte = static_cast<char>(byte ^ 0x5a);
  file.write(&byte, 1);
  file.close();

  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  LogBatch batch;
  bool available = false;
  EXPECT_FALSE(cursor.Next(&batch, &available, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(ChangeLogCursorTest, OpenBeforeRetainedHistoryFails) {
  const std::string dir = FreshDir("cl_lost_tail");
  ChangeLogWriter writer;
  std::string error;
  // Writer starts at seq 10 (earlier history never existed here).
  ASSERT_TRUE(writer.Open(dir, 4 << 20, 10, /*epoch=*/1, &error)) << error;
  ASSERT_TRUE(writer.Append(MakeBatch(10), &error)) << error;
  ChangeLogCursor cursor;
  EXPECT_FALSE(cursor.Open(dir, 3, &error));
}

TEST(ChangeLogCursorTest, HigherEpochSupersedesFencedTail) {
  const std::string dir = FreshDir("cl_fence");
  std::string error;
  // Writer A (epoch 1) logs seqs 0..3 — but its seq-3 batch was never
  // replicated before the failover, and the new primary logged a different
  // seq 3.
  {
    ChangeLogWriter old_primary;
    ASSERT_TRUE(old_primary.Open(dir, 4 << 20, 0, /*epoch=*/1, &error))
        << error;
    for (int64_t seq = 0; seq < 3; ++seq) {
      ASSERT_TRUE(old_primary.Append(MakeBatch(seq), &error)) << error;
    }
    LogBatch diverged = MakeBatch(100);
    diverged.seq = 3;
    ASSERT_TRUE(old_primary.Append(diverged, &error)) << error;
  }
  // Writer B (epoch 2) takes over from the last replicated seq.
  ChangeLogWriter new_primary;
  ASSERT_TRUE(new_primary.Open(dir, 4 << 20, 3, /*epoch=*/2, &error)) << error;
  ASSERT_TRUE(new_primary.Append(MakeBatch(3), &error)) << error;
  ASSERT_TRUE(new_primary.Sync(&error)) << error;

  // A replica that stopped at seq 3 replays A's prefix, then jumps to B's
  // segment for seq 3 — never seeing the fenced writer's diverged record.
  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  for (int64_t seq = 0; seq < 3; ++seq) {
    LogBatch batch;
    bool available = false;
    ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
    ASSERT_TRUE(available);
    EXPECT_EQ(batch.epoch, 1);
    ExpectBatchEq(MakeBatch(seq), batch);
  }
  LogBatch batch;
  bool available = false;
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  ASSERT_TRUE(available);
  EXPECT_EQ(batch.epoch, 2);
  ExpectBatchEq(MakeBatch(3), batch);
}

TEST(ChangeLogCursorTest, EpochForkBelowReplayedSeqIsDivergence) {
  const std::string dir = FreshDir("cl_diverge");
  std::string error;
  {
    ChangeLogWriter old_primary;
    ASSERT_TRUE(old_primary.Open(dir, 4 << 20, 0, /*epoch=*/1, &error))
        << error;
    for (int64_t seq = 0; seq < 5; ++seq) {
      ASSERT_TRUE(old_primary.Append(MakeBatch(seq), &error)) << error;
    }
  }
  // This replica consumed all five records before the failover...
  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  for (int64_t seq = 0; seq < 5; ++seq) {
    LogBatch batch;
    bool available = false;
    ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
    ASSERT_TRUE(available);
  }
  // ...but the new primary (epoch 2) forked at seq 3: records 3 and 4 the
  // replica already applied came from the fenced writer's unreplicated
  // tail. The replica cannot be patched forward — it must rebuild.
  ChangeLogWriter new_primary;
  ASSERT_TRUE(new_primary.Open(dir, 4 << 20, 3, /*epoch=*/2, &error)) << error;
  ASSERT_TRUE(new_primary.Append(MakeBatch(3), &error)) << error;
  ASSERT_TRUE(new_primary.Sync(&error)) << error;
  LogBatch batch;
  bool available = false;
  EXPECT_FALSE(cursor.Next(&batch, &available, &error));
  EXPECT_NE(error.find("diverged"), std::string::npos) << error;
}

TEST(ChangeLogCursorTest, LegacyV1SegmentReadsAsEpochZero) {
  const std::string dir = FreshDir("cl_v1");
  {
    std::ofstream out(dir + "/" + SegmentFileName(0), std::ios::binary);
    out << "DMISLOG1";
    const std::string record = EncodeLogRecord(MakeBatch(0));
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
  }
  std::string error;
  ChangeLogDirState state;
  ASSERT_TRUE(ScanChangeLogDir(dir, &state, &error)) << error;
  ASSERT_EQ(state.segments.size(), 1u);
  EXPECT_TRUE(state.segments[0].header_complete);
  EXPECT_EQ(state.segments[0].epoch, 0);
  ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  LogBatch batch;
  bool available = false;
  ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
  ASSERT_TRUE(available);
  EXPECT_EQ(batch.epoch, 0);
  ExpectBatchEq(MakeBatch(0), batch);
}

TEST(EpochFileTest, RoundTripAndMissingReadsAsZero) {
  const std::string dir = FreshDir("cl_epoch");
  EXPECT_EQ(ReadEpochFile(dir), 0);  // No file yet: pre-fencing log.
  std::string error;
  ASSERT_TRUE(WriteEpochFile(dir, 7, &error)) << error;
  EXPECT_EQ(ReadEpochFile(dir), 7);
  EXPECT_EQ(ReadEpochValue((dir + "/epoch").c_str()), 7);
  ASSERT_TRUE(WriteEpochFile(dir, 8, &error)) << error;
  EXPECT_EQ(ReadEpochFile(dir), 8);
}

TEST(CleanStaleTmpFilesTest, RemovesOnlyTmpFiles) {
  const std::string dir = FreshDir("cl_tmp");
  { std::ofstream(dir + "/base-0000000000000005.snap.tmp") << "torn"; }
  { std::ofstream(dir + "/epoch.tmp") << "torn"; }
  { std::ofstream(dir + "/" + SegmentFileName(0)) << "DMISLOG1"; }
  EXPECT_EQ(CleanStaleTmpFiles(dir), 2);
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/base-0000000000000005.snap.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + SegmentFileName(0)));
}

TEST(BaseSnapshotTest, ScanFindsNewestBaseAndPrologueCarriesEpoch) {
  const std::string dir = FreshDir("cl_base");
  std::string error;
  ASSERT_TRUE(WriteBaseSnapshot(dir, 5, /*epoch=*/1, "five", &error)) << error;
  ASSERT_TRUE(WriteBaseSnapshot(dir, 12, /*epoch=*/2, "twelve", &error))
      << error;
  ChangeLogDirState state;
  ASSERT_TRUE(ScanChangeLogDir(dir, &state, &error)) << error;
  EXPECT_EQ(state.latest_base_seq, 12);
  std::ifstream in;
  int64_t epoch = -1;
  ASSERT_TRUE(OpenBaseSnapshot(state.latest_base_path, &in, &epoch, &error))
      << error;
  EXPECT_EQ(epoch, 2);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), "twelve");
}

TEST(BaseSnapshotTest, FileWithoutPrologueIsRejected) {
  // Base snapshots without the epoch prologue predate it, so they hold a
  // version-1 container that this build cannot read.
  const std::string dir = FreshDir("cl_base_v1");
  const std::string path = dir + "/" + BaseSnapshotFileName(3);
  { std::ofstream(path) << "DYNMISSN-without-prologue"; }
  std::ifstream in;
  int64_t epoch = -1;
  std::string error;
  EXPECT_FALSE(OpenBaseSnapshot(path, &in, &epoch, &error));
  EXPECT_EQ(error, "base snapshot " + path + " has no epoch prologue");
}

// Checkpoint = newest base snapshot + record tail: bootstrap must land on
// the same state (and byte-identical solution) as the log's producer.
TEST(BootstrapTest, BaseSnapshotPlusTailReplaysToProducerState) {
  const std::string dir = FreshDir("cl_bootstrap");
  Rng rng(11);
  const EdgeListGraph base = ErdosRenyiGnm(80, 160, &rng);
  serve::ServeOptions options;
  options.backend = "sharded";
  options.shards = 3;

  std::string error;
  auto primary = serve::MakeServingBackend(base, options, &error);
  ASSERT_NE(primary, nullptr) << error;

  ChangeLogWriter writer;
  ASSERT_TRUE(writer.Open(dir, 1 << 12, 0, /*epoch=*/4, &error)) << error;
  DynamicGraph mirror = base.ToDynamic();
  UpdateStreamOptions stream;
  stream.seed = 99;
  UpdateStreamGenerator generator(stream, base);
  for (int64_t seq = 0; seq < 40; ++seq) {
    LogBatch batch;
    batch.seq = seq;
    for (int i = 0; i < 5; ++i) {
      const GraphUpdate update = generator.Next(mirror);
      ApplyUpdate(&mirror, update);
      batch.updates.push_back(update);
    }
    primary->ApplyBatch(batch.updates);
    ASSERT_TRUE(writer.Append(batch, &error)) << error;
    if (seq == 24) {
      // Background snapshot at a batch boundary: base-25.snap covers
      // batches [0, 25).
      std::ostringstream snap;
      ASSERT_TRUE(primary->SaveSnapshot(snap).ok);
      ASSERT_TRUE(
          WriteBaseSnapshot(dir, 25, /*epoch=*/4, std::move(snap).str(),
                            &error))
          << error;
    }
  }
  ASSERT_TRUE(writer.Sync(&error)) << error;

  BootstrapResult boot;
  ASSERT_TRUE(BootstrapFromChangeLog(dir, base, options, &boot, &error))
      << error;
  EXPECT_EQ(boot.base_seq, 25);
  EXPECT_EQ(boot.tail_batches, 15);
  EXPECT_EQ(boot.next_seq, 40);
  EXPECT_EQ(boot.epoch, 4);

  std::vector<VertexId> want;
  primary->CollectSolution(&want);
  std::vector<VertexId> got;
  boot.backend->CollectSolution(&got);
  EXPECT_EQ(want, got);
}

// The upgrade path from snapshot format 1: a base snapshot this build
// cannot read stops bootstrap with the version message. Change-log
// segments are never pruned, so with the base moved aside bootstrap
// replays every segment from seq 0 and reaches the writer's solution.
TEST(BootstrapTest, VersionOneBaseMovedAsideReplaysTheWholeLog) {
  Rng rng(17);
  const EdgeListGraph base = ErdosRenyiGnm(80, 160, &rng);
  for (const char* backend : {"engine", "sharded"}) {
    const std::string dir = FreshDir(std::string("cl_upgrade_") + backend);
    serve::ServeOptions options;
    options.backend = backend;
    options.shards = 3;
    std::string error;
    auto primary = serve::MakeServingBackend(base, options, &error);
    ASSERT_NE(primary, nullptr) << error;

    ChangeLogWriter writer;
    ASSERT_TRUE(writer.Open(dir, 1 << 12, 0, /*epoch=*/2, &error)) << error;
    DynamicGraph mirror = base.ToDynamic();
    UpdateStreamOptions stream;
    stream.seed = 23;
    UpdateStreamGenerator generator(stream, base);
    for (int64_t seq = 0; seq < 30; ++seq) {
      LogBatch batch;
      batch.seq = seq;
      for (int i = 0; i < 5; ++i) {
        const GraphUpdate update = generator.Next(mirror);
        ApplyUpdate(&mirror, update);
        batch.updates.push_back(update);
      }
      primary->ApplyBatch(batch.updates);
      ASSERT_TRUE(writer.Append(batch, &error)) << error;
      if (seq == 19) {
        // A base snapshot whose container header says version 1.
        std::ostringstream snap;
        ASSERT_TRUE(primary->SaveSnapshot(snap).ok);
        std::string bytes = std::move(snap).str();
        bytes[8] = 0x01;
        ASSERT_TRUE(WriteBaseSnapshot(dir, 20, /*epoch=*/2, bytes, &error))
            << error;
      }
    }
    ASSERT_TRUE(writer.Sync(&error)) << error;

    BootstrapResult boot;
    EXPECT_FALSE(BootstrapFromChangeLog(dir, base, options, &boot, &error));
    EXPECT_EQ(error,
              "restore failed: snapshot: unsupported version 1 (this build "
              "reads version 2)")
        << backend;

    const std::string aside = FreshDir(std::string("cl_aside_") + backend);
    std::filesystem::rename(dir + "/" + BaseSnapshotFileName(20),
                            aside + "/" + BaseSnapshotFileName(20));
    BootstrapResult replayed;
    ASSERT_TRUE(BootstrapFromChangeLog(dir, base, options, &replayed, &error))
        << backend << ": " << error;
    EXPECT_EQ(replayed.base_seq, -1) << backend;
    EXPECT_EQ(replayed.tail_batches, 30) << backend;
    EXPECT_EQ(replayed.next_seq, 30) << backend;
    std::vector<VertexId> want;
    primary->CollectSolution(&want);
    std::vector<VertexId> got;
    replayed.backend->CollectSolution(&got);
    EXPECT_EQ(want, got) << backend;
  }
}

// CreateFromGraph must reproduce the source graph's id space exactly —
// same capacity, same free-list recycle order — so a resharded engine
// assigns future vertex ids identically to the engine it replaced.
TEST(CreateFromGraphTest, IdAllocationAndSolutionSurviveResharding) {
  Rng rng(5);
  const EdgeListGraph base = ErdosRenyiGnm(60, 150, &rng);
  DynamicGraph global = base.ToDynamic();
  // Punch dead-id holes in a nontrivial recycle order.
  for (const VertexId v : {3, 41, 17, 9, 55}) global.RemoveVertex(v);

  ShardedEngineOptions options;
  options.num_shards = 4;
  auto engine =
      ShardedMisEngine::CreateFromGraph(global, MaintainerConfig{}, options);
  ASSERT_NE(engine, nullptr);
  engine->Initialize();

  // Future inserts allocate the same ids in both id spaces.
  for (int i = 0; i < 8; ++i) {
    const VertexId want = global.AddVertex();
    EXPECT_EQ(engine->InsertVertex({}), want);
  }

  const std::vector<VertexId> solution = engine->Solution();
  EXPECT_TRUE(testing_util::IsIndependentSet(global, solution));
  EXPECT_TRUE(testing_util::IsMaximalIndependentSet(global, solution));
}

}  // namespace
}  // namespace repl
}  // namespace dynmis
