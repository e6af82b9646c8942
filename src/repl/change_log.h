// Segmented change-log: the durable update stream behind replication.
//
// A primary appends every applied ApplyBatch — with its batch boundary,
// since the final solution is a function of the batch partition — as one
// length-prefixed CRC-checked record to an append-only segment file,
// rotating to a new segment once the current one passes a size threshold.
// Periodic base snapshots (full engine snapshots written next to the
// segments) bound replay cost: a checkpoint is the latest base plus the
// record tail after it, so recovery work scales with the change rate, not
// the history length.
//
// Every writer incarnation owns a fencing *epoch*: a monotonically
// increasing integer stamped into each segment header, each base-snapshot
// prologue, and the durable `epoch` file in the log directory. Promotion
// (and primary restart) bumps the epoch before serving writes, so a
// partitioned old primary can be recognized — and its unreplicated tail
// discarded — purely from the directory: where two segments both claim a
// sequence number, the higher epoch wins from its first record onward.
//
// Directory layout (one directory per log):
//
//   seg-<%016llx first_seq>.log   segments, named by their first record seq
//   base-<%016llx seq>.snap       base snapshots; seq = batches they contain
//   epoch                         8-byte LE epoch of the newest incarnation
//   *.tmp                         in-flight atomic publishes; stale ones are
//                                 ignored by scans and cleaned by the writer
//
// Segment format (all integers little-endian, fixed width):
//
//   magic     8 bytes  "DMISLOG2" ("DMISLOG1" = legacy, epoch 0, no field)
//   epoch     u64      fencing epoch of the writer incarnation
//   records   repeated { payload_len u32, crc32(payload) u32, payload }
//
// Record payload:
//
//   seq        u64     batch sequence number (0-based, contiguous)
//   num_ops    u32
//   per op: kind u8, u i32, v i32, num_neighbors u32, neighbors i32[]
//
// Base snapshot format: prologue "DMISBAS1" + epoch u64, then the engine
// snapshot container.
//
// Writers use plain write(2) so records become visible to same-host readers
// immediately (page cache), and fsync only on Sync() — the drain path and
// segment rotation sync, steady-state appends do not. Readers (tailing
// cursors) tolerate a partial record at the tail of the *last* segment —
// that is an append in progress, not corruption — but treat a CRC mismatch
// on a complete record, a sequence gap, or a torn record followed by a
// same-epoch successor segment as corruption. A torn or diverging tail
// followed by a *higher-epoch* segment claiming the same sequence is the
// fencing case: the dead writer's unreplicated bytes are skipped and the
// cursor continues in the higher epoch.

#ifndef DYNMIS_SRC_REPL_CHANGE_LOG_H_
#define DYNMIS_SRC_REPL_CHANGE_LOG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/graph/update_stream.h"

namespace dynmis {
namespace repl {

// One logged ApplyBatch: its sequence number, the fencing epoch of the
// segment it was read from, and the updates it applied, in admission order.
struct LogBatch {
  int64_t seq = 0;
  int64_t epoch = 0;
  std::vector<GraphUpdate> updates;
};

// Full on-disk record bytes (header + payload) for `batch`.
std::string EncodeLogRecord(const LogBatch& batch);

// Decodes a record payload (the bytes after the 8-byte record header).
// Returns false on a malformed payload.
bool DecodeLogPayload(const char* data, size_t size, LogBatch* out);

// File names within a change-log directory.
std::string SegmentFileName(int64_t first_seq);
std::string BaseSnapshotFileName(int64_t seq);

// One scanned segment. `header_complete` is false for an embryonic segment
// (created but its header never fully written — a crash inside segment
// creation); such a file provably holds no records and is skipped by
// cursors and rewritten by the next writer.
struct SegmentInfo {
  int64_t first_seq = 0;
  int64_t epoch = 0;
  bool header_complete = false;
  std::string path;
};

// A snapshot of the change-log directory: segments in ascending first-seq
// order plus the newest base snapshot (if any).
struct ChangeLogDirState {
  std::vector<SegmentInfo> segments;
  int64_t latest_base_seq = -1;  // -1 when no base snapshot exists.
  std::string latest_base_path;
  int64_t max_epoch = 0;  // Highest epoch across segment headers.
};

// Lists segments (reading each header for its epoch) and base snapshots
// under `dir`. A missing directory is an error; an empty one yields an
// empty state.
bool ScanChangeLogDir(const std::string& dir, ChangeLogDirState* out,
                      std::string* error);

// Durably publishes a base snapshot covering batches [0, seq): writes
// base-<seq>.snap.tmp with an epoch prologue, fsyncs, renames into place,
// fsyncs the directory.
bool WriteBaseSnapshot(const std::string& dir, int64_t seq, int64_t epoch,
                       const std::string& bytes, std::string* error);

// Opens a base snapshot, consumes its epoch prologue, and leaves `in`
// positioned at the engine snapshot container. A file without the prologue
// is an error: it predates the prologue, so its container is version 1.
bool OpenBaseSnapshot(const std::string& path, std::ifstream* in,
                      int64_t* epoch, std::string* error);

// The durable fencing epoch of `dir`. A missing or unreadable epoch file
// reads as 0 (pre-fencing logs). `ReadEpochValue` takes the full file path
// and performs no allocation — the serving loop polls it per applied batch.
int64_t ReadEpochValue(const char* epoch_path);
int64_t ReadEpochFile(const std::string& dir);

// Durably records `epoch` as the newest incarnation of `dir` (atomic
// tmp+rename+dir-fsync). Promotion must not serve writes until this
// succeeds.
bool WriteEpochFile(const std::string& dir, int64_t epoch, std::string* error);

// Removes stale `*.tmp` files (crashed atomic publishes) under `dir`.
// Returns the number removed. Only the directory's writer may call this.
int CleanStaleTmpFiles(const std::string& dir);

// Appends records to size-rotated segments. Single-threaded (the serving
// event loop is the sole producer).
class ChangeLogWriter {
 public:
  ChangeLogWriter() = default;
  ~ChangeLogWriter();

  ChangeLogWriter(const ChangeLogWriter&) = delete;
  ChangeLogWriter& operator=(const ChangeLogWriter&) = delete;

  // Opens (creating `dir` if needed) a fresh segment whose first record will
  // be `next_seq`, stamped with fencing epoch `epoch`. Existing segments
  // with earlier records are left in place; stale `.tmp` files are cleaned.
  bool Open(const std::string& dir, int64_t segment_bytes, int64_t next_seq,
            int64_t epoch, std::string* error);

  // Appends one record; rotates to a new segment first when the current one
  // has reached the size threshold (rotation fsyncs the finished segment).
  bool Append(const LogBatch& batch, std::string* error);

  // fsyncs the current segment (drain path / durability points).
  bool Sync(std::string* error);

  bool is_open() const { return fd_ >= 0; }
  const std::string& dir() const { return dir_; }
  int64_t epoch() const { return epoch_; }
  int64_t segments_created() const { return segments_created_; }
  int64_t records_appended() const { return records_appended_; }
  // First seqs of the segments this writer opened, in order (replication
  // lag in segments is counted against this).
  const std::vector<int64_t>& segment_starts() const {
    return segment_starts_;
  }

 private:
  bool OpenSegment(int64_t first_seq, std::string* error);

  std::string dir_;
  int64_t segment_bytes_ = 4 << 20;
  int64_t epoch_ = 0;
  int fd_ = -1;
  std::string segment_path_;  // Current segment (faultfs tag + errors).
  int64_t segment_size_ = 0;
  int64_t segments_created_ = 0;
  int64_t records_appended_ = 0;
  std::vector<int64_t> segment_starts_;
};

// Sequential reader over a change-log directory, starting at a given
// sequence number and able to tail a live log: Next() distinguishes "no
// complete record available yet" from corruption, rescans the directory
// for newly rotated segments as earlier ones are exhausted, and switches
// to a higher-epoch segment the moment one claims the next sequence
// number (discarding a fenced writer's unreplicated tail).
class ChangeLogCursor {
 public:
  ChangeLogCursor() = default;
  ~ChangeLogCursor();

  ChangeLogCursor(const ChangeLogCursor&) = delete;
  ChangeLogCursor& operator=(const ChangeLogCursor&) = delete;

  // Positions the cursor so the next record returned has seq == start_seq.
  // Fails when existing segments start after `start_seq` (the tail between
  // the caller's state and the log has been lost). An empty directory is
  // valid only when start_seq is 0 (the writer has not started yet).
  bool Open(const std::string& dir, int64_t start_seq, std::string* error);

  // Reads the next record. Returns false on corruption (with *error set).
  // On success *available says whether *out was filled; when false the
  // cursor reached the live tail and the caller should retry later.
  bool Next(LogBatch* out, bool* available, std::string* error);

  // Sequence number the next successful Next() will return.
  int64_t next_seq() const { return next_seq_; }

  // First seq of the currently open segment (-1 before any segment opens).
  int64_t segment_first_seq() const { return segment_first_seq_; }

  // Epoch of the currently open segment (0 before any segment opens).
  int64_t segment_epoch() const { return segment_epoch_; }

 private:
  // Opens the authoritative segment for `seq` — among segments whose first
  // seq is <= seq, the lexicographically greatest (epoch, first_seq) —
  // and records where the next higher epoch takes over. *found=false when
  // no such segment exists yet.
  bool OpenSegmentFor(int64_t seq, bool* found, std::string* error);

  std::string dir_;
  int fd_ = -1;
  int64_t offset_ = 0;      // Byte offset of the next unread record.
  int64_t record_seq_ = 0;  // Seq expected at offset_ (contiguity check).
  int64_t next_seq_ = 0;    // First seq the caller still wants.
  int64_t segment_first_seq_ = -1;  // First seq of the open segment.
  int64_t segment_epoch_ = 0;       // Epoch of the open segment.
  // First seq of the nearest higher-epoch segment: the cursor must leave
  // the current segment before reading that seq from it.
  int64_t supersede_at_ = INT64_MAX;
};

}  // namespace repl
}  // namespace dynmis

#endif  // DYNMIS_SRC_REPL_CHANGE_LOG_H_
