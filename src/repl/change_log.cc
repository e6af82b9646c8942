#include "src/repl/change_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/io/atomic_file.h"
#include "src/io/snapshot.h"
#include "src/util/faultfs.h"

namespace dynmis {
namespace repl {
namespace {

constexpr char kSegmentMagicV1[8] = {'D', 'M', 'I', 'S', 'L', 'O', 'G', '1'};
constexpr char kSegmentMagicV2[8] = {'D', 'M', 'I', 'S', 'L', 'O', 'G', '2'};
constexpr char kBaseMagic[8] = {'D', 'M', 'I', 'S', 'B', 'A', 'S', '1'};
constexpr size_t kMagicBytes = sizeof(kSegmentMagicV2);
// V2 segment header: magic + u64 epoch. V1 is magic only.
constexpr size_t kSegmentHeaderV2 = kMagicBytes + 8;
constexpr size_t kRecordHeaderBytes = 8;  // payload_len u32 + crc u32.
// A record holds one admission batch (bounded by batch_max_ops and the line
// length limit); anything near this size is structurally impossible and
// treated as corruption rather than attempted as an allocation.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint32_t ReadU32(const char* p) {
  uint32_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;  // Little-endian hosts only (matches src/io/snapshot.cc).
}

uint64_t ReadU64(const char* p) {
  uint64_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool SetErrno(std::string* error, const std::string& what) {
  return SetError(error, what + ": " + std::strerror(errno));
}

// Parses "<prefix><16 hex digits><suffix>" into the embedded sequence
// number; returns -1 when `name` does not match.
int64_t ParseSeqName(const std::string& name, const char* prefix,
                     const char* suffix) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (name.size() != prefix_len + 16 + suffix_len) return -1;
  if (name.compare(0, prefix_len, prefix) != 0) return -1;
  if (name.compare(prefix_len + 16, suffix_len, suffix) != 0) return -1;
  int64_t value = 0;
  for (size_t i = prefix_len; i < prefix_len + 16; ++i) {
    const char c = name[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return -1;
    }
    value = (value << 4) | digit;
  }
  return value;
}

std::string SeqName(const char* prefix, int64_t seq, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016llx%s", prefix,
                static_cast<unsigned long long>(seq), suffix);
  return buf;
}

// Reads exactly `size` bytes at `offset` unless the file ends first; returns
// the byte count actually read, or -1 on error.
ssize_t PreadFull(int fd, char* buf, size_t size, int64_t offset) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = pread(fd, buf + done, size - done,
                            static_cast<off_t>(offset) + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // EOF (possibly mid-record at a live tail).
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

// Classifies an open segment's header. Returns false only on a read error.
// *header_bytes is where records start; *complete is false for an embryonic
// header (too short) — a bad magic on a complete-length header is reported
// through *bad_magic so callers can treat it as corruption.
bool ReadSegmentHeader(int fd, int64_t* epoch, size_t* header_bytes,
                       bool* complete, bool* bad_magic) {
  *epoch = 0;
  *header_bytes = 0;
  *complete = false;
  *bad_magic = false;
  char header[kSegmentHeaderV2];
  const ssize_t got = PreadFull(fd, header, sizeof(header), 0);
  if (got < 0) return false;
  if (static_cast<size_t>(got) < kMagicBytes) return true;  // Embryonic.
  if (std::memcmp(header, kSegmentMagicV1, kMagicBytes) == 0) {
    *header_bytes = kMagicBytes;
    *complete = true;
    return true;
  }
  if (std::memcmp(header, kSegmentMagicV2, kMagicBytes) != 0) {
    *bad_magic = true;
    return true;
  }
  if (static_cast<size_t>(got) < kSegmentHeaderV2) return true;  // Embryonic.
  *epoch = static_cast<int64_t>(ReadU64(header + kMagicBytes));
  *header_bytes = kSegmentHeaderV2;
  *complete = true;
  return true;
}

}  // namespace

// High bit of the kind byte: the op carries an external-key suffix
// (u32 length + bytes after the neighbor list). Only vertex inserts and
// deletes can be keyed; readers without the bit set decode exactly the old
// format, so unkeyed logs stay byte-identical across versions.
constexpr uint8_t kKeyedKindFlag = 0x80;

std::string EncodeLogRecord(const LogBatch& batch) {
  std::string payload;
  AppendU64(&payload, static_cast<uint64_t>(batch.seq));
  AppendU32(&payload, static_cast<uint32_t>(batch.updates.size()));
  for (const GraphUpdate& update : batch.updates) {
    const bool keyed = !update.key.empty() &&
                       (update.kind == UpdateKind::kInsertVertex ||
                        update.kind == UpdateKind::kDeleteVertex);
    uint8_t kind = static_cast<uint8_t>(update.kind);
    if (keyed) kind |= kKeyedKindFlag;
    payload.push_back(static_cast<char>(kind));
    AppendU32(&payload, static_cast<uint32_t>(update.u));
    AppendU32(&payload, static_cast<uint32_t>(update.v));
    AppendU32(&payload, static_cast<uint32_t>(update.neighbors.size()));
    for (const VertexId neighbor : update.neighbors) {
      AppendU32(&payload, static_cast<uint32_t>(neighbor));
    }
    if (keyed) {
      AppendU32(&payload, static_cast<uint32_t>(update.key.size()));
      payload.append(update.key);
    }
  }
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  AppendU32(&record, static_cast<uint32_t>(payload.size()));
  AppendU32(&record, Crc32(payload.data(), payload.size()));
  record.append(payload);
  return record;
}

bool DecodeLogPayload(const char* data, size_t size, LogBatch* out) {
  size_t pos = 0;
  const auto remaining = [&] { return size - pos; };
  if (remaining() < 12) return false;
  out->seq = static_cast<int64_t>(ReadU64(data + pos));
  pos += 8;
  const uint32_t num_ops = ReadU32(data + pos);
  pos += 4;
  out->updates.clear();
  out->updates.reserve(num_ops);
  for (uint32_t i = 0; i < num_ops; ++i) {
    if (remaining() < 13) return false;
    GraphUpdate update;
    const uint8_t raw_kind = static_cast<uint8_t>(data[pos]);
    const bool keyed = (raw_kind & kKeyedKindFlag) != 0;
    const uint8_t kind = raw_kind & static_cast<uint8_t>(~kKeyedKindFlag);
    if (kind > static_cast<uint8_t>(UpdateKind::kDeleteVertex)) return false;
    update.kind = static_cast<UpdateKind>(kind);
    if (keyed && update.kind != UpdateKind::kInsertVertex &&
        update.kind != UpdateKind::kDeleteVertex) {
      return false;
    }
    pos += 1;
    update.u = static_cast<VertexId>(ReadU32(data + pos));
    pos += 4;
    update.v = static_cast<VertexId>(ReadU32(data + pos));
    pos += 4;
    const uint32_t num_neighbors = ReadU32(data + pos);
    pos += 4;
    if (remaining() < static_cast<size_t>(num_neighbors) * 4) return false;
    update.neighbors.reserve(num_neighbors);
    for (uint32_t j = 0; j < num_neighbors; ++j) {
      update.neighbors.push_back(static_cast<VertexId>(ReadU32(data + pos)));
      pos += 4;
    }
    if (keyed) {
      if (remaining() < 4) return false;
      const uint32_t key_len = ReadU32(data + pos);
      pos += 4;
      if (key_len == 0 || remaining() < key_len) return false;
      update.key.assign(data + pos, key_len);
      pos += key_len;
    }
    out->updates.push_back(std::move(update));
  }
  return pos == size;
}

std::string SegmentFileName(int64_t first_seq) {
  return SeqName("seg-", first_seq, ".log");
}

std::string BaseSnapshotFileName(int64_t seq) {
  return SeqName("base-", seq, ".snap");
}

bool ScanChangeLogDir(const std::string& dir, ChangeLogDirState* out,
                      std::string* error) {
  out->segments.clear();
  out->latest_base_seq = -1;
  out->latest_base_path.clear();
  out->max_epoch = 0;
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return SetErrno(error, "opendir " + dir);
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    int64_t seq = ParseSeqName(name, "seg-", ".log");
    if (seq >= 0) {
      SegmentInfo info;
      info.first_seq = seq;
      info.path = dir + "/" + name;
      out->segments.push_back(std::move(info));
      continue;
    }
    seq = ParseSeqName(name, "base-", ".snap");
    if (seq >= 0 && seq > out->latest_base_seq) {
      out->latest_base_seq = seq;
      out->latest_base_path = dir + "/" + name;
    }
  }
  closedir(handle);
  std::sort(out->segments.begin(), out->segments.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.first_seq < b.first_seq;
            });
  for (SegmentInfo& info : out->segments) {
    const int fd = open(info.path.c_str(), O_RDONLY);
    if (fd < 0) {
      // Raced with deletion or unreadable: treat as embryonic (no records).
      continue;
    }
    size_t header_bytes = 0;
    bool bad_magic = false;
    const bool ok = ReadSegmentHeader(fd, &info.epoch, &header_bytes,
                                      &info.header_complete, &bad_magic);
    close(fd);
    // A bad magic surfaces later, when a cursor actually opens the file.
    if (ok && info.header_complete && info.epoch > out->max_epoch) {
      out->max_epoch = info.epoch;
    }
  }
  return true;
}

bool WriteBaseSnapshot(const std::string& dir, int64_t seq, int64_t epoch,
                       const std::string& bytes, std::string* error) {
  std::string file;
  file.reserve(kMagicBytes + 8 + bytes.size());
  file.append(kBaseMagic, kMagicBytes);
  AppendU64(&file, static_cast<uint64_t>(epoch));
  file.append(bytes);
  return io::WriteFileAtomic(dir + "/" + BaseSnapshotFileName(seq), file,
                             error);
}

bool OpenBaseSnapshot(const std::string& path, std::ifstream* in,
                      int64_t* epoch, std::string* error) {
  *epoch = 0;
  in->open(path, std::ios::binary);
  if (!*in) return SetError(error, "cannot open base snapshot " + path);
  char prologue[kMagicBytes + 8];
  in->read(prologue, sizeof(prologue));
  if (in->gcount() != static_cast<std::streamsize>(sizeof(prologue)) ||
      std::memcmp(prologue, kBaseMagic, kMagicBytes) != 0) {
    return SetError(error, "base snapshot " + path + " has no epoch prologue");
  }
  *epoch = static_cast<int64_t>(ReadU64(prologue + kMagicBytes));
  return true;
}

int64_t ReadEpochValue(const char* epoch_path) {
  const int fd = open(epoch_path, O_RDONLY);
  if (fd < 0) return 0;
  char buf[8];
  const ssize_t got = PreadFull(fd, buf, sizeof(buf), 0);
  close(fd);
  if (got != static_cast<ssize_t>(sizeof(buf))) return 0;
  return static_cast<int64_t>(ReadU64(buf));
}

int64_t ReadEpochFile(const std::string& dir) {
  return ReadEpochValue((dir + "/epoch").c_str());
}

bool WriteEpochFile(const std::string& dir, int64_t epoch,
                    std::string* error) {
  // A restarting primary claims its epoch before opening the log, so this
  // may be the first write into a brand-new directory.
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return SetErrno(error, "mkdir " + dir);
  }
  std::string bytes;
  AppendU64(&bytes, static_cast<uint64_t>(epoch));
  return io::WriteFileAtomic(dir + "/epoch", bytes, error);
}

int CleanStaleTmpFiles(const std::string& dir) {
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return 0;
  int removed = 0;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      if (unlink((dir + "/" + name).c_str()) == 0) ++removed;
    }
  }
  closedir(handle);
  return removed;
}

ChangeLogWriter::~ChangeLogWriter() {
  if (fd_ >= 0) close(fd_);
}

bool ChangeLogWriter::Open(const std::string& dir, int64_t segment_bytes,
                           int64_t next_seq, int64_t epoch,
                           std::string* error) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return SetErrno(error, "mkdir " + dir);
  }
  dir_ = dir;
  segment_bytes_ = segment_bytes > 0 ? segment_bytes : (4 << 20);
  epoch_ = epoch;
  CleanStaleTmpFiles(dir_);
  return OpenSegment(next_seq, error);
}

bool ChangeLogWriter::OpenSegment(int64_t first_seq, std::string* error) {
  if (fd_ >= 0) {
    // Rotation durability point: the finished segment is synced before the
    // cursor-visible successor appears.
    int rc;
    do {
      rc = faultfs::Fsync(fd_, segment_path_.c_str());
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return SetErrno(error, "fsync segment");
    close(fd_);
    fd_ = -1;
  }
  const std::string path = dir_ + "/" + SegmentFileName(first_seq);
  // O_TRUNC: a name collision means the existing segment holds no complete
  // record below `first_seq` (the caller derived first_seq from scanning the
  // log), so rewriting it is the correct recovery.
  fd_ = open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) return SetErrno(error, "open " + path);
  segment_path_ = path;
  char header[kSegmentHeaderV2];
  std::memcpy(header, kSegmentMagicV2, kMagicBytes);
  const uint64_t epoch = static_cast<uint64_t>(epoch_);
  std::memcpy(header + kMagicBytes, &epoch, sizeof(epoch));
  size_t off = 0;
  while (off < sizeof(header)) {
    const ssize_t n = faultfs::Write(fd_, header + off, sizeof(header) - off,
                                     segment_path_.c_str());
    if (n < 0) {
      if (errno == EINTR) continue;
      return SetErrno(error, "write header " + path);
    }
    off += static_cast<size_t>(n);
  }
  segment_size_ = static_cast<int64_t>(sizeof(header));
  ++segments_created_;
  segment_starts_.push_back(first_seq);
  return true;
}

bool ChangeLogWriter::Append(const LogBatch& batch, std::string* error) {
  if (fd_ < 0) return SetError(error, "change log is not open");
  if (segment_size_ >= segment_bytes_) {
    if (!OpenSegment(batch.seq, error)) return false;
  }
  const std::string record = EncodeLogRecord(batch);
  size_t off = 0;
  while (off < record.size()) {
    const ssize_t n = faultfs::Write(fd_, record.data() + off,
                                     record.size() - off,
                                     segment_path_.c_str());
    if (n < 0) {
      if (errno == EINTR) continue;
      return SetErrno(error, "write record");
    }
    off += static_cast<size_t>(n);
  }
  segment_size_ += static_cast<int64_t>(record.size());
  ++records_appended_;
  return true;
}

bool ChangeLogWriter::Sync(std::string* error) {
  if (fd_ < 0) return true;
  int rc;
  do {
    rc = faultfs::Fsync(fd_, segment_path_.c_str());
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return SetErrno(error, "fsync segment");
  return true;
}

ChangeLogCursor::~ChangeLogCursor() {
  if (fd_ >= 0) close(fd_);
}

bool ChangeLogCursor::Open(const std::string& dir, int64_t start_seq,
                           std::string* error) {
  dir_ = dir;
  next_seq_ = start_seq;
  ChangeLogDirState state;
  if (!ScanChangeLogDir(dir_, &state, error)) return false;
  if (state.segments.empty()) {
    if (start_seq != 0) {
      return SetError(error, "change log " + dir + " is empty but seq " +
                                 std::to_string(start_seq) + " was requested");
    }
    return true;  // Tail an as-yet-unstarted log.
  }
  if (state.segments.front().first_seq > start_seq) {
    return SetError(error,
                    "change log " + dir + " starts at seq " +
                        std::to_string(state.segments.front().first_seq) +
                        ", cannot serve seq " + std::to_string(start_seq));
  }
  bool found = false;
  if (!OpenSegmentFor(start_seq, &found, error)) return false;
  // !found: only embryonic candidates — a writer died creating its first
  // segment for start_seq. Next() keeps polling; this is a live tail.
  return true;
}

bool ChangeLogCursor::OpenSegmentFor(int64_t seq, bool* found,
                                     std::string* error) {
  *found = false;
  ChangeLogDirState state;
  if (!ScanChangeLogDir(dir_, &state, error)) return false;
  // The authoritative segment for `seq` is the lexicographically greatest
  // (epoch, first_seq) among complete segments with first_seq <= seq: a
  // higher epoch owns every sequence from its first record onward, so a
  // fenced writer's same-range segment loses even when it starts later.
  const SegmentInfo* best = nullptr;
  for (const SegmentInfo& info : state.segments) {
    if (!info.header_complete || info.first_seq > seq) continue;
    if (best == nullptr || info.epoch > best->epoch ||
        (info.epoch == best->epoch && info.first_seq > best->first_seq)) {
      best = &info;
    }
  }
  if (best == nullptr) return true;
  if (fd_ >= 0) close(fd_);
  fd_ = open(best->path.c_str(), O_RDONLY);
  if (fd_ < 0) return SetErrno(error, "open " + best->path);
  int64_t epoch = 0;
  size_t header_bytes = 0;
  bool complete = false;
  bool bad_magic = false;
  if (!ReadSegmentHeader(fd_, &epoch, &header_bytes, &complete, &bad_magic)) {
    return SetErrno(error, "read " + best->path);
  }
  if (bad_magic) return SetError(error, "bad segment magic in " + best->path);
  if (!complete) {
    // Shrank between scan and open (impossible for an append-only file,
    // but a hostile dir is not a crash): treat as corruption.
    return SetError(error, "truncated segment header in " + best->path);
  }
  offset_ = static_cast<int64_t>(header_bytes);
  record_seq_ = best->first_seq;
  segment_first_seq_ = best->first_seq;
  segment_epoch_ = epoch;
  // Where the next incarnation takes over: reading the current segment past
  // this sequence would replay a fenced writer's diverged tail.
  supersede_at_ = INT64_MAX;
  for (const SegmentInfo& info : state.segments) {
    if (!info.header_complete || info.epoch <= segment_epoch_) continue;
    supersede_at_ = std::min(supersede_at_, info.first_seq);
  }
  *found = true;
  return true;
}

bool ChangeLogCursor::Next(LogBatch* out, bool* available, std::string* error) {
  *available = false;
  for (;;) {
    if (fd_ < 0) {
      // The log had no segments at Open; look for the writer's first one.
      bool found = false;
      if (!OpenSegmentFor(next_seq_, &found, error)) return false;
      if (!found) return true;  // Still nothing: live tail.
    }
    if (record_seq_ >= supersede_at_) {
      // A higher epoch owns this sequence: jump to its segment instead of
      // replaying the fenced writer's tail.
      bool found = false;
      if (!OpenSegmentFor(record_seq_, &found, error)) return false;
      if (!found) {
        return SetError(error, "segment for seq " +
                                   std::to_string(record_seq_) +
                                   " disappeared during epoch handoff");
      }
      if (segment_first_seq_ < next_seq_) {
        // The new epoch forked below sequences the caller already consumed:
        // that prefix was a fenced writer's diverged tail, so the caller's
        // state cannot be patched forward — it must rebuild.
        return SetError(error,
                        "epoch " + std::to_string(segment_epoch_) +
                            " forked at seq " +
                            std::to_string(segment_first_seq_) +
                            " below already-replayed seq " +
                            std::to_string(next_seq_) +
                            "; replica state diverged, rebuild required");
      }
      continue;
    }
    char header[kRecordHeaderBytes];
    const ssize_t got = PreadFull(fd_, header, kRecordHeaderBytes, offset_);
    if (got < 0) return SetErrno(error, "read record header");
    bool partial = static_cast<size_t>(got) < kRecordHeaderBytes;
    uint32_t payload_len = 0;
    uint32_t crc = 0;
    std::string payload;
    if (!partial) {
      payload_len = ReadU32(header);
      crc = ReadU32(header + 4);
      if (payload_len > kMaxPayloadBytes) {
        return SetError(error, "corrupt record length at seq " +
                                   std::to_string(record_seq_));
      }
      payload.resize(payload_len);
      const ssize_t body = PreadFull(fd_, payload.data(), payload_len,
                                     offset_ + kRecordHeaderBytes);
      if (body < 0) return SetErrno(error, "read record payload");
      partial = static_cast<size_t>(body) < payload_len;
    }
    if (partial) {
      // Either a clean EOF at a record boundary (a rotation may have moved
      // the writer to a successor segment starting at record_seq_), an
      // append in progress, or the torn last write of a writer that has
      // since been superseded by a higher epoch.
      ChangeLogDirState state;
      if (!ScanChangeLogDir(dir_, &state, error)) return false;
      bool rotated_successor = false;  // Same epoch, next segment.
      bool superseded = false;         // Higher epoch claims record_seq_.
      for (const SegmentInfo& info : state.segments) {
        if (!info.header_complete) continue;
        if (info.epoch > segment_epoch_ && info.first_seq <= record_seq_) {
          superseded = true;
        }
        if (info.epoch == segment_epoch_ && info.first_seq == record_seq_ &&
            info.first_seq != segment_first_seq_) {
          rotated_successor = true;
        }
        if (info.epoch > segment_epoch_) {
          supersede_at_ = std::min(supersede_at_, info.first_seq);
        }
      }
      if (superseded) {
        // The torn/missing bytes belong to a fenced writer; the higher
        // epoch owns this sequence now.
        bool found = false;
        if (!OpenSegmentFor(record_seq_, &found, error)) return false;
        if (!found) {
          return SetError(error, "segment for seq " +
                                     std::to_string(record_seq_) +
                                     " disappeared during epoch handoff");
        }
        if (segment_first_seq_ < next_seq_) {
          return SetError(error,
                          "epoch " + std::to_string(segment_epoch_) +
                              " forked at seq " +
                              std::to_string(segment_first_seq_) +
                              " below already-replayed seq " +
                              std::to_string(next_seq_) +
                              "; replica state diverged, rebuild required");
        }
        continue;
      }
      if (rotated_successor) {
        // Complete records never straddle a rotation, so torn bytes inside
        // a rotated-away segment are corruption.
        if (got != 0) {
          return SetError(error, "torn record at seq " +
                                     std::to_string(record_seq_) +
                                     " inside a rotated segment");
        }
        bool found = false;
        if (!OpenSegmentFor(record_seq_, &found, error)) return false;
        if (!found) {
          return SetError(error, "segment for seq " +
                                     std::to_string(record_seq_) +
                                     " disappeared during rescan");
        }
        continue;
      }
      return true;  // Live tail; retry later.
    }
    if (Crc32(payload.data(), payload.size()) != crc) {
      return SetError(error,
                      "record CRC mismatch at seq " +
                          std::to_string(record_seq_) + " in " + dir_);
    }
    LogBatch batch;
    if (!DecodeLogPayload(payload.data(), payload.size(), &batch)) {
      return SetError(error, "malformed record payload at seq " +
                                 std::to_string(record_seq_));
    }
    if (batch.seq != record_seq_) {
      return SetError(error, "sequence gap: expected " +
                                 std::to_string(record_seq_) + ", found " +
                                 std::to_string(batch.seq));
    }
    batch.epoch = segment_epoch_;
    offset_ += static_cast<int64_t>(kRecordHeaderBytes + payload_len);
    ++record_seq_;
    if (batch.seq >= next_seq_) {
      next_seq_ = record_seq_;
      *out = std::move(batch);
      *available = true;
      return true;
    }
    // Record predates the requested start (bootstrap replayed it already).
  }
}

}  // namespace repl
}  // namespace dynmis
