// Versioned binary snapshot container: the durable on-disk format for engine
// state (dynamic graph + maintainer swap structures). Restarting a maintainer
// on a massive graph by replaying its update history is O(history); restoring
// a snapshot is O(state) — the difference between minutes of replay and a
// sub-second load on the paper's workloads.
//
// Layout (all integers little-endian, fixed width):
//
//   magic      8 bytes  "DYNMISSN"
//   version    u32      kSnapshotVersion (readers reject other versions)
//   count      u32      number of sections
//   table      count x { name_len u16, name bytes, payload_len u64, crc u32 }
//   payloads   count payloads, in table order
//
// Each section's CRC32 (IEEE 802.3 polynomial) covers its payload, so a
// flipped bit anywhere in the data is detected before any of it is
// interpreted. Sections are named ("engine", "graph", "mis", ...); producers
// append sections through SnapshotWriter, consumers locate them by name
// through SnapshotReader. Within a payload, values are a flat sequence of
// fixed-width scalars, length-prefixed strings and length-prefixed arrays.
//
// The library does not use exceptions: failures surface as SnapshotStatus
// (writer) or a sticky error on SnapshotReader whose typed getters return
// zero values once the reader has failed — malformed input can produce an
// error, never undefined behaviour.
//
// Both directions buffer the whole container in memory (the header's CRC
// table must precede the payloads, and every payload is CRC-verified before
// any of it is interpreted), so save/load transiently hold roughly the
// serialized engine state on top of the live one. If that tax ever bites at
// larger scale, the follow-up is a streaming layout with per-section
// trailer CRCs (see ROADMAP).

#ifndef DYNMIS_SRC_IO_SNAPSHOT_H_
#define DYNMIS_SRC_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace dynmis {

// Bumped when the section payload encodings change incompatibly. Readers
// reject files written by a different version (see README "Snapshots" for
// the section layouts and the compatibility policy).
inline constexpr uint32_t kSnapshotVersion = 2;

// Outcome of a snapshot save/load. `ok` with an empty message on success;
// on failure `message` names the section and the structural check that
// failed.
struct SnapshotStatus {
  bool ok = true;
  std::string message;

  static SnapshotStatus Ok() { return {}; }
  static SnapshotStatus Error(std::string msg) {
    return {false, std::move(msg)};
  }
  explicit operator bool() const { return ok; }
};

// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `size` bytes.
// `seed` chains incremental computation; pass the previous return value.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// Accumulates named sections in memory, then serializes the container to a
// stream. Values are appended little-endian through the typed Put* methods
// between BeginSection/EndSection.
class SnapshotWriter {
 public:
  void BeginSection(const std::string& name);
  void EndSection();

  // Prefix prepended to every section name passed to BeginSection until the
  // next SetSectionPrefix (empty clears it). Lets a composite producer (the
  // sharded engine) nest a component's fixed section names — "graph",
  // "mis" — uniquely per component: "shard3/graph", "shard3/mis".
  void SetSectionPrefix(std::string prefix) { prefix_ = std::move(prefix); }

  void PutU8(uint8_t value);
  void PutU32(uint32_t value);
  void PutI32(int32_t value) { PutU32(static_cast<uint32_t>(value)); }
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  // IEEE-754 bit pattern, little-endian.
  void PutDouble(double value);
  // u64 length + raw bytes.
  void PutString(const std::string& value);
  // u64 count + count little-endian elements.
  void PutI32Array(const std::vector<int32_t>& values);
  void PutU8Array(const std::vector<uint8_t>& values);

  // Serializes header + table + payloads. The writer stays intact (a caller
  // may write the same snapshot to several sinks).
  SnapshotStatus WriteTo(std::ostream& out) const;

 private:
  struct Section {
    std::string name;
    std::string payload;
  };

  std::vector<Section> sections_;
  std::string prefix_;
  bool in_section_ = false;
};

// Parses a snapshot container and hands out typed cursors over its sections.
// All structural problems (bad magic, version mismatch, truncation, CRC
// failure, over-read of a section) are reported through the sticky error
// state: once failed, every getter returns a zero value and ok() is false.
class SnapshotReader {
 public:
  // Reads and verifies the whole container (header, table, payload CRCs).
  // On failure the reader is unusable and the status carries the reason.
  SnapshotStatus ReadFrom(std::istream& in);

  uint32_t version() const { return version_; }
  bool HasSection(const std::string& name) const;
  // Section names in file order (the `snapshot info` listing).
  std::vector<std::string> SectionNames() const;
  // Payload size of `name`, or 0 when absent.
  size_t SectionSize(const std::string& name) const;

  // Prefix prepended to the name arguments of OpenSection / HasSection /
  // SectionSize until the next SetSectionPrefix (empty clears it); the
  // mirror of SnapshotWriter::SetSectionPrefix for composite consumers.
  void SetSectionPrefix(std::string prefix) { prefix_ = std::move(prefix); }

  // Positions the value cursor at the start of `name`. Returns false and
  // fails the reader when the section is missing.
  bool OpenSection(const std::string& name);

  uint8_t GetU8();
  uint32_t GetU32();
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble();
  std::string GetString();
  // Replaces `*out` with the stored array. Returns false on a malformed
  // length (the declared element count must fit in the section's remaining
  // bytes, so a corrupt length can never trigger a huge allocation).
  bool GetI32Array(std::vector<int32_t>* out);
  bool GetU8Array(std::vector<uint8_t>* out);

  // True when the cursor consumed the open section exactly. Loaders call
  // this after their last field: trailing bytes mean the payload was not
  // written by this revision's encoder and must be rejected, not ignored.
  bool AtSectionEnd() const;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  SnapshotStatus status() const {
    return ok_ ? SnapshotStatus::Ok() : SnapshotStatus::Error(error_);
  }

  // Marks the reader failed with a structural error message (used by the
  // graph / maintainer loaders when decoded values fail validation).
  void Fail(const std::string& message);

 private:
  // Returns a pointer to `size` readable bytes at the cursor, advancing it;
  // nullptr (and a sticky error) on section over-read.
  const char* Take(size_t size);

  std::map<std::string, std::string> sections_;
  std::vector<std::string> order_;
  std::string prefix_;
  uint32_t version_ = 0;
  const std::string* current_ = nullptr;
  std::string current_name_;
  size_t cursor_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_IO_SNAPSHOT_H_
