#include "src/io/snapshot.h"

#include <cstring>
#include <istream>
#include <ostream>

#include "src/util/check.h"

namespace dynmis {
namespace {

constexpr char kMagic[8] = {'D', 'Y', 'N', 'M', 'I', 'S', 'S', 'N'};
// A snapshot holds a handful of sections (engine, graph, one or two per
// maintainer); a five-digit count in the header is certainly corruption.
constexpr uint32_t kMaxSections = 4096;
constexpr size_t kMaxSectionNameLen = 512;
// Payloads stream in bounded chunks so a corrupt length field cannot force
// one huge allocation before truncation is detected.
constexpr size_t kReadChunk = 1 << 20;

void AppendLe(std::string* out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint64_t DecodeLe(const char* data, int bytes) {
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
  }
  return value;
}

bool ReadExact(std::istream& in, char* data, size_t size) {
  in.read(data, static_cast<std::streamsize>(size));
  return static_cast<size_t>(in.gcount()) == size;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  // Slicing-by-8: t[k][b] is the CRC of byte b followed by k zero bytes, so
  // eight lookups fold eight input bytes into the CRC at once.
  static const auto* t = [] {
    static uint32_t tables[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t c = tables[k - 1][i];
        tables[k][i] = tables[0][c & 0xff] ^ (c >> 8);
      }
    }
    return tables;
  }();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    const auto lo = static_cast<uint32_t>(DecodeLe(
                        reinterpret_cast<const char*>(bytes), 4)) ^
                    crc;
    const auto hi = static_cast<uint32_t>(
        DecodeLe(reinterpret_cast<const char*>(bytes + 4), 4));
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size) crc = t[0][(crc ^ *bytes++) & 0xff] ^ (crc >> 8);
  return ~crc;
}

// --- SnapshotWriter ----------------------------------------------------------

void SnapshotWriter::BeginSection(const std::string& name) {
  DYNMIS_CHECK(!in_section_);
  DYNMIS_CHECK(!name.empty());
  std::string full = prefix_ + name;
  DYNMIS_CHECK(full.size() <= kMaxSectionNameLen);
  sections_.push_back(Section{std::move(full), {}});
  in_section_ = true;
}

void SnapshotWriter::EndSection() {
  DYNMIS_CHECK(in_section_);
  in_section_ = false;
}

void SnapshotWriter::PutU8(uint8_t value) {
  DYNMIS_CHECK(in_section_);
  AppendLe(&sections_.back().payload, value, 1);
}

void SnapshotWriter::PutU32(uint32_t value) {
  DYNMIS_CHECK(in_section_);
  AppendLe(&sections_.back().payload, value, 4);
}

void SnapshotWriter::PutU64(uint64_t value) {
  DYNMIS_CHECK(in_section_);
  AppendLe(&sections_.back().payload, value, 8);
}

void SnapshotWriter::PutDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void SnapshotWriter::PutString(const std::string& value) {
  PutU64(value.size());
  DYNMIS_CHECK(in_section_);
  sections_.back().payload.append(value);
}

void SnapshotWriter::PutI32Array(const std::vector<int32_t>& values) {
  PutU64(values.size());
  DYNMIS_CHECK(in_section_);
  // Bulk little-endian encode straight into the payload: i32 arrays are the
  // overwhelming bulk of a snapshot (graph + MisState), and save cost is
  // measured inside the bench driver's timed loop, so the per-byte
  // push_back of AppendLe would severalfold the reported durability tax.
  std::string& payload = sections_.back().payload;
  const size_t offset = payload.size();
  payload.resize(offset + 4 * values.size());
  char* out = payload.data() + offset;
  for (size_t i = 0; i < values.size(); ++i) {
    const uint32_t v = static_cast<uint32_t>(values[i]);
    out[4 * i + 0] = static_cast<char>(v);
    out[4 * i + 1] = static_cast<char>(v >> 8);
    out[4 * i + 2] = static_cast<char>(v >> 16);
    out[4 * i + 3] = static_cast<char>(v >> 24);
  }
}

void SnapshotWriter::PutU8Array(const std::vector<uint8_t>& values) {
  PutU64(values.size());
  DYNMIS_CHECK(in_section_);
  sections_.back().payload.append(
      reinterpret_cast<const char*>(values.data()), values.size());
}

SnapshotStatus SnapshotWriter::WriteTo(std::ostream& out) const {
  DYNMIS_CHECK(!in_section_);
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  AppendLe(&header, kSnapshotVersion, 4);
  AppendLe(&header, sections_.size(), 4);
  for (const Section& section : sections_) {
    AppendLe(&header, section.name.size(), 2);
    header.append(section.name);
    AppendLe(&header, section.payload.size(), 8);
    AppendLe(&header, Crc32(section.payload.data(), section.payload.size()),
             4);
  }
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const Section& section : sections_) {
    out.write(section.payload.data(),
              static_cast<std::streamsize>(section.payload.size()));
  }
  out.flush();
  if (!out.good()) return SnapshotStatus::Error("snapshot: write failed");
  return SnapshotStatus::Ok();
}

// --- SnapshotReader ----------------------------------------------------------

SnapshotStatus SnapshotReader::ReadFrom(std::istream& in) {
  auto fail = [&](const std::string& message) {
    Fail(message);
    return SnapshotStatus::Error(error_);
  };

  char magic[sizeof(kMagic)];
  if (!ReadExact(in, magic, sizeof(magic))) {
    return fail("snapshot: truncated header (magic)");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("snapshot: bad magic (not a dynmis snapshot)");
  }
  char scalar[8];
  if (!ReadExact(in, scalar, 4)) {
    return fail("snapshot: truncated header (version)");
  }
  version_ = static_cast<uint32_t>(DecodeLe(scalar, 4));
  if (version_ != kSnapshotVersion) {
    return fail("snapshot: unsupported version " + std::to_string(version_) +
                " (this build reads version " +
                std::to_string(kSnapshotVersion) + ")");
  }
  if (!ReadExact(in, scalar, 4)) {
    return fail("snapshot: truncated header (section count)");
  }
  const uint32_t count = static_cast<uint32_t>(DecodeLe(scalar, 4));
  if (count > kMaxSections) {
    return fail("snapshot: implausible section count " +
                std::to_string(count));
  }

  struct TableEntry {
    std::string name;
    uint64_t size = 0;
    uint32_t crc = 0;
  };
  std::vector<TableEntry> table(count);
  for (TableEntry& entry : table) {
    if (!ReadExact(in, scalar, 2)) {
      return fail("snapshot: truncated section table");
    }
    const size_t name_len = static_cast<size_t>(DecodeLe(scalar, 2));
    if (name_len == 0 || name_len > kMaxSectionNameLen) {
      return fail("snapshot: implausible section name length");
    }
    entry.name.resize(name_len);
    if (!ReadExact(in, entry.name.data(), name_len)) {
      return fail("snapshot: truncated section table");
    }
    if (!ReadExact(in, scalar, 8)) {
      return fail("snapshot: truncated section table");
    }
    entry.size = DecodeLe(scalar, 8);
    if (!ReadExact(in, scalar, 4)) {
      return fail("snapshot: truncated section table");
    }
    entry.crc = static_cast<uint32_t>(DecodeLe(scalar, 4));
  }

  for (const TableEntry& entry : table) {
    std::string payload;
    uint64_t remaining = entry.size;
    while (remaining > 0) {
      const size_t chunk =
          remaining > kReadChunk ? kReadChunk : static_cast<size_t>(remaining);
      const size_t offset = payload.size();
      payload.resize(offset + chunk);
      if (!ReadExact(in, payload.data() + offset, chunk)) {
        return fail("snapshot: truncated payload of section '" + entry.name +
                    "'");
      }
      remaining -= chunk;
    }
    if (Crc32(payload.data(), payload.size()) != entry.crc) {
      return fail("snapshot: CRC mismatch in section '" + entry.name +
                  "' (corrupted data)");
    }
    if (!sections_.emplace(entry.name, std::move(payload)).second) {
      return fail("snapshot: duplicate section '" + entry.name + "'");
    }
    order_.push_back(entry.name);
  }
  return SnapshotStatus::Ok();
}

bool SnapshotReader::HasSection(const std::string& name) const {
  return sections_.count(prefix_ + name) != 0;
}

std::vector<std::string> SnapshotReader::SectionNames() const {
  return order_;
}

size_t SnapshotReader::SectionSize(const std::string& name) const {
  auto it = sections_.find(prefix_ + name);
  return it == sections_.end() ? 0 : it->second.size();
}

bool SnapshotReader::OpenSection(const std::string& name) {
  if (!ok_) return false;
  std::string full = prefix_ + name;
  auto it = sections_.find(full);
  if (it == sections_.end()) {
    Fail("snapshot: missing section '" + full + "'");
    return false;
  }
  current_ = &it->second;
  current_name_ = std::move(full);
  cursor_ = 0;
  return true;
}

void SnapshotReader::Fail(const std::string& message) {
  if (!ok_) return;  // Keep the first (root-cause) error.
  ok_ = false;
  error_ = message;
}

const char* SnapshotReader::Take(size_t size) {
  if (!ok_) return nullptr;
  if (current_ == nullptr) {
    Fail("snapshot: read before OpenSection");
    return nullptr;
  }
  if (size > current_->size() - cursor_) {
    Fail("snapshot: section '" + current_name_ +
         "' is shorter than its declared contents");
    return nullptr;
  }
  const char* data = current_->data() + cursor_;
  cursor_ += size;
  return data;
}

uint8_t SnapshotReader::GetU8() {
  const char* data = Take(1);
  return data ? static_cast<uint8_t>(DecodeLe(data, 1)) : 0;
}

uint32_t SnapshotReader::GetU32() {
  const char* data = Take(4);
  return data ? static_cast<uint32_t>(DecodeLe(data, 4)) : 0;
}

uint64_t SnapshotReader::GetU64() {
  const char* data = Take(8);
  return data ? DecodeLe(data, 8) : 0;
}

double SnapshotReader::GetDouble() {
  const uint64_t bits = GetU64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string SnapshotReader::GetString() {
  const uint64_t size = GetU64();
  if (!ok_) return {};
  if (current_ == nullptr || size > current_->size() - cursor_) {
    Fail("snapshot: malformed string length in section '" + current_name_ +
         "'");
    return {};
  }
  const char* data = Take(static_cast<size_t>(size));
  return data ? std::string(data, static_cast<size_t>(size)) : std::string();
}

bool SnapshotReader::GetI32Array(std::vector<int32_t>* out) {
  const uint64_t count = GetU64();
  if (!ok_) return false;
  if (current_ == nullptr || count > (current_->size() - cursor_) / 4) {
    Fail("snapshot: malformed array length in section '" + current_name_ +
         "'");
    return false;
  }
  const char* data = Take(4 * static_cast<size_t>(count));
  if (data == nullptr) return false;
  out->resize(static_cast<size_t>(count));
  for (size_t i = 0; i < count; ++i) {
    (*out)[i] = static_cast<int32_t>(
        static_cast<uint32_t>(DecodeLe(data + 4 * i, 4)));
  }
  return true;
}

bool SnapshotReader::GetU8Array(std::vector<uint8_t>* out) {
  const uint64_t count = GetU64();
  if (!ok_) return false;
  if (current_ == nullptr || count > current_->size() - cursor_) {
    Fail("snapshot: malformed array length in section '" + current_name_ +
         "'");
    return false;
  }
  const char* data = Take(static_cast<size_t>(count));
  if (data == nullptr) return false;
  out->assign(reinterpret_cast<const unsigned char*>(data),
              reinterpret_cast<const unsigned char*>(data) +
                  static_cast<size_t>(count));
  return true;
}

bool SnapshotReader::AtSectionEnd() const {
  return ok_ && current_ != nullptr && cursor_ == current_->size();
}

}  // namespace dynmis
