// Test helpers that rewrite one section of a snapshot container, so a test
// can build the bytes another build would have written (a retired slot
// holding a value, a payload with a trailing byte) and feed them to a
// loader. The container is read and written through SnapshotReader and
// SnapshotWriter, so every other section stays byte-identical and the
// rewritten one gets a fresh CRC.

#ifndef DYNMIS_TESTS_SNAPSHOT_SECTIONS_H_
#define DYNMIS_TESTS_SNAPSHOT_SECTIONS_H_

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "dynmis/snapshot.h"
#include "gtest/gtest.h"

namespace dynmis {
namespace testing_util {

// The raw payload of section `name` of a container `reader` has read.
inline std::string SectionPayload(SnapshotReader* reader,
                                  const std::string& name) {
  EXPECT_TRUE(reader->OpenSection(name)) << name;
  std::string payload(reader->SectionSize(name), '\0');
  for (char& byte : payload) byte = static_cast<char>(reader->GetU8());
  return payload;
}

// The raw payload of section `name` in the container `blob`.
inline std::string SectionPayload(const std::string& blob,
                                  const std::string& name) {
  SnapshotReader reader;
  std::istringstream in(blob);
  EXPECT_TRUE(reader.ReadFrom(in).ok);
  return SectionPayload(&reader, name);
}

// `blob` with the payload of section `name` replaced by `payload`; the
// sections keep their order.
inline std::string WithSectionPayload(const std::string& blob,
                                      const std::string& name,
                                      const std::string& payload) {
  SnapshotReader reader;
  std::istringstream in(blob);
  EXPECT_TRUE(reader.ReadFrom(in).ok);
  SnapshotWriter writer;
  for (const std::string& section : reader.SectionNames()) {
    const std::string bytes =
        section == name ? payload : SectionPayload(&reader, section);
    writer.BeginSection(section);
    for (const char byte : bytes) writer.PutU8(static_cast<uint8_t>(byte));
    writer.EndSection();
  }
  std::ostringstream out;
  EXPECT_TRUE(writer.WriteTo(out).ok);
  return std::move(out).str();
}

// Overwrites the 8 bytes at `offset` of `payload` with `value` in
// SnapshotWriter's PutDouble encoding (IEEE-754 bits, little-endian).
inline void SetDoubleAt(std::string* payload, size_t offset, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    (*payload)[offset + i] = static_cast<char>(bits >> (8 * i));
  }
}

}  // namespace testing_util
}  // namespace dynmis

#endif  // DYNMIS_TESTS_SNAPSHOT_SECTIONS_H_
