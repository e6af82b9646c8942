// The one JSON writer: bench_driver's BENCH_<scenario>.json files,
// dynmis_loadgen's SERVE_<scenario>.json, the server's STATS line and
// `dynmis_cli ingest --json`. No external dependencies; the writer manages
// commas and indentation, escapes strings, and refuses to emit non-finite
// doubles (NaN/Inf are not valid JSON and would silently break downstream
// tooling — they are written as null instead).
//
// Object members are written by keyed calls (key and value in one call);
// arrays hold objects and arrays. Usage:
//   JsonWriter w;
//   w.BeginObject();
//   w.Double("ops_per_sec", 123456.7);
//   w.BeginArray("runs"); ... w.EndArray();
//   w.EndObject();
//   std::string json = w.Take();

#ifndef DYNMIS_SRC_UTIL_JSON_WRITER_H_
#define DYNMIS_SRC_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dynmis {

class JsonWriter {
 public:
  // A document is either a file (two-space indentation, `"key": value`,
  // a trailing newline) or, with `single_line`, one protocol line
  // (`"key":value`, no whitespace at all, no trailing newline) — the form
  // STATS clients match on byte for byte.
  explicit JsonWriter(bool single_line = false) : single_line_(single_line) {}

  void BeginObject();
  void BeginObject(std::string_view key);
  void EndObject();
  void BeginArray();
  void BeginArray(std::string_view key);
  void EndArray();

  void String(std::string_view key, std::string_view value);
  void Int(std::string_view key, int64_t value);
  void Uint(std::string_view key, uint64_t value);
  // Finite values render with up to 6 significant decimals; NaN/Inf as null.
  void Double(std::string_view key, double value);
  void Bool(std::string_view key, bool value);

  // Returns the finished document. All containers must be closed.
  std::string Take();

 private:
  enum class Scope { kObject, kArray };

  // Emits the separating comma / newline / indentation due before an
  // element, then the key when one is given (object members only).
  void Prefix(const std::string_view* key);
  void Open(const std::string_view* key, char bracket, Scope scope);
  void Close(char bracket, Scope scope);
  void AppendEscaped(std::string_view value);

  bool single_line_;
  std::string out_;
  std::vector<Scope> stack_;
  // Whether the current container already holds at least one element.
  std::vector<bool> has_elems_;
};

// Writes `content` to `path` (truncate + write). Returns false on I/O
// failure.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace dynmis

#endif  // DYNMIS_SRC_UTIL_JSON_WRITER_H_
