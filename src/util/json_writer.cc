#include "src/util/json_writer.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/util/check.h"

namespace dynmis {

void JsonWriter::Prefix(const std::string_view* key) {
  if (stack_.empty()) {
    DYNMIS_CHECK(key == nullptr && out_.empty());
    return;
  }
  DYNMIS_CHECK((key != nullptr) == (stack_.back() == Scope::kObject));
  if (has_elems_.back()) out_ += ',';
  has_elems_.back() = true;
  if (!single_line_) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  if (key != nullptr) {
    AppendEscaped(*key);
    out_ += single_line_ ? ":" : ": ";
  }
}

void JsonWriter::Open(const std::string_view* key, char bracket,
                      Scope scope) {
  Prefix(key);
  out_ += bracket;
  stack_.push_back(scope);
  has_elems_.push_back(false);
}

void JsonWriter::Close(char bracket, Scope scope) {
  DYNMIS_CHECK(!stack_.empty() && stack_.back() == scope);
  const bool had = has_elems_.back();
  stack_.pop_back();
  has_elems_.pop_back();
  if (had && !single_line_) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += bracket;
}

void JsonWriter::BeginObject() { Open(nullptr, '{', Scope::kObject); }

void JsonWriter::BeginObject(std::string_view key) {
  Open(&key, '{', Scope::kObject);
}

void JsonWriter::EndObject() { Close('}', Scope::kObject); }

void JsonWriter::BeginArray() { Open(nullptr, '[', Scope::kArray); }

void JsonWriter::BeginArray(std::string_view key) {
  Open(&key, '[', Scope::kArray);
}

void JsonWriter::EndArray() { Close(']', Scope::kArray); }

void JsonWriter::AppendEscaped(std::string_view value) {
  out_ += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::String(std::string_view key, std::string_view value) {
  Prefix(&key);
  AppendEscaped(value);
}

void JsonWriter::Int(std::string_view key, int64_t value) {
  Prefix(&key);
  out_ += std::to_string(value);
}

void JsonWriter::Uint(std::string_view key, uint64_t value) {
  Prefix(&key);
  out_ += std::to_string(value);
}

void JsonWriter::Double(std::string_view key, double value) {
  Prefix(&key);
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_ += buf;
}

void JsonWriter::Bool(std::string_view key, bool value) {
  Prefix(&key);
  out_ += value ? "true" : "false";
}

std::string JsonWriter::Take() {
  DYNMIS_CHECK(stack_.empty());
  if (!single_line_) out_ += '\n';
  return std::move(out_);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace dynmis
