#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace h2p {

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}
Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}
Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}
Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}
Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

namespace {
[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("Json: not a ") + want);
}
}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool");
  return bool_;
}
double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number");
  return number_;
}
const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string");
  return string_;
}

void Json::push_back(Json v) {
  if (type_ != Type::kArray) type_error("array");
  array_.push_back(std::move(v));
}
std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  type_error("container");
}
const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray) type_error("array");
  if (i >= array_.size()) throw std::runtime_error("Json: index out of range");
  return array_[i];
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object");
  return object_[key];
}
bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}
const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object");
  const auto it = object_.find(key);
  if (it == object_.end()) throw std::runtime_error("Json: missing key " + key);
  return it->second;
}
const std::map<std::string, Json>& Json::items() const {
  if (type_ != Type::kObject) type_error("object");
  return object_;
}

namespace {

void dump_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default: out << c;
    }
  }
  out << '"';
}

}  // namespace

std::string Json::dump() const {
  std::ostringstream out;
  switch (type_) {
    case Type::kNull: out << "null"; break;
    case Type::kBool: out << (bool_ ? "true" : "false"); break;
    case Type::kNumber: {
      if (number_ == std::floor(number_) && std::fabs(number_) < 1e15) {
        out << static_cast<long long>(number_);
      } else {
        // Shortest representation that parses back to the exact double:
        // fault scripts and results must replay bit-identically through a
        // dump/parse cycle, so lossy fixed precision is not an option.
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.15g", number_);
        if (std::strtod(buf, nullptr) != number_) {
          std::snprintf(buf, sizeof buf, "%.17g", number_);
        }
        out << buf;
      }
      break;
    }
    case Type::kString: dump_string(out, string_); break;
    case Type::kArray: {
      out << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out << ',';
        out << array_[i].dump();
      }
      out << ']';
      break;
    }
    case Type::kObject: {
      out << '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out << ',';
        first = false;
        dump_string(out, k);
        out << ':' << v.dump();
      }
      out << '}';
      break;
    }
  }
  return out.str();
}

namespace {

class Parser {
 public:
  /// Deepest array/object nesting accepted.  Far above anything the repo
  /// writes (a handful of levels), and low enough that the recursive
  /// descent cannot exhaust the stack on hostile input.
  static constexpr std::size_t kMaxDepth = 256;

  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("Json::parse at offset " + std::to_string(pos_) +
                             ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      Json nested = c == '{' ? object() : array();
      --depth_;
      return nested;
    }
    if (c == '"') return Json::string(string());
    if (consume_literal("true")) return Json::boolean(true);
    if (consume_literal("false")) return Json::boolean(false);
    if (consume_literal("null")) return Json();
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          default: fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    try {
      return Json::number(std::stod(text_.substr(start, pos_ - start)));
    } catch (...) {
      fail("bad number");
    }
  }

  Json array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  Json object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      const std::string key = string();
      skip_ws();
      expect(':');
      obj[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

std::size_t json_index(const Json& value, double limit, const std::string& where,
                       const char* field) {
  const double x = value.as_number();
  if (!(x >= 0.0 && x < limit && x == std::floor(x))) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\" must be an integer in [0, %.0f), got %g",
                  limit, x);
    throw std::runtime_error(where + ": \"" + field + buf);
  }
  return static_cast<std::size_t>(x);
}

}  // namespace h2p
