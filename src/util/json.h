#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace h2p {

/// Minimal JSON value — enough to round-trip the repo's config and plan
/// documents (objects, arrays, strings, numbers, booleans, null).  Not a
/// general-purpose parser: no \u escapes beyond pass-through, numbers are
/// doubles.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }

  // ---- accessors (throw std::runtime_error on type mismatch) -------------
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  // array
  void push_back(Json v);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t i) const;

  // object
  Json& operator[](const std::string& key);        // insert/overwrite
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, Json>& items() const;

  /// Compact serialization.
  [[nodiscard]] std::string dump() const;

  /// Parse; throws std::runtime_error with position info on bad input.
  static Json parse(const std::string& text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// `value` read as an index: a whole number in [0, limit), so no negative,
/// fractional, NaN or out-of-range double is ever cast to one.  Otherwise
/// throws std::runtime_error naming the entry and the field:
/// `<where>: "<field>" must be an integer in [0, <limit>), got <value>`.
std::size_t json_index(const Json& value, double limit, const std::string& where,
                       const char* field);

}  // namespace h2p
