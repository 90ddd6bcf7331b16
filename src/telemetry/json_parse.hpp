#pragma once

// Minimal strict JSON parser for the telemetry layer's *consumers* — the
// regression gate (bench/check_regression.cpp) reads bench reports and
// baselines back in, so unlike emission (telemetry/json.hpp) this needs a
// real DOM. Deliberately small: UTF-8 pass-through, \uXXXX decoded to
// UTF-8, doubles via strtod, objects preserve insertion order (the shapes
// we parse are tiny). Strict: trailing garbage, comments, NaN/Inf tokens,
// unterminated input and nesting deeper than kMaxDepth are errors reported
// with a byte offset.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wss::telemetry::jsonparse {

struct Value;
/// Array storage. (Named to avoid shadowing the Kind enumerators.)
using Values = std::vector<Value>;
/// Object storage: insertion-ordered key/value members.
using Members = std::vector<std::pair<std::string, Value>>;

enum class Kind : unsigned char { Null, Bool, Number, String, Array, Object };

struct Value {
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<Values> array;   ///< set when kind == Array
  std::shared_ptr<Members> object; ///< set when kind == Object

  [[nodiscard]] bool is_null() const { return kind == Kind::Null; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }

  /// Member lookup (first match); nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const {
    if (kind != Kind::Object || !object) return nullptr;
    for (const auto& [k, v] : *object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct ParseResult {
  std::optional<Value> value; ///< nullopt on error
  std::string error;          ///< human-readable, with byte offset
  [[nodiscard]] bool ok() const { return value.has_value(); }
};

/// Deepest array/object nesting parse() accepts. The deepest telemetry
/// artifact nests about 5 levels; the cap bounds the recursive descent's
/// stack on hostile input.
inline constexpr int kMaxDepth = 64;

/// Parse one complete JSON document (surrounding whitespace allowed).
[[nodiscard]] ParseResult parse(std::string_view text);

} // namespace wss::telemetry::jsonparse
