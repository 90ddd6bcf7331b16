#include "telemetry/json_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace wss::telemetry::jsonparse {

namespace {

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return fail();
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing characters";
      return fail();
    }
    ParseResult r;
    r.value = std::move(v);
    return r;
  }

private:
  ParseResult fail() {
    ParseResult r;
    r.error = error_.empty() ? "parse error" : error_;
    r.error += " at byte " + std::to_string(pos_);
    return r;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool literal(const char* word, std::size_t n) {
    if (text_.size() - pos_ < n ||
        std::memcmp(text_.data() + pos_, word, n) != 0) {
      error_ = "invalid literal";
      return false;
    }
    pos_ += n;
    return true;
  }

  bool parse_value(Value& out) {
    if (at_end()) {
      error_ = "unexpected end of input";
      return false;
    }
    switch (peek()) {
      case '{':
      case '[': return parse_nested(out);
      case '"': {
        out.kind = Kind::String;
        return parse_string(out.string);
      }
      case 't':
        out.kind = Kind::Bool;
        out.boolean = true;
        return literal("true", 4);
      case 'f':
        out.kind = Kind::Bool;
        out.boolean = false;
        return literal("false", 5);
      case 'n':
        out.kind = Kind::Null;
        return literal("null", 4);
      default: return parse_number(out);
    }
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    bool digits = false;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
      digits = true;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
        digits = true;
      }
    }
    if (digits && !at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      bool exp_digits = false;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) {
        error_ = "malformed exponent";
        return false;
      }
    }
    if (!digits) {
      error_ = "invalid number";
      pos_ = start;
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind = Kind::Number;
    out.number = std::strtod(token.c_str(), nullptr);
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_; // opening quote
    out.clear();
    while (true) {
      if (at_end()) {
        error_ = "unterminated string";
        return false;
      }
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        error_ = "raw control character in string";
        return false;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) {
        error_ = "unterminated escape";
        return false;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (at_end()) {
              error_ = "truncated \\u escape";
              return false;
            }
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              error_ = "bad hex digit in \\u escape";
              return false;
            }
          }
          // Encode as UTF-8 (surrogate pairs are passed through as-is;
          // the telemetry emitters never produce them).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          error_ = "invalid escape";
          return false;
      }
    }
  }

  /// An array or object, one nesting level deeper. The cap bounds the
  /// recursive descent's stack on hostile input (a file of a million '[').
  bool parse_nested(Value& out) {
    if (depth_ == kMaxDepth) {
      error_ = "nesting deeper than " + std::to_string(kMaxDepth) + " levels";
      return false;
    }
    ++depth_;
    const bool ok = peek() == '{' ? parse_object(out) : parse_array(out);
    --depth_;
    return ok;
  }

  bool parse_array(Value& out) {
    ++pos_; // '['
    out.kind = Kind::Array;
    out.array = std::make_shared<Values>();
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value v;
      skip_ws();
      if (!parse_value(v)) return false;
      out.array->push_back(std::move(v));
      skip_ws();
      if (at_end()) {
        error_ = "unterminated array";
        return false;
      }
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') {
        --pos_;
        error_ = "expected ',' or ']'";
        return false;
      }
    }
  }

  bool parse_object(Value& out) {
    ++pos_; // '{'
    out.kind = Kind::Object;
    out.object = std::make_shared<Members>();
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') {
        error_ = "expected object key";
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (at_end() || text_[pos_] != ':') {
        error_ = "expected ':'";
        return false;
      }
      ++pos_;
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      out.object->emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (at_end()) {
        error_ = "unterminated object";
        return false;
      }
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') {
        --pos_;
        error_ = "expected ',' or '}'";
        return false;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

} // namespace

ParseResult parse(std::string_view text) { return Parser(text).run(); }

} // namespace wss::telemetry::jsonparse
