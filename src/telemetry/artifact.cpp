// The artifact substrate's non-template half: document I/O, the verbatim
// JSON fragments, error paths, and the divergence printer. See
// artifact.hpp.

#include "telemetry/artifact.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/io.hpp"

namespace wss::telemetry {

namespace artifact {

namespace {

/// Re-emit a DOM value. Integral numbers print as integers, the way the
/// writers emitted them; everything else as the Writer would.
void emit_dom(json::Writer& w, const jsonparse::Value& v) {
  switch (v.kind) {
    case jsonparse::Kind::Null: w.null(); break;
    case jsonparse::Kind::Bool: w.value(v.boolean); break;
    case jsonparse::Kind::String: w.value(std::string_view(v.string)); break;
    case jsonparse::Kind::Number: {
      std::int64_t i = 0;
      if (get_int(v, &i)) {
        w.value(i);
      } else {
        w.value(v.number);
      }
      break;
    }
    case jsonparse::Kind::Array:
      w.begin_array();
      for (const jsonparse::Value& e : *v.array) emit_dom(w, e);
      w.end_array();
      break;
    case jsonparse::Kind::Object:
      w.begin_object();
      for (const auto& [k, e] : *v.object) {
        w.key(k);
        emit_dom(w, e);
      }
      w.end_object();
      break;
  }
}

} // namespace

std::string Where::str() const {
  std::string out = path != nullptr ? *path : std::string{};
  if (!key.empty()) {
    if (!out.empty()) out += '.';
    out += key;
  }
  if (index != std::string::npos) {
    out += '[' + std::to_string(index) + ']';
  }
  return out;
}

void Io::fail(const Where& at, const std::string& why) {
  if (error_ == nullptr || !error_->empty()) return;
  const std::string where = at.str();
  *error_ = where.empty() ? why : where + ": " + why;
}

void Io::dict(std::string_view key,
              std::vector<std::pair<std::string, std::string>>& v) {
  if (w_ != nullptr) {
    w_->key(key).begin_object();
    for (const auto& [name, value] : v) w_->key(name).value(value);
    w_->end_object();
    return;
  }
  const jsonparse::Value* m = obj_->find(key);
  if (m == nullptr) return;
  const Where at{&path_, key};
  if (!m->is_object()) return fail(at, "expected an object");
  v.clear();
  for (const auto& [name, value] : *m->object) {
    if (!value.is_string()) {
      const std::string sub = at.str();
      return fail(Where{&sub, name}, "expected a string");
    }
    v.emplace_back(name, value.string);
  }
}

void Io::raw(std::string_view key, std::string& fragment) {
  if (w_ != nullptr) {
    if (!fragment.empty()) w_->key(key).raw(fragment);
    return;
  }
  if (const jsonparse::Value* m = obj_->find(key)) {
    json::Writer w;
    emit_dom(w, *m);
    fragment = w.str();
  }
}

bool parse_document(std::string_view text, const char* schema,
                    jsonparse::Value* root, std::string* error) {
  jsonparse::ParseResult parsed = jsonparse::parse(text);
  if (!parsed.ok()) return fail_with(error, "JSON error: " + parsed.error);
  if (!parsed.value->is_object()) {
    return fail_with(error, "top level is not an object");
  }
  const jsonparse::Value* tag = parsed.value->find("schema");
  const std::string got =
      tag != nullptr && tag->is_string() ? tag->string : std::string{};
  if (got != schema) {
    return fail_with(error, "schema mismatch: got '" + got + "', want '" +
                                schema + "'");
  }
  *root = std::move(*parsed.value);
  return true;
}

bool read_text(const std::string& path, std::string* text,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail_with(error, "cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return fail_with(error, "read error");
  *text = buf.str();
  return true;
}

bool read_schema(const std::string& path, std::string* schema,
                 std::string* error) {
  std::string text;
  std::string why;
  if (read_text(path, &text, &why)) {
    const jsonparse::ParseResult parsed = jsonparse::parse(text);
    const jsonparse::Value* tag =
        parsed.ok() ? parsed.value->find("schema") : nullptr;
    if (tag != nullptr && tag->is_string()) {
      *schema = tag->string;
      return true;
    }
    why = parsed.ok() ? "no schema tag" : "JSON error: " + parsed.error;
  }
  return fail_with(error, path + ": " + why);
}

bool write_text(const std::string& path, const std::string& text,
                std::string* error) {
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && slash > 0 &&
      !ensure_directory(path.substr(0, slash), error)) {
    return false;
  }
  return write_text_file(path, text, error);
}

bool fail_with(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool check_schema(const std::string& got, const char* want,
                  std::string* error) {
  return got == want || fail_with(error, "schema mismatch: '" + got + "'");
}

} // namespace artifact

std::string program_mismatch(const std::string& a, const std::string& b) {
  if (a == b) return {};
  return "warning: program mismatch ('" + a + "' vs '" + b +
         "') — divergence below may be meaningless";
}

std::string pretty_divergence(const Divergence& d) {
  std::ostringstream out;
  if (!d.note.empty()) out << d.note << "\n";
  if (!d.found) {
    out << "no divergence: " << d.streams << " are identical\n";
    return out.str();
  }
  if (d.has_tile) {
    out << "first divergence at cycle " << d.cycle << ", tile (" << d.x << ","
        << d.y << "):\n";
  } else {
    out << "first divergent " << d.noun << " at index " << d.index;
    if (d.has_cycle) out << " (cycle " << d.cycle << ")";
    out << ":\n";
  }
  out << "  A: " << d.a << "\n";
  out << "  B: " << d.b << "\n";
  return out.str();
}

} // namespace wss::telemetry
