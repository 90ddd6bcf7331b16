#pragma once

// The artifact substrate (docs/OBSERVABILITY.md, "Artifacts"). The five
// versioned telemetry files — wss.postmortem/1, wss.timeseries/1,
// wss.netflows/1, wss.alerts/1 and the wss.runledger/1 lines — are
// written, loaded, checked and diffed through this one layer.
//
// Every record type declares its fields once, in emission order:
//
//   void describe(artifact::Io& io, TimeSeriesFrame& f) {
//     io.field("cycle", f.cycle);
//     io.field("window", f.window_cycles);
//     ...
//   }
//
// An Io either emits over a json::Writer or loads from a jsonparse DOM
// object, so one list drives both directions and load∘emit is a fixed
// point: re-emitting a loaded artifact reproduces its bytes. Wherever a
// writer distinguishes "absent" from "empty", the record carries a
// presence flag (Io::present).
//
// Loading treats the file as hostile. A present field of the wrong JSON
// type is an error, and every integer goes through one checked accessor
// (get_int) that rejects non-finite, fractional and out-of-range values
// for the destination type; the error names the key. Absent fields keep
// their defaults.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/json_parse.hpp"

namespace wss::telemetry {

namespace artifact {

namespace detail {
template <class T> struct is_vector : std::false_type {};
template <class T, class A>
struct is_vector<std::vector<T, A>> : std::true_type {};
template <class T> struct is_array : std::false_type {};
template <class T, std::size_t N>
struct is_array<std::array<T, N>> : std::true_type {};
/// std::pair, or the std::tuple of references std::tie makes.
template <class T>
concept tuple_like = requires { std::tuple_size<T>::value; };
} // namespace detail

/// Set `*error` (when non-null) to `why`; returns false.
bool fail_with(std::string* error, const std::string& why);

/// The one integer accessor: true iff `v` is a finite, integral number
/// that `T` represents exactly.
template <class T>
[[nodiscard]] bool get_int(const jsonparse::Value& v, T* out) {
  if (!v.is_number() || !std::isfinite(v.number) ||
      std::trunc(v.number) != v.number) {
    return false;
  }
  // min is 0 or -2^k and max + 1 is 2^k, both exact as doubles even where
  // max itself is not.
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  if (v.number < lo || v.number >= hi) return false;
  *out = static_cast<T>(v.number);
  return true;
}

/// Where a value sits in the document; rendered only for error messages.
struct Where {
  const std::string* path = nullptr; ///< enclosing object ("" at the root)
  std::string_view key;              ///< member key ("" for elements)
  std::size_t index = std::string::npos; ///< element index, or npos
  [[nodiscard]] std::string str() const;
};

/// One direction of one record's field list: emitting over a Writer, or
/// loading from a DOM object (first error wins).
class Io {
public:
  explicit Io(json::Writer& w) : w_(&w) {}
  Io(const jsonparse::Value& object, std::string* error, std::string path = {})
      : obj_(&object), error_(error), path_(std::move(path)) {}

  [[nodiscard]] bool loading() const { return w_ == nullptr; }

  /// One (key, member) pair. Members may be bools, integers, enums (as
  /// their integer value), doubles (non-finite <-> null), strings,
  /// std::array / std::vector of those or of records that have their own
  /// describe(), and fixed-length arrays of differently typed members
  /// given as std::pair or std::tie(...), e.g. the frame's
  /// [words, x, y, dir] hotspot.
  template <class T>
  void field(std::string_view key, T&& v) {
    if (w_ != nullptr) {
      w_->key(key);
      put(v);
    } else if (const jsonparse::Value* m = obj_->find(key)) {
      get(*m, v, Where{&path_, key});
    }
  }

  /// An enum spelled by name: `name(E(i))` for i in [0, count).
  template <class E>
  void field(std::string_view key, E& v, const char* (*name)(E), int count) {
    if (w_ != nullptr) {
      w_->key(key).value(name(v));
      return;
    }
    const jsonparse::Value* m = obj_->find(key);
    if (m == nullptr) return;
    for (int i = 0; m->is_string() && i < count; ++i) {
      if (m->string == name(static_cast<E>(i))) {
        v = static_cast<E>(i);
        return;
      }
    }
    fail(Where{&path_, key},
         "unknown value" + (m->is_string() ? " '" + m->string + "'" : ""));
  }

  /// A nested object whose members `fn(Io&)` declares.
  template <class Fn>
  void object(std::string_view key, Fn&& fn) {
    if (w_ != nullptr) {
      w_->key(key).begin_object();
      fn(*this);
      w_->end_object();
      return;
    }
    const jsonparse::Value* m = obj_->find(key);
    if (m == nullptr) return;
    const Where at{&path_, key};
    if (!m->is_object()) {
      fail(at, "expected an object");
      return;
    }
    Io child(*m, error_, at.str());
    fn(child);
  }

  /// The same, emitted only when `present`; loading sets it from the key.
  template <class Fn>
  void object(std::string_view key, bool& present, Fn&& fn) {
    if (this->present(present, key)) object(key, fn);
  }

  /// Presence of an optional block: emitting returns `flag`; loading sets
  /// `flag` to whether `key` exists and returns it.
  bool present(bool& flag, std::string_view key) {
    if (w_ != nullptr) return flag;
    flag = obj_->find(key) != nullptr;
    return flag;
  }

  /// A string-to-string object (the ledger's environment snapshot).
  void dict(std::string_view key,
            std::vector<std::pair<std::string, std::string>>& v);

  /// A JSON fragment kept verbatim, emitted only when non-empty.
  void raw(std::string_view key, std::string& fragment);

  /// Record a load error at `at` (the first error wins).
  void fail(const Where& at, const std::string& why);
  /// Record a load error on this object as a whole.
  void fail(const std::string& why) { fail(Where{&path_, {}}, why); }

  /// Emit one bare value (records are emitted as objects).
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_->value(v);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (std::is_signed_v<T>) {
        w_->value(static_cast<std::int64_t>(v));
      } else {
        w_->value(static_cast<std::uint64_t>(v));
      }
    } else if constexpr (std::is_floating_point_v<T>) {
      w_->value(static_cast<double>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_->value(std::string_view(v));
    } else if constexpr (detail::is_vector<T>::value ||
                         detail::is_array<T>::value) {
      w_->begin_array();
      for (const auto& e : v) put(e);
      w_->end_array();
    } else if constexpr (detail::tuple_like<T>) {
      w_->begin_array();
      std::apply([this](const auto&... e) { (put(e), ...); }, v);
      w_->end_array();
    } else {
      // describe() takes a mutable record because loading fills it; an
      // emitting Io only reads it.
      w_->begin_object();
      describe(*this, const_cast<T&>(v));
      w_->end_object();
    }
  }

private:
  template <class T>
  void get(const jsonparse::Value& v, T& out, const Where& at) {
    if constexpr (std::is_same_v<T, bool>) {
      if (v.kind != jsonparse::Kind::Bool) return fail(at, "expected a bool");
      out = v.boolean;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      get(v, raw, at);
      out = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      if (!get_int(v, &out)) {
        fail(at, "expected an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::numeric_limits<T>::max()) +
                     "], got " + (v.is_number() ? json::number(v.number)
                                                : std::string("a non-number")));
      }
    } else if constexpr (std::is_floating_point_v<T>) {
      // The writer spells non-finite doubles as null.
      if (v.is_null()) {
        out = std::numeric_limits<T>::quiet_NaN();
      } else if (v.is_number()) {
        out = static_cast<T>(v.number);
      } else {
        fail(at, "expected a number");
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!v.is_string()) return fail(at, "expected a string");
      out = v.string;
    } else if constexpr (detail::is_vector<T>::value ||
                         detail::is_array<T>::value) {
      if (!v.is_array()) return fail(at, "expected an array");
      const std::size_t n = v.array->size();
      if constexpr (detail::is_vector<T>::value) {
        out.assign(n, typename T::value_type{});
      } else if (n != out.size()) {
        return fail(at, "expected an array of " + std::to_string(out.size()) +
                            " values");
      }
      const std::string sub = at.str();
      for (std::size_t i = 0; i < n; ++i) {
        get((*v.array)[i], out[i], Where{&sub, {}, i});
      }
    } else if constexpr (detail::tuple_like<T>) {
      constexpr std::size_t n = std::tuple_size<T>::value;
      if (!v.is_array() || v.array->size() != n) {
        return fail(at, "expected an array of " + std::to_string(n) +
                            " values");
      }
      const std::string sub = at.str();
      std::size_t i = 0;
      std::apply(
          [&](auto&... e) {
            ((get((*v.array)[i], e, Where{&sub, {}, i}), ++i), ...);
          },
          out);
    } else {
      if (!v.is_object()) return fail(at, "expected an object");
      Io child(v, error_, at.str());
      describe(child, out);
    }
  }

  json::Writer* w_ = nullptr;
  const jsonparse::Value* obj_ = nullptr;
  std::string* error_ = nullptr;
  std::string path_;
};

/// Emit `rec` as one JSON document (no trailing newline).
template <class T>
[[nodiscard]] std::string emit(const T& rec) {
  json::Writer w;
  Io(w).put(rec);
  return w.str();
}

/// Parse one artifact document: JSON (nesting capped), a top-level
/// object, and a "schema" member equal to `schema`.
bool parse_document(std::string_view text, const char* schema,
                    jsonparse::Value* root, std::string* error);

/// Parse `text` and load `*out` through describe(). Returns false +
/// `*error` (the first bad field, by key) on failure.
template <class T>
bool parse(std::string_view text, const char* schema, T* out,
           std::string* error) {
  jsonparse::Value root;
  if (!parse_document(text, schema, &root, error)) return false;
  std::string why;
  T rec{};
  Io io(root, &why);
  describe(io, rec);
  if (!why.empty()) return fail_with(error, why);
  *out = std::move(rec);
  return true;
}

/// Read `path` whole. Returns false + `*error` on I/O failure.
bool read_text(const std::string& path, std::string* text, std::string* error);

/// Read and parse the artifact at `path`; errors are prefixed with it.
template <class T>
bool read(const std::string& path, const char* schema, T* out,
          std::string* error) {
  std::string text;
  std::string why;
  if (read_text(path, &text, &why) && parse(text, schema, out, &why)) {
    return true;
  }
  if (error != nullptr) *error = path + ": " + why;
  return false;
}

/// The "schema" tag of the artifact at `path`, for dispatching on it.
/// Returns false + `*error` (prefixed with the path) when the file cannot
/// be read or parsed or carries no schema string.
bool read_schema(const std::string& path, std::string* schema,
                 std::string* error);

/// Write `text` to `path`, creating its parent directory.
bool write_text(const std::string& path, const std::string& text,
                std::string* error);

/// Emit `rec` and write it to `path` (parent directories created).
template <class T>
bool write(const std::string& path, const T& rec, std::string* error) {
  return write_text(path, emit(rec), error);
}

/// The schema-tag check each self-check opens with.
bool check_schema(const std::string& got, const char* want,
                  std::string* error);

} // namespace artifact

// --- diffing -------------------------------------------------------------

/// The first point where two artifacts of one schema disagree: the
/// earliest differing record of their record sequence (frames, flows,
/// alerts, or, per tile, flight events).
struct Divergence {
  bool found = false;
  std::string noun;    ///< the record kind: "frame", "flow", "alert", ...
  std::string streams; ///< what was compared, for the no-divergence line
  std::size_t index = 0;   ///< record index of the first difference
  bool has_cycle = false;  ///< the records carry a cycle
  std::uint64_t cycle = 0; ///< earliest cycle of the two differing records
  bool has_tile = false;   ///< the sequences are one tile's (postmortem)
  int x = 0, y = 0;
  std::string a; ///< one-line summary of A's record ("-" when absent)
  std::string b;
  std::string note; ///< e.g. program-mismatch warning
};

/// First index at which `a` and `b` differ (a shorter sequence differs at
/// its end), summarized by `summarize`.
template <class T, class Summarize>
[[nodiscard]] Divergence first_divergence_in(const char* noun,
                                             const char* streams,
                                             const std::vector<T>& a,
                                             const std::vector<T>& b,
                                             Summarize&& summarize) {
  Divergence d;
  d.noun = noun;
  d.streams = streams;
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  if (i == n && a.size() == b.size()) return d;
  d.found = true;
  d.index = i;
  d.a = i < a.size() ? std::invoke(summarize, a[i]) : "-";
  d.b = i < b.size() ? std::invoke(summarize, b[i]) : "-";
  if constexpr (requires(const T& r) { r.cycle; }) {
    d.has_cycle = true;
    d.cycle = std::min(i < a.size() ? a[i].cycle : UINT64_MAX,
                       i < b.size() ? b[i].cycle : UINT64_MAX);
  }
  return d;
}

/// "warning: program mismatch ..." when the names differ, else "".
[[nodiscard]] std::string program_mismatch(const std::string& a,
                                           const std::string& b);

[[nodiscard]] std::string pretty_divergence(const Divergence& d);

} // namespace wss::telemetry
