// Tests for the strict JSON parser behind the regression gate
// (telemetry/json_parse.hpp): round-trips of the document shapes the gate
// actually reads (bench reports, baselines), escape and \uXXXX decoding,
// number grammar, insertion-ordered objects, and the error contract —
// malformed input must fail with a byte offset, never "succeed loosely".

#include <gtest/gtest.h>

#include <string>

#include "telemetry/json.hpp"
#include "telemetry/json_parse.hpp"

namespace wss::telemetry::jsonparse {
namespace {

Value parse_ok(const std::string& text) {
  const ParseResult r = parse(text);
  EXPECT_TRUE(r.ok()) << "input: " << text << "\nerror: " << r.error;
  return r.value.value_or(Value{});
}

std::string parse_err(const std::string& text) {
  const ParseResult r = parse(text);
  EXPECT_FALSE(r.ok()) << "input unexpectedly parsed: " << text;
  EXPECT_FALSE(r.error.empty());
  return r.error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_DOUBLE_EQ(parse_ok("0").number, 0.0);
  EXPECT_DOUBLE_EQ(parse_ok("-42").number, -42.0);
  EXPECT_DOUBLE_EQ(parse_ok("3.5e2").number, 350.0);
  EXPECT_DOUBLE_EQ(parse_ok("1e-3").number, 1e-3);
  EXPECT_EQ(parse_ok("\"hi\"").string, "hi");
  EXPECT_EQ(parse_ok("  \"pad\"  ").string, "pad");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b")").string, "a\"b");
  EXPECT_EQ(parse_ok(R"("a\\b")").string, "a\\b");
  EXPECT_EQ(parse_ok(R"("a\/b")").string, "a/b");
  EXPECT_EQ(parse_ok(R"("\b\f\n\r\t")").string, "\b\f\n\r\t");
  // \uXXXX decodes to UTF-8: micro sign U+00B5 and a 3-byte CJK point.
  EXPECT_EQ(parse_ok("\"\\u00b5s\"").string, "\xc2\xb5s");
  EXPECT_EQ(parse_ok("\"\\u4e16\"").string, "\xe4\xb8\x96");
  EXPECT_EQ(parse_ok("\"\\u0041\"").string, "A");
  // Raw UTF-8 passes through untouched.
  EXPECT_EQ(parse_ok("\"\xc2\xb5s\"").string, "\xc2\xb5s");
}

TEST(JsonParse, ArraysAndNesting) {
  const Value v = parse_ok("[1, [2, 3], []]");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array->size(), 3u);
  EXPECT_DOUBLE_EQ((*v.array)[0].number, 1.0);
  ASSERT_TRUE((*v.array)[1].is_array());
  EXPECT_EQ((*v.array)[1].array->size(), 2u);
  EXPECT_TRUE((*v.array)[2].array->empty());
}

TEST(JsonParse, ObjectsPreserveInsertionOrderAndFind) {
  const Value v = parse_ok(R"({"z": 1, "a": 2, "z2": {"k": true}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object->size(), 3u);
  EXPECT_EQ((*v.object)[0].first, "z");
  EXPECT_EQ((*v.object)[1].first, "a");
  EXPECT_EQ((*v.object)[2].first, "z2");
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->number, 2.0);
  const Value* k = v.find("z2");
  ASSERT_NE(k, nullptr);
  ASSERT_NE(k->find("k"), nullptr);
  EXPECT_TRUE(k->find("k")->boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
  // find() on a non-object is a graceful nullptr, not UB.
  EXPECT_EQ(a->find("x"), nullptr);
}

TEST(JsonParse, BenchReportShapeRoundTrip) {
  // The exact shape emitted by telemetry/bench_report.cpp and consumed by
  // bench/check_regression.cpp.
  json::Writer w;
  w.begin_object();
  w.key("bench").value("secV_cs1_iteration");
  w.key("rows").begin_array();
  w.begin_object();
  w.key("label").value("iteration time");
  w.key("paper").value(28.1);
  w.key("measured").value(28.086742);
  w.key("unit").value("us");
  w.end_object();
  w.end_array();
  w.end_object();
  const Value v = parse_ok(w.str());
  ASSERT_NE(v.find("rows"), nullptr);
  const Values& rows = *v.find("rows")->array;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("label")->string, "iteration time");
  // Writer doubles are emitted round-trippably.
  EXPECT_DOUBLE_EQ(rows[0].find("measured")->number, 28.086742);
}

TEST(JsonParse, ErrorsCarryByteOffsets) {
  EXPECT_NE(parse_err("").find("at byte"), std::string::npos);
  EXPECT_NE(parse_err("{\"a\": }").find("at byte"), std::string::npos);
  EXPECT_NE(parse_err("[1, 2").find("at byte"), std::string::npos);
  EXPECT_NE(parse_err("\"unterminated").find("at byte"), std::string::npos);
  EXPECT_NE(parse_err("{\"a\" 1}").find("at byte"), std::string::npos);
}

TEST(JsonParse, NestingIsCapped) {
  // A million '[' would overflow the recursive descent's stack; the cap
  // turns it into an ordinary error with a byte offset.
  const std::string deep(1000000, '[');
  const std::string err = parse_err(deep);
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
  EXPECT_NE(err.find("at byte"), std::string::npos) << err;
  // Exactly kMaxDepth levels still parse; one more does not.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  parse_ok(nested(kMaxDepth));
  parse_err(nested(kMaxDepth + 1));
  parse_err(std::string(static_cast<std::size_t>(kMaxDepth) + 1, '{'));
}

TEST(JsonParse, StrictnessRejectsExtensions) {
  parse_err("NaN");           // not a JSON token
  parse_err("Infinity");      // not a JSON token
  parse_err("[1,]");          // trailing comma
  parse_err("{'a': 1}");      // single quotes
  parse_err("// comment\n1"); // comments
  parse_err("1 2");           // trailing garbage
  parse_err("{\"a\": 1} x");  // trailing garbage after a document
  parse_err(R"("\q")");       // unknown escape
  parse_err(R"("\u12")");     // truncated \uXXXX
}

} // namespace
} // namespace wss::telemetry::jsonparse
