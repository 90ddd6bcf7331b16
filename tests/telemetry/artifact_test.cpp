// Tests for the artifact substrate (telemetry/artifact.hpp): load∘emit is
// a fixed point on every committed golden and on a ledger line; the one
// checked integer accessor; forged numbers fail the load of every family,
// naming the key, while legal negative values still load.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "telemetry/artifact.hpp"
#include "telemetry/health.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/postmortem.hpp"
#include "telemetry/timeseries.hpp"

namespace wss::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Load the artifact at `path` and emit it again.
template <class T>
std::string reemit(const std::string& path, const char* schema) {
  T art;
  std::string error;
  EXPECT_TRUE(artifact::read(path, schema, &art, &error)) << error;
  return artifact::emit(art);
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string forge(std::string text, const std::string& from,
                  const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

template <class T>
std::string load_error(const std::string& text, const char* schema) {
  T art;
  std::string error;
  EXPECT_FALSE(artifact::parse(text, schema, &art, &error));
  return error;
}

// --- load∘emit fixed point -----------------------------------------------

TEST(Artifact, PostmortemGoldenRoundTripsByteForByte) {
  EXPECT_EQ(reemit<Bundle>(WSS_POSTMORTEM_GOLDEN, kPostmortemSchema),
            slurp(WSS_POSTMORTEM_GOLDEN));
}

TEST(Artifact, TimeseriesGoldenRoundTripsByteForByte) {
  EXPECT_EQ(reemit<TimeSeries>(WSS_TIMESERIES_GOLDEN, kTimeseriesSchema),
            slurp(WSS_TIMESERIES_GOLDEN));
}

TEST(Artifact, NetflowsGoldenRoundTripsByteForByte) {
  EXPECT_EQ(reemit<NetFlowsFile>(WSS_NETFLOWS_GOLDEN, kNetFlowsSchema),
            slurp(WSS_NETFLOWS_GOLDEN));
}

/// True when `a` and `b` agree byte for byte except that number tokens
/// may be spelled differently as long as they parse to the same double.
bool same_up_to_number_spelling(const std::string& a, const std::string& b) {
  const auto number_at = [](const std::string& s, std::size_t i) {
    return i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
            (s[i] == '-' && i + 1 < s.size() &&
             std::isdigit(static_cast<unsigned char>(s[i + 1])) != 0));
  };
  const auto span = [](const std::string& s, std::size_t i) {
    std::size_t j = i;
    while (j < s.size() && std::string("-+.eE0123456789").find(s[j]) !=
                               std::string::npos) {
      ++j;
    }
    return j;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (number_at(a, i) && number_at(b, j)) {
      const std::size_t ie = span(a, i);
      const std::size_t je = span(b, j);
      if (std::strtod(a.substr(i, ie - i).c_str(), nullptr) !=
          std::strtod(b.substr(j, je - j).c_str(), nullptr)) {
        return false;
      }
      i = ie;
      j = je;
    } else if (a[i++] != b[j++]) {
      return false;
    }
  }
  return i == a.size() && j == b.size();
}

TEST(Artifact, AlertsGoldenRoundTripsUpToNumberSpelling) {
  // The alerts golden was written by hand: shortest decimals ("609.8") and
  // a trailing newline, where the writer spells every double %.17g
  // ("609.79999999999995"). Re-emission must reproduce every other byte,
  // and be a byte-for-byte fixed point from the first emission on.
  std::string golden = slurp(WSS_ALERTS_GOLDEN);
  ASSERT_FALSE(golden.empty());
  ASSERT_EQ(golden.back(), '\n');
  golden.pop_back();
  const std::string once = reemit<AlertsFile>(WSS_ALERTS_GOLDEN, kAlertsSchema);
  EXPECT_TRUE(same_up_to_number_spelling(once, golden)) << once;
  AlertsFile again;
  std::string error;
  ASSERT_TRUE(artifact::parse(once, kAlertsSchema, &again, &error)) << error;
  EXPECT_EQ(artifact::emit(again), once);
}

TEST(Artifact, LedgerLineRoundTripsByteForByte) {
  // A ledger line as the writer emits it (run id and paths shortened),
  // with a %.17g double; then the same run healthy, where the writer
  // omits the alerts array entirely.
  const std::string line =
      R"({"schema":"wss.runledger/1","run_id":"spmv3d-12x12x24-1-2-11",)"
      R"("program":"spmv3d 12x12x24","width":12,"height":12,"threads":1,)"
      R"("cycles":115,"outcome":"all_done","deadlock":false,)"
      R"("fault_total":1606,"env":{"WSS_HEALTH_FAULT_BURST":"8",)"
      R"("WSS_SAMPLE_CYCLES":"128"},"metrics":[{"name":"cycles",)"
      R"("value":115},{"name":"stall_ratio","value":0.10000000000000001}],)"
      R"("artifacts":[{"kind":"timeseries","path":"runs/x.timeseries.json"},)"
      R"({"kind":"postmortem","path":"runs/postmortem_health.json"}],)"
      R"("alerts":[{"rule":"fault_burst","severity":"critical","cycle":115}]})";
  RunManifest m;
  std::string error;
  ASSERT_TRUE(artifact::parse(line, kLedgerSchema, &m, &error)) << error;
  EXPECT_EQ(manifest_json(m), line);

  const std::string healthy =
      line.substr(0, line.find(R"(,"alerts")")) + "}";
  RunManifest h;
  ASSERT_TRUE(artifact::parse(healthy, kLedgerSchema, &h, &error)) << error;
  EXPECT_TRUE(h.alerts.empty());
  EXPECT_EQ(manifest_json(h), healthy);
}

// --- the checked integer accessor ----------------------------------------

jsonparse::Value number(double v) {
  jsonparse::Value x;
  x.kind = jsonparse::Kind::Number;
  x.number = v;
  return x;
}

TEST(Artifact, IntegerAccessorRejectsWhatTheTypeCannotHold) {
  int i = 0;
  std::uint64_t u = 0;
  std::int32_t s = 0;
  EXPECT_FALSE(artifact::get_int(number(1e300), &i));
  EXPECT_FALSE(artifact::get_int(number(-1e300), &s));
  EXPECT_FALSE(
      artifact::get_int(number(std::numeric_limits<double>::infinity()), &u));
  EXPECT_FALSE(
      artifact::get_int(number(std::numeric_limits<double>::quiet_NaN()), &u));
  EXPECT_FALSE(artifact::get_int(number(1.5), &u));
  EXPECT_FALSE(artifact::get_int(number(-5), &u));
  EXPECT_FALSE(artifact::get_int(number(2147483648.0), &i));
  EXPECT_FALSE(artifact::get_int(number(18446744073709551616.0), &u));
  jsonparse::Value text;
  text.kind = jsonparse::Kind::String;
  text.string = "7";
  EXPECT_FALSE(artifact::get_int(text, &i));

  EXPECT_TRUE(artifact::get_int(number(-1), &i));
  EXPECT_EQ(i, -1);
  EXPECT_TRUE(artifact::get_int(number(2147483647.0), &i));
  EXPECT_EQ(i, 2147483647);
  EXPECT_TRUE(artifact::get_int(number(-2147483648.0), &s));
  EXPECT_EQ(s, std::numeric_limits<std::int32_t>::min());
  EXPECT_TRUE(artifact::get_int(number(9007199254740992.0), &u));
  EXPECT_EQ(u, std::uint64_t{1} << 53);
}

// --- forged numbers, one family at a time --------------------------------

TEST(Artifact, ForgedNumbersFailTheLoadNamingTheKey) {
  const std::string ts = slurp(WSS_TIMESERIES_GOLDEN);
  EXPECT_NE(load_error<TimeSeries>(
                forge(ts, R"("width":6)", R"("width":1e300)"),
                kTimeseriesSchema)
                .find("width"),
            std::string::npos);
  EXPECT_NE(load_error<TimeSeries>(
                forge(ts, R"("instr":7293)", R"("instr":72.5)"),
                kTimeseriesSchema)
                .find("frames[0].instr"),
            std::string::npos);

  const std::string pm = slurp(WSS_POSTMORTEM_GOLDEN);
  EXPECT_NE(load_error<Bundle>(forge(pm, R"("cycle":100)", R"("cycle":-5)"),
                               kPostmortemSchema)
                .find("anomaly.cycle"),
            std::string::npos);

  const std::string nf = slurp(WSS_NETFLOWS_GOLDEN);
  EXPECT_NE(load_error<NetFlowsFile>(
                forge(nf, R"("cycles":58)", R"("cycles":58.5)"),
                kNetFlowsSchema)
                .find("cycles"),
            std::string::npos);

  const std::string al = slurp(WSS_ALERTS_GOLDEN);
  EXPECT_NE(load_error<AlertsFile>(
                forge(al, R"("first_frame":1)", R"("first_frame":-1)"),
                kAlertsSchema)
                .find("alerts[0].first_frame"),
            std::string::npos);
  EXPECT_NE(load_error<AlertsFile>(
                forge(al, R"("severity":"warn")", R"("severity":"dire")"),
                kAlertsSchema)
                .find("severity"),
            std::string::npos);

  const std::string line =
      R"({"schema":"wss.runledger/1","run_id":"r-1","cycles":1e300})";
  EXPECT_NE(load_error<RunManifest>(line, kLedgerSchema).find("cycles"),
            std::string::npos);
}

TEST(Artifact, SignedFieldsKeepTheirNegativeValues) {
  // A wait-for edge on a full FIFO awaits no color (-1).
  Bundle bundle;
  std::string error;
  ASSERT_TRUE(artifact::parse(forge(slurp(WSS_POSTMORTEM_GOLDEN),
                                    R"("color":2)", R"("color":-1)"),
                              kPostmortemSchema, &bundle, &error))
      << error;
  ASSERT_FALSE(bundle.wait_edges.empty());
  EXPECT_EQ(bundle.wait_edges[0].color, -1);
  EXPECT_TRUE(self_check_bundle(bundle, &error)) << error;

  // The frame hotspot tuples carry signed coordinates.
  const std::string frame =
      R"({"schema":"wss.timeseries/1","frames":[{"cycle":8,"window":8,)"
      R"("net_cycles":8,"flow_words":[],"flow_blocked":[],)"
      R"("net_dir_words":[0,0,0,0],"net_peak_queue":0,)"
      R"("net_hot":[3,-1,-2,0],"net_stall":[0,-3,0,1]}]})";
  TimeSeries ts;
  ASSERT_TRUE(artifact::parse(frame, kTimeseriesSchema, &ts, &error)) << error;
  ASSERT_EQ(ts.frames.size(), 1u);
  EXPECT_EQ(ts.frames[0].net_hot_x, -1);
  EXPECT_EQ(ts.frames[0].net_hot_y, -2);
  EXPECT_EQ(ts.frames[0].net_stall_x, -3);
  // ...but the hotspot must have exactly four entries.
  EXPECT_NE(load_error<TimeSeries>(forge(frame, "[3,-1,-2,0]", "[3,-1]"),
                                   kTimeseriesSchema)
                .find("net_hot"),
            std::string::npos);
}

TEST(Artifact, NonFiniteDoublesRoundTripThroughNull) {
  AlertsFile file;
  file.schema = kAlertsSchema;
  HealthAlert a;
  a.rule = "scalar_nonfinite";
  a.inputs.push_back({"value", std::numeric_limits<double>::quiet_NaN()});
  file.alerts.push_back(a);
  const std::string text = artifact::emit(file);
  EXPECT_NE(text.find(R"("value":null)"), std::string::npos) << text;
  AlertsFile back;
  std::string error;
  ASSERT_TRUE(artifact::parse(text, kAlertsSchema, &back, &error)) << error;
  EXPECT_TRUE(std::isnan(back.alerts[0].inputs[0].value));
  EXPECT_EQ(artifact::emit(back), text);
}

} // namespace
} // namespace wss::telemetry
