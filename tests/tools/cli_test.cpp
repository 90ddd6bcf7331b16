// CLI-level tests for the operator tools (tools/wss_inspect.cpp,
// tools/wss_top.cpp), run against the committed goldens in tests/data/.
// The binaries under test come in via compile definitions (WSS_INSPECT_BIN
// / WSS_TOP_BIN, CMake $<TARGET_FILE:...>), so the suite exercises the
// real executables, not relinked objects. Coverage: the documented exit-
// code contract (0 success, 1 usage, 2 unreadable/invalid artifact,
// 3 divergence), self-check over every committed golden and dispatch on
// the schema tag, the alerts / flows / runs subcommand families, hostile
// files (deep nesting, forged numbers), the wss_top health pane, and the
// --follow torn-frame recovery loop (waiting -> torn file skipped -> full
// file rendered).

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "telemetry/health.hpp"
#include "telemetry/io.hpp"
#include "telemetry/ledger.hpp"

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output; ///< stdout + stderr, interleaved
};

/// Run a shell command, capturing combined output and the real exit code.
CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

const std::string kInspect = WSS_INSPECT_BIN;
const std::string kTop = WSS_TOP_BIN;
const std::string kTimeseriesGolden = WSS_TIMESERIES_GOLDEN;
const std::string kAlertsGolden = WSS_ALERTS_GOLDEN;
const std::string kPostmortemGolden = WSS_POSTMORTEM_GOLDEN;
const std::string kNetflowsGolden = WSS_NETFLOWS_GOLDEN;

std::string temp_dir() {
  const std::string dir = ::testing::TempDir() + "wss_cli_test";
  std::string error;
  EXPECT_TRUE(wss::telemetry::ensure_directory(dir, &error)) << error;
  return dir + "/";
}

// --- exit-code contract --------------------------------------------------

TEST(InspectCli, UsageErrorsExitOne) {
  EXPECT_EQ(run_cmd(kInspect).exit_code, 1);
  EXPECT_EQ(run_cmd(kInspect + " frobnicate").exit_code, 1);
  EXPECT_EQ(run_cmd(kInspect + " timeseries").exit_code, 1);
  EXPECT_EQ(run_cmd(kInspect + " alerts").exit_code, 1);
  EXPECT_EQ(run_cmd(kInspect + " alerts nosuchsub x.json").exit_code, 1);
  EXPECT_EQ(run_cmd(kInspect + " print " + kPostmortemGolden + " --last 0")
                .exit_code,
            1);
  // --help is answered, not an error.
  EXPECT_EQ(run_cmd(kInspect + " --help").exit_code, 0);
}

TEST(InspectCli, UnreadableOrInvalidArtifactsExitTwo) {
  EXPECT_EQ(run_cmd(kInspect + " print /nonexistent.json").exit_code, 2);
  EXPECT_EQ(run_cmd(kInspect + " timeseries print /nonexistent.json")
                .exit_code,
            2);
  EXPECT_EQ(run_cmd(kInspect + " alerts show /nonexistent.json").exit_code, 2);
  EXPECT_EQ(run_cmd(kInspect + " runs list /nonexistent.jsonl").exit_code, 2);

  const std::string bad = temp_dir() + "not_json.json";
  write_file(bad, "this is not json at all {");
  EXPECT_EQ(run_cmd(kInspect + " alerts self-check " + bad).exit_code, 2);
  EXPECT_EQ(run_cmd(kInspect + " timeseries self-check " + bad).exit_code, 2);
}

// --- self-check over every committed golden ------------------------------

TEST(InspectCli, CommittedGoldensPassSelfCheck) {
  const CmdResult bundle =
      run_cmd(kInspect + " self-check " + kPostmortemGolden);
  EXPECT_EQ(bundle.exit_code, 0) << bundle.output;
  const CmdResult ts =
      run_cmd(kInspect + " timeseries self-check " + kTimeseriesGolden);
  EXPECT_EQ(ts.exit_code, 0) << ts.output;
  const CmdResult alerts =
      run_cmd(kInspect + " alerts self-check " + kAlertsGolden);
  EXPECT_EQ(alerts.exit_code, 0) << alerts.output;
  EXPECT_NE(alerts.output.find("ok"), std::string::npos) << alerts.output;
  // One failing file among many still fails the batch.
  const std::string bad = temp_dir() + "batch_bad.json";
  write_file(bad, "{}");
  EXPECT_EQ(
      run_cmd(kInspect + " alerts self-check " + kAlertsGolden + " " + bad)
          .exit_code,
      2);
}

// --- alerts family -------------------------------------------------------

TEST(InspectCli, AlertsListAndShowRenderTheGolden) {
  const CmdResult list = run_cmd(kInspect + " alerts list " + kAlertsGolden);
  EXPECT_EQ(list.exit_code, 0) << list.output;
  EXPECT_NE(list.output.find("fault_burst"), std::string::npos) << list.output;
  EXPECT_NE(list.output.find("[critical]"), std::string::npos) << list.output;

  const CmdResult show = run_cmd(kInspect + " alerts show " + kAlertsGolden);
  EXPECT_EQ(show.exit_code, 0) << show.output;
  EXPECT_NE(show.output.find("perfmodel_drift"), std::string::npos)
      << show.output;
  // show prints the rule inputs; list does not.
  EXPECT_NE(show.output.find("worst_window_faults"), std::string::npos)
      << show.output;
  EXPECT_EQ(list.output.find("worst_window_faults"), std::string::npos)
      << list.output;
}

TEST(InspectCli, AlertsDiffExitsThreeOnFirstDivergence) {
  // Identical streams: exit 0.
  const CmdResult same = run_cmd(kInspect + " alerts diff " + kAlertsGolden +
                                 " " + kAlertsGolden);
  EXPECT_EQ(same.exit_code, 0) << same.output;
  EXPECT_NE(same.output.find("no divergence"), std::string::npos)
      << same.output;

  // Drop the golden's last alert: divergence at that index, exit 3.
  wss::telemetry::AlertsFile file;
  std::string error;
  ASSERT_TRUE(wss::telemetry::load_alerts(kAlertsGolden, &file, &error))
      << error;
  ASSERT_GT(file.alerts.size(), 1u);
  file.alerts.pop_back();
  const std::string shorter = temp_dir() + "alerts_shorter.json";
  ASSERT_TRUE(wss::telemetry::write_alerts(shorter, file, &error)) << error;
  const CmdResult diff =
      run_cmd(kInspect + " alerts diff " + kAlertsGolden + " " + shorter);
  EXPECT_EQ(diff.exit_code, 3) << diff.output;
  EXPECT_NE(diff.output.find("first divergent alert"), std::string::npos)
      << diff.output;
}

TEST(InspectCli, TimeseriesDiffExitsThreeOnFirstDivergence) {
  const CmdResult same = run_cmd(kInspect + " timeseries diff " +
                                 kTimeseriesGolden + " " + kTimeseriesGolden);
  EXPECT_EQ(same.exit_code, 0) << same.output;

  // Perturb one counter digit in a copy: still valid JSON, one frame off.
  std::string text = read_file(kTimeseriesGolden);
  const std::size_t at = text.find("\"instr\":");
  ASSERT_NE(at, std::string::npos);
  const std::size_t digit = at + std::string("\"instr\":").size();
  text[digit] = text[digit] == '9' ? '8' : '9';
  const std::string perturbed = temp_dir() + "ts_perturbed.json";
  write_file(perturbed, text);
  const CmdResult diff = run_cmd(kInspect + " timeseries diff " +
                                 kTimeseriesGolden + " " + perturbed);
  EXPECT_EQ(diff.exit_code, 3) << diff.output;
}

// --- flows family --------------------------------------------------------

TEST(InspectCli, FlowsFamilyCoversListShowSelfCheckAndDiff) {
  const CmdResult list = run_cmd(kInspect + " flows list " + kNetflowsGolden);
  EXPECT_EQ(list.exit_code, 0) << list.output;
  EXPECT_NE(list.output.find("halo.E words=50"), std::string::npos)
      << list.output;

  const CmdResult show = run_cmd(kInspect + " flows show " + kNetflowsGolden);
  EXPECT_EQ(show.exit_code, 0) << show.output;
  EXPECT_NE(show.output.find("per-flow rollup"), std::string::npos)
      << show.output;
  EXPECT_NE(show.output.find("hottest links"), std::string::npos)
      << show.output;

  const CmdResult check =
      run_cmd(kInspect + " flows self-check " + kNetflowsGolden);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("words conserved"), std::string::npos)
      << check.output;

  const CmdResult same = run_cmd(kInspect + " flows diff " + kNetflowsGolden +
                                 " " + kNetflowsGolden);
  EXPECT_EQ(same.exit_code, 0) << same.output;
  EXPECT_NE(same.output.find("no divergence"), std::string::npos)
      << same.output;

  // Perturb the last flow's queue peak: still valid, one flow off.
  std::string text = read_file(kNetflowsGolden);
  const std::size_t at = text.find("\"peak_queue\":1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, std::string("\"peak_queue\":1").size(),
               "\"peak_queue\":2");
  const std::string perturbed = temp_dir() + "flows_perturbed.json";
  write_file(perturbed, text);
  const CmdResult diff = run_cmd(kInspect + " flows diff " + kNetflowsGolden +
                                 " " + perturbed);
  EXPECT_EQ(diff.exit_code, 3) << diff.output;
  EXPECT_NE(diff.output.find("first divergent flow at index 8"),
            std::string::npos)
      << diff.output;
}

// --- runs family ---------------------------------------------------------

TEST(InspectCli, RunsListAndShowReadAWrittenLedger) {
  const std::string dir = temp_dir() + "ledger_runs";
  std::remove((dir + "/ledger.jsonl").c_str());
  wss::telemetry::RunManifest m;
  m.run_id = "cli-test-1";
  m.program = "cli test 4x4";
  m.cycles = 1234;
  m.outcome = "all_done";
  m.add_metric("cycles", 1234.0);
  std::string error;
  ASSERT_TRUE(wss::telemetry::append_run_manifest(dir, m, &error)) << error;
  m.run_id = "cli-test-2";
  m.cycles = 1300;
  ASSERT_TRUE(wss::telemetry::append_run_manifest(dir, m, &error)) << error;

  const CmdResult list = run_cmd(kInspect + " runs list " + dir);
  EXPECT_EQ(list.exit_code, 0) << list.output;
  EXPECT_NE(list.output.find("2 run(s)"), std::string::npos) << list.output;
  EXPECT_NE(list.output.find("cli-test-2"), std::string::npos) << list.output;

  const CmdResult show =
      run_cmd(kInspect + " runs show " + dir + " cli-test-1");
  EXPECT_EQ(show.exit_code, 0) << show.output;
  EXPECT_NE(show.output.find("cli test 4x4"), std::string::npos)
      << show.output;
  EXPECT_EQ(run_cmd(kInspect + " runs show " + dir + " nosuchrun").exit_code,
            2);
}

// --- schema dispatch and hostile files -----------------------------------

TEST(InspectCli, BareSelfCheckAndDiffDispatchOnTheSchemaTag) {
  const CmdResult all =
      run_cmd(kInspect + " self-check " + kPostmortemGolden + " " +
              kTimeseriesGolden + " " + kNetflowsGolden + " " + kAlertsGolden);
  EXPECT_EQ(all.exit_code, 0) << all.output;
  EXPECT_NE(all.output.find("words conserved"), std::string::npos)
      << all.output;
  EXPECT_NE(all.output.find("3 alerts"), std::string::npos) << all.output;

  const CmdResult diff = run_cmd(kInspect + " diff " + kTimeseriesGolden +
                                 " " + kTimeseriesGolden);
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
  EXPECT_NE(diff.output.find("no divergence"), std::string::npos)
      << diff.output;
  // Two files of different families cannot be diffed.
  EXPECT_EQ(run_cmd(kInspect + " diff " + kTimeseriesGolden + " " +
                    kAlertsGolden)
                .exit_code,
            2);

  // A family-prefixed form also asserts its family's schema.
  const CmdResult wrong =
      run_cmd(kInspect + " flows self-check " + kAlertsGolden);
  EXPECT_EQ(wrong.exit_code, 2) << wrong.output;
  EXPECT_NE(wrong.output.find("schema mismatch"), std::string::npos)
      << wrong.output;

  const std::string unknown = temp_dir() + "unknown_schema.json";
  write_file(unknown, R"({"schema":"wss.nosuch/1"})");
  const CmdResult other = run_cmd(kInspect + " self-check " + unknown);
  EXPECT_EQ(other.exit_code, 2) << other.output;
  EXPECT_NE(other.output.find("unknown schema"), std::string::npos)
      << other.output;
}

TEST(InspectCli, DeeplyNestedFileExitsTwoNotACrash) {
  const std::string deep = temp_dir() + "deep.json";
  write_file(deep, std::string(1000000, '['));
  const CmdResult ts = run_cmd(kInspect + " timeseries self-check " + deep);
  EXPECT_EQ(ts.exit_code, 2) << ts.output;
  EXPECT_NE(ts.output.find("nesting"), std::string::npos) << ts.output;
  EXPECT_EQ(run_cmd(kInspect + " self-check " + deep).exit_code, 2);
}

TEST(InspectCli, ForgedNumbersExitTwo) {
  const auto forged = [](const std::string& golden, const std::string& from,
                         const std::string& to, const std::string& name) {
    std::string text = read_file(golden);
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    const std::string path = temp_dir() + name;
    write_file(path, text);
    return path;
  };
  const CmdResult ts = run_cmd(
      kInspect + " timeseries self-check " +
      forged(kTimeseriesGolden, R"("width":6)", R"("width":1e300)",
             "forged_width.json"));
  EXPECT_EQ(ts.exit_code, 2) << ts.output;
  EXPECT_NE(ts.output.find("width"), std::string::npos) << ts.output;

  const CmdResult pm = run_cmd(
      kInspect + " self-check " +
      forged(kPostmortemGolden, R"("cycle":100)", R"("cycle":-5)",
             "forged_cycle.json"));
  EXPECT_EQ(pm.exit_code, 2) << pm.output;
  EXPECT_NE(pm.output.find("anomaly.cycle"), std::string::npos) << pm.output;

  const CmdResult nf = run_cmd(
      kInspect + " flows self-check " +
      forged(kNetflowsGolden, R"("cycles":58)", R"("cycles":58.5)",
             "forged_flows.json"));
  EXPECT_EQ(nf.exit_code, 2) << nf.output;

  const CmdResult al = run_cmd(
      kInspect + " alerts show " +
      forged(kAlertsGolden, R"("first_frame":1)", R"("first_frame":-1)",
             "forged_alerts.json"));
  EXPECT_EQ(al.exit_code, 2) << al.output;

  // A forged ledger line is skipped like a torn one, so its run is absent.
  const std::string dir = temp_dir() + "ledger_forged";
  std::string error;
  ASSERT_TRUE(wss::telemetry::ensure_directory(dir, &error)) << error;
  write_file(dir + "/ledger.jsonl",
             R"({"schema":"wss.runledger/1","run_id":"forged-1",)"
             R"("cycles":1e300})"
             "\n");
  const CmdResult runs = run_cmd(kInspect + " runs show " + dir + " forged-1");
  EXPECT_EQ(runs.exit_code, 2) << runs.output;
  EXPECT_NE(runs.output.find("skipped 1 unparseable line"), std::string::npos)
      << runs.output;
}

// --- wss_top -------------------------------------------------------------

TEST(TopCli, ReplayRendersDashboardWithHealthPane) {
  const CmdResult r = run_cmd(kTop + " " + kTimeseriesGolden);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("health:"), std::string::npos) << r.output;
  // The committed golden is a healthy run; the pane must say so.
  EXPECT_NE(r.output.find("health: ok"), std::string::npos) << r.output;
}

TEST(TopCli, UsageAndUnreadableExitCodes) {
  EXPECT_EQ(run_cmd(kTop).exit_code, 1);
  EXPECT_EQ(run_cmd(kTop + " --last 0 x.json").exit_code, 1);
  EXPECT_EQ(run_cmd(kTop + " /nonexistent.json").exit_code, 2);
}

TEST(TopCli, FollowSurvivesTornFramesAndRecovers) {
  // The --follow contract: a missing file is waited for, a torn read keeps
  // the last display (here: the waiting banner) instead of crashing, and
  // the completed file renders on the next tick. Drive a real follower
  // through all three states, then SIGTERM it.
  const std::string dir = temp_dir();
  const std::string series = dir + "follow_series.json";
  const std::string out = dir + "follow_out.txt";
  std::remove(series.c_str());

  const CmdResult spawn = run_cmd("sh -c '" + kTop + " " + series +
                                  " --follow --interval-ms 40 > " + out +
                                  " 2>&1 & echo $!'");
  ASSERT_EQ(spawn.exit_code, 0) << spawn.output;
  const long pid = std::strtol(spawn.output.c_str(), nullptr, 10);
  ASSERT_GT(pid, 0) << spawn.output;

  const auto tick = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };
  tick(); // follower is polling a missing file: "waiting for"

  const std::string full = read_file(kTimeseriesGolden);
  ASSERT_GT(full.size(), 64u);
  write_file(series, full.substr(0, full.size() / 2)); // torn mid-frame
  tick(); // torn ticks must not kill or blank the follower

  write_file(series, full); // writer finished the flush
  tick();                   // next tick renders the full dashboard

  EXPECT_EQ(::kill(static_cast<pid_t>(pid), SIGTERM), 0)
      << "follower died before SIGTERM";
  tick();

  const std::string rendered = read_file(out);
  EXPECT_NE(rendered.find("waiting for"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("health:"), std::string::npos) << rendered;
}

} // namespace
