#pragma once

// The run ledger (docs/TIMESERIES.md): a durable, append-only JSONL index
// of every solve/bench run. Each run gets a process-unique run ID and a
// one-line manifest — program identity, fabric dims, thread count, the
// WSS_* environment that shaped the run, outcome (StopInfo reason), key
// metrics, and the paths of every artifact the run produced (time series,
// post-mortem bundles, bench reports) — appended to
// `$WSS_LEDGER_DIR/ledger.jsonl`. `wss_inspect runs` lists, shows, diffs
// and trends the entries; the future serving layer writes one per request.
//
// Appending is crash-tolerant by construction: one line per run, written
// with a single append, so a torn write corrupts at most the final line
// (and load_ledger skips unparseable lines, counting them).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wss::telemetry {

namespace artifact {
class Io; // telemetry/artifact.hpp
}

/// Ledger schema identifier; bump on breaking layout changes.
inline constexpr const char* kLedgerSchema = "wss.runledger/1";

struct RunMetric {
  std::string name;
  double value = 0.0;
};

struct RunArtifact {
  std::string kind; ///< "timeseries", "postmortem", "report", ...
  std::string path;
};

/// One health-engine alert summarized into the manifest (docs/HEALTH.md);
/// the full alert (inputs, frame ranges) lives in the `alerts` artifact.
struct RunAlert {
  std::string rule;
  std::string severity; ///< "info" / "warn" / "critical"
  std::uint64_t cycle = 0; ///< last offending cycle (0 for scalar rules)
};

/// One ledger entry. Everything except run_id/program is optional — a
/// host-side solver run has no fabric dims, a bench run has no outcome.
struct RunManifest {
  std::string run_id;
  std::string program;
  int width = 0, height = 0;
  int threads = 0;
  std::uint64_t cycles = 0;
  std::string outcome; ///< StopInfo reason ("all_done", ...) or free-form
  bool deadlock = false;
  std::uint64_t fault_total = 0;
  /// WSS_* environment snapshot (name-sorted; see wss_environment()).
  std::vector<std::pair<std::string, std::string>> env;
  std::vector<RunMetric> metrics;
  std::vector<RunArtifact> artifacts;
  /// Health-engine alerts raised on the run (empty on healthy runs; the
  /// JSON field is omitted entirely then, keeping old lines byte-stable).
  std::vector<RunAlert> alerts;

  void add_metric(std::string name, double value) {
    metrics.push_back({std::move(name), value});
  }
  void add_artifact(std::string kind, std::string path) {
    artifacts.push_back({std::move(kind), std::move(path)});
  }
  void add_alert(std::string rule, std::string severity, std::uint64_t cycle) {
    alerts.push_back({std::move(rule), std::move(severity), cycle});
  }
  /// First metric with `name`, or nullptr.
  [[nodiscard]] const RunMetric* metric(const std::string& name) const {
    for (const RunMetric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// Mint a unique run ID: `<program-slug>-<epoch>-<pid>-<seq>`. The slug
/// keeps [a-z0-9-] of the program name; epoch seconds order runs across
/// processes, pid + an atomic per-process sequence disambiguate within a
/// second.
[[nodiscard]] std::string next_run_id(const std::string& program);

/// Name-sorted snapshot of every WSS_*-prefixed environment variable —
/// the knobs that shaped the run, recorded so a ledger entry can be
/// reproduced.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
wss_environment();

/// Render one manifest as a single JSON line (no trailing newline).
[[nodiscard]] std::string manifest_json(const RunManifest& m);

/// The wss.runledger/1 field lists (telemetry/artifact.hpp).
void describe(artifact::Io& io, RunMetric& m);
void describe(artifact::Io& io, RunArtifact& a);
void describe(artifact::Io& io, RunAlert& a);
void describe(artifact::Io& io, RunManifest& m);

/// $WSS_LEDGER_DIR or "" (strict parse; see common/env.hpp).
[[nodiscard]] std::string ledger_dir();

/// Append `m` to `<dir>/ledger.jsonl` (dir created if missing). Returns
/// false + `*error` on I/O failure.
bool append_run_manifest(const std::string& dir, const RunManifest& m,
                         std::string* error = nullptr);

/// Append iff WSS_LEDGER_DIR is set. Returns the ledger path appended to
/// ("" when disabled); I/O failures go to stderr, never thrown — the
/// ledger must not turn a finished run into a failed one.
std::string maybe_append_run_manifest(const RunManifest& m);

/// A loaded ledger: parsed entries plus how many lines were skipped
/// (wrong schema or torn/unparseable trailing writes).
struct Ledger {
  std::vector<RunManifest> runs;
  std::size_t skipped_lines = 0;
};

/// Load `path`, which may be a ledger.jsonl file or a directory containing
/// one. Returns false + `*error` when the file cannot be read at all.
bool load_ledger(const std::string& path, Ledger* out,
                 std::string* error = nullptr);

/// Find a run by exact ID or unique prefix; nullptr when absent or
/// ambiguous (`*error` says which).
[[nodiscard]] const RunManifest* find_run(const Ledger& ledger,
                                          const std::string& id_or_prefix,
                                          std::string* error = nullptr);

/// One-run detail rendering (`wss_inspect runs show`).
[[nodiscard]] std::string pretty_manifest(const RunManifest& m);

/// Tabular listing, newest last (`wss_inspect runs list`).
[[nodiscard]] std::string pretty_ledger_table(const Ledger& ledger);

/// Field-by-field comparison of two runs: differing outcome, metrics
/// (with deltas), and env vars (`wss_inspect runs diff`).
[[nodiscard]] std::string diff_manifests(const RunManifest& a,
                                         const RunManifest& b);

/// Trend `metric` across every run that carries it, oldest first, as a
/// sparkline plus min/max/latest (`wss_inspect runs trend`).
[[nodiscard]] std::string pretty_trend(const Ledger& ledger,
                                       const std::string& metric);

} // namespace wss::telemetry
