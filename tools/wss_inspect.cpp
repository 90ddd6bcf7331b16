// wss_inspect — telemetry artifact forensics CLI (docs/OBSERVABILITY.md
// "Artifacts", docs/POSTMORTEM.md, docs/TIMESERIES.md, docs/NETWORK.md,
// docs/HEALTH.md).
//
// Each artifact family is one row of kFamilies: its CLI word, its schema
// tag and its show / list / self-check / diff operations. Every file is
// loaded through the shared artifact substrate (telemetry/artifact.hpp)
// against the row's schema tag.
//
//   wss_inspect print <bundle.json> [--last N]
//     Pretty-print one post-mortem bundle: anomaly, stop reason, wait-for
//     cycles, blocked tiles, last-N flight events of the busiest/blocked
//     tiles, solver scalars, time-series tail.
//
//   wss_inspect diff <a.json> <b.json>
//   wss_inspect self-check <artifact.json> [...]
//     Dispatch on each file's "schema" tag, so they take any of the four
//     artifact files. diff reports the first divergence between two
//     artifacts of one schema — for bundles the earliest (cycle, tile,
//     event) at which the recorded streams differ, e.g. a fault-injected
//     run against its clean twin; exit 0 when identical, 3 when they
//     diverge. self-check is the CI schema/invariant guard: each file must
//     load, carry a known schema tag and pass that schema's invariants;
//     exit 0 iff every file passes.
//
//   wss_inspect timeseries print <series.json> [--last N] [--window A:B]
//   wss_inspect timeseries self-check <series.json> [...]
//   wss_inspect timeseries diff <a.json> <b.json>
//     `wss.timeseries/1` files (WSS_SAMPLE_CYCLES): a sparkline dashboard
//     (`--window A:B` restricts it to the inclusive frame-index range),
//     the schema/conservation guard, and the first-divergent-frame diff
//     (the determinism check between runs at different WSS_SIM_THREADS).
//
//   wss_inspect flows list|show|self-check|diff <netflows.json> ...
//     `wss.netflows/1` files from the network observatory: one line per
//     flow, full detail with hot/congested links and bisection words, the
//     schema + exact-conservation guard (per-flow words must sum to the
//     fabric's link-transfer count), and the first-divergent-flow diff.
//
//   wss_inspect alerts list|show|self-check|diff <alerts.json> ...
//     `wss.alerts/1` files from the runtime health engine: one line per
//     alert, full detail with rule inputs, the schema guard, and the
//     first-divergent-alert diff.
//
//   The family-prefixed forms run the same table row as the bare forms and
//   also assert the family's schema: `flows self-check <alerts file>`
//   fails with "schema mismatch".
//
//   wss_inspect runs list <ledger-dir-or-file>
//   wss_inspect runs show <ledger> <run-id-or-prefix>
//   wss_inspect runs diff <ledger> <run-a> <run-b>
//   wss_inspect runs trend <ledger> <metric>
//     Query the append-only run ledger ($WSS_LEDGER_DIR/ledger.jsonl):
//     tabular history, one-run manifests, run-vs-run comparison (outcome,
//     metrics, WSS_* env), and a metric trend across runs.
//
// Exit codes: 0 success, 1 usage error, 2 unreadable/invalid artifact,
// 3 divergence found (diff only).

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "telemetry/artifact.hpp"
#include "telemetry/health.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/postmortem.hpp"
#include "telemetry/timeseries.hpp"

namespace {

namespace tm = wss::telemetry;

int usage() {
  std::fprintf(
      stderr,
      "usage: wss_inspect print <bundle.json> [--last N]\n"
      "       wss_inspect diff <a.json> <b.json>\n"
      "       wss_inspect self-check <artifact.json> [...]\n"
      "       wss_inspect timeseries print <series.json> [--last N]"
      " [--window A:B]\n"
      "       wss_inspect timeseries self-check <series.json> [...]\n"
      "       wss_inspect timeseries diff <a.json> <b.json>\n"
      "       wss_inspect flows list <netflows.json> [...]\n"
      "       wss_inspect flows show <netflows.json>\n"
      "       wss_inspect flows self-check <netflows.json> [...]\n"
      "       wss_inspect flows diff <a.json> <b.json>\n"
      "       wss_inspect alerts list <alerts.json> [...]\n"
      "       wss_inspect alerts show <alerts.json>\n"
      "       wss_inspect alerts self-check <alerts.json> [...]\n"
      "       wss_inspect alerts diff <a.json> <b.json>\n"
      "       wss_inspect runs list <ledger>\n"
      "       wss_inspect runs show <ledger> <run-id>\n"
      "       wss_inspect runs diff <ledger> <run-a> <run-b>\n"
      "       wss_inspect runs trend <ledger> <metric>\n");
  return 1;
}

struct Family;

/// Subcommand handlers: argv[0] is the first file.
using Handler = int (*)(const Family& fam, int argc, char** argv);

struct Family {
  const char* word;      ///< family word; nullptr = bare commands only
  const char* schema;    ///< the tag every file of the family carries
  const char* show_verb; ///< "print" or "show"
  Handler show;
  Handler list;          ///< nullptr when the family has no list verb
  bool (*check)(const Family& fam, const char* path); ///< prints ok/failure
  Handler diff;
};

template <class T>
bool load(const Family& fam, const char* path, T* out) {
  std::string error;
  if (tm::artifact::read(path, fam.schema, out, &error)) return true;
  std::fprintf(stderr, "wss_inspect: %s\n", error.c_str());
  return false;
}

// --- per-schema "ok" lines ----------------------------------------------

const char* name_or(const std::string& s, const char* fallback) {
  return s.empty() ? fallback : s.c_str();
}

std::string ok_detail(const tm::Bundle& b) {
  return b.anomaly_kind + ", " + std::to_string(b.tiles.size()) + " tiles, " +
         std::to_string(b.heatmaps.size()) + " heatmaps";
}
std::string ok_detail(const tm::TimeSeries& ts) {
  return std::string(name_or(ts.program, "unnamed")) + ", " +
         std::to_string(ts.frames.size()) + " frames, every " +
         std::to_string(ts.sample_cycles) + " cycles";
}
std::string ok_detail(const tm::NetFlowsFile& f) {
  return std::string(name_or(f.program, "unnamed")) + ", " +
         std::to_string(f.flows.size()) + " flows, " +
         std::to_string(f.link_transfers) + " words conserved";
}
std::string ok_detail(const tm::AlertsFile& a) {
  return std::string(name_or(a.program, "unnamed")) + ", " +
         std::to_string(a.alerts.size()) + " alerts";
}

template <class T, bool (*SelfCheck)(const T&, std::string*)>
bool check_file(const Family& fam, const char* path) {
  T art;
  if (!load(fam, path, &art)) return false;
  std::string error;
  if (!SelfCheck(art, &error)) {
    std::fprintf(stderr, "wss_inspect: %s: self-check failed: %s\n", path,
                 error.c_str());
    return false;
  }
  std::printf("%s: ok (%s)\n", path, ok_detail(art).c_str());
  return true;
}

template <class T>
int diff_files(const Family& fam, int argc, char** argv) {
  if (argc != 2) return usage();
  T a;
  T b;
  if (!load(fam, argv[0], &a) || !load(fam, argv[1], &b)) return 2;
  const tm::Divergence d = tm::first_divergence(a, b);
  std::fputs(tm::pretty_divergence(d).c_str(), stdout);
  return d.found ? 3 : 0;
}

// --- show / list ---------------------------------------------------------

/// Parse "--last N" at argv[*i]; false (after complaining) on a bad count.
bool parse_last(int argc, char** argv, int* i, std::size_t* last_k) {
  if (std::strcmp(argv[*i], "--last") != 0 || *i + 1 >= argc) return false;
  const long v = std::strtol(argv[++*i], nullptr, 10);
  if (v < 1) {
    std::fprintf(stderr, "wss_inspect: --last wants a positive count\n");
    return false;
  }
  *last_k = static_cast<std::size_t>(v);
  return true;
}

/// Parse "--window A:B" (inclusive, 0-based frame indices).
bool parse_window(const char* text, std::size_t* lo, std::size_t* hi) {
  char* end = nullptr;
  const long a = std::strtol(text, &end, 10);
  if (end == text || *end != ':' || a < 0) return false;
  const char* rest = end + 1;
  const long b = std::strtol(rest, &end, 10);
  if (end == rest || *end != '\0' || b < a) return false;
  *lo = static_cast<std::size_t>(a);
  *hi = static_cast<std::size_t>(b);
  return true;
}

int show_bundle(const Family& fam, int argc, char** argv) {
  if (argc < 1) return usage();
  std::size_t last_k = 8;
  for (int i = 1; i < argc; ++i) {
    if (!parse_last(argc, argv, &i, &last_k)) return usage();
  }
  tm::Bundle bundle;
  if (!load(fam, argv[0], &bundle)) return 2;
  std::fputs(tm::pretty_bundle(bundle, last_k).c_str(), stdout);
  return 0;
}

int show_series(const Family& fam, int argc, char** argv) {
  if (argc < 1) return usage();
  std::size_t last_k = 8;
  bool windowed = false;
  std::size_t win_lo = 0;
  std::size_t win_hi = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      if (!parse_window(argv[++i], &win_lo, &win_hi)) {
        std::fprintf(stderr,
                     "wss_inspect: --window wants A:B with 0 <= A <= B\n");
        return 1;
      }
      windowed = true;
    } else if (!parse_last(argc, argv, &i, &last_k)) {
      return usage();
    }
  }
  tm::TimeSeries ts;
  if (!load(fam, argv[0], &ts)) return 2;
  if (windowed) {
    if (win_lo >= ts.frames.size()) {
      std::fprintf(stderr,
                   "wss_inspect: --window %zu:%zu out of range (%zu frames)\n",
                   win_lo, win_hi, ts.frames.size());
      return 1;
    }
    const std::size_t total = ts.frames.size();
    win_hi = std::min(win_hi, total - 1);
    // Slice the frame vector; sparklines and the tail table then span
    // exactly the requested window.
    ts.frames.assign(ts.frames.begin() + static_cast<std::ptrdiff_t>(win_lo),
                     ts.frames.begin() + static_cast<std::ptrdiff_t>(win_hi) +
                         1);
    std::printf("window: frames %zu..%zu of %zu\n", win_lo, win_hi, total);
    last_k = std::min(last_k, ts.frames.size());
  }
  std::fputs(tm::pretty_timeseries(ts, last_k).c_str(), stdout);
  return 0;
}

template <class T, std::string (*Pretty)(const T&)>
int show_file(const Family& fam, int argc, char** argv) {
  if (argc != 1) return usage();
  T art;
  if (!load(fam, argv[0], &art)) return 2;
  std::fputs(Pretty(art).c_str(), stdout);
  return 0;
}

/// list mode: a header line per file, then one line per record.
void print_listing(const char* path, const tm::NetFlowsFile& file) {
  std::printf(
      "%s: %s run %s, %dx%d fabric, %zu flow(s), %llu words over %llu "
      "cycles\n",
      path, name_or(file.program, "unnamed"), name_or(file.run_id, "?"),
      file.width, file.height, file.flows.size(),
      static_cast<unsigned long long>(file.link_transfers),
      static_cast<unsigned long long>(file.cycles));
  for (const tm::NetFlowTotals& f : file.flows) {
    std::printf("  %s\n", tm::summarize_flow(f).c_str());
  }
}

void print_listing(const char* path, const tm::AlertsFile& file) {
  std::printf("%s: %s run %s, %zu alert(s), tol %.0f%%\n", path,
              name_or(file.program, "unnamed"), name_or(file.run_id, "?"),
              file.alerts.size(), file.tol_pct);
  for (const tm::HealthAlert& a : file.alerts) {
    std::printf("  %s\n", tm::summarize_alert(a).c_str());
  }
}

template <class T>
int list_files(const Family& fam, int argc, char** argv) {
  if (argc < 1) return usage();
  for (int i = 0; i < argc; ++i) {
    T art;
    if (!load(fam, argv[i], &art)) return 2;
    print_listing(argv[i], art);
  }
  return 0;
}

// --- the family table ----------------------------------------------------

const Family kFamilies[] = {
    {nullptr, tm::kPostmortemSchema, "print", show_bundle, nullptr,
     check_file<tm::Bundle, tm::self_check_bundle>, diff_files<tm::Bundle>},
    {"timeseries", tm::kTimeseriesSchema, "print", show_series, nullptr,
     check_file<tm::TimeSeries, tm::self_check_timeseries>,
     diff_files<tm::TimeSeries>},
    {"flows", tm::kNetFlowsSchema, "show",
     show_file<tm::NetFlowsFile, tm::pretty_netflows>,
     list_files<tm::NetFlowsFile>,
     check_file<tm::NetFlowsFile, tm::self_check_netflows>,
     diff_files<tm::NetFlowsFile>},
    {"alerts", tm::kAlertsSchema, "show",
     show_file<tm::AlertsFile, tm::pretty_alerts>, list_files<tm::AlertsFile>,
     check_file<tm::AlertsFile, tm::self_check_alerts>,
     diff_files<tm::AlertsFile>},
};

const Family* family_for_schema(const std::string& schema) {
  for (const Family& f : kFamilies) {
    if (schema == f.schema) return &f;
  }
  return nullptr;
}

/// The family a file belongs to, by its schema tag; nullptr (after
/// complaining) when unreadable or unknown.
const Family* family_of(const char* path) {
  std::string schema;
  std::string error;
  if (!tm::artifact::read_schema(path, &schema, &error)) {
    std::fprintf(stderr, "wss_inspect: %s\n", error.c_str());
    return nullptr;
  }
  const Family* fam = family_for_schema(schema);
  if (fam == nullptr) {
    std::fprintf(stderr, "wss_inspect: %s: unknown schema '%s'\n", path,
                 schema.c_str());
  }
  return fam;
}

/// self-check over files; `fam` == nullptr dispatches each on its schema.
int self_check_files(const Family* fam, int argc, char** argv) {
  if (argc < 1) return usage();
  int failures = 0;
  for (int i = 0; i < argc; ++i) {
    const Family* f = fam != nullptr ? fam : family_of(argv[i]);
    if (f == nullptr || !f->check(*f, argv[i])) ++failures;
  }
  return failures == 0 ? 0 : 2;
}

int run_family(const Family& fam, int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string verb = argv[0];
  if (verb == fam.show_verb) return fam.show(fam, argc - 1, argv + 1);
  if (verb == "list" && fam.list != nullptr) {
    return fam.list(fam, argc - 1, argv + 1);
  }
  if (verb == "self-check") return self_check_files(&fam, argc - 1, argv + 1);
  if (verb == "diff") return fam.diff(fam, argc - 1, argv + 1);
  return usage();
}

// --- runs subcommands ---------------------------------------------------

const tm::RunManifest* find_run_or_complain(const tm::Ledger& ledger,
                                            const std::string& id) {
  std::string error;
  const tm::RunManifest* run = tm::find_run(ledger, id, &error);
  if (run == nullptr) std::fprintf(stderr, "wss_inspect: %s\n", error.c_str());
  return run;
}

int cmd_runs(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string sub = argv[0];
  tm::Ledger ledger;
  std::string error;
  if (!tm::load_ledger(argv[1], &ledger, &error)) {
    std::fprintf(stderr, "wss_inspect: %s\n", error.c_str());
    return 2;
  }
  if (ledger.skipped_lines > 0) {
    std::fprintf(stderr, "wss_inspect: %s: skipped %zu unparseable line(s)\n",
                 argv[1], ledger.skipped_lines);
  }
  if (sub == "list") {
    if (argc != 2) return usage();
    std::fputs(tm::pretty_ledger_table(ledger).c_str(), stdout);
    return 0;
  }
  if (sub == "show") {
    if (argc != 3) return usage();
    const tm::RunManifest* run = find_run_or_complain(ledger, argv[2]);
    if (run == nullptr) return 2;
    std::fputs(tm::pretty_manifest(*run).c_str(), stdout);
    return 0;
  }
  if (sub == "diff") {
    if (argc != 4) return usage();
    const tm::RunManifest* a = find_run_or_complain(ledger, argv[2]);
    if (a == nullptr) return 2;
    const tm::RunManifest* b = find_run_or_complain(ledger, argv[3]);
    if (b == nullptr) return 2;
    std::fputs(tm::diff_manifests(*a, *b).c_str(), stdout);
    return 0;
  }
  if (sub == "trend") {
    if (argc != 3) return usage();
    std::fputs(tm::pretty_trend(ledger, argv[2]).c_str(), stdout);
    return 0;
  }
  return usage();
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Family& bundles = kFamilies[0];
  if (cmd == "print") return bundles.show(bundles, argc - 2, argv + 2);
  if (cmd == "self-check") return self_check_files(nullptr, argc - 2, argv + 2);
  if (cmd == "diff") {
    if (argc != 4) return usage();
    const Family* fam = family_of(argv[2]);
    return fam != nullptr ? fam->diff(*fam, argc - 2, argv + 2) : 2;
  }
  if (cmd == "runs") return cmd_runs(argc - 2, argv + 2);
  if (cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }
  for (const Family& fam : kFamilies) {
    if (fam.word != nullptr && cmd == fam.word) {
      return run_family(fam, argc - 2, argv + 2);
    }
  }
  return usage();
}
