// Run-ledger implementation: run IDs, WSS_* env snapshots, the manifest
// field list (telemetry/artifact.hpp), JSONL append/load, and the
// `wss_inspect runs` renderings. See ledger.hpp and docs/TIMESERIES.md.

#include "telemetry/ledger.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/io.hpp"
#include "telemetry/json.hpp"
#include "telemetry/timeseries.hpp" // sparkline

extern char** environ;

namespace wss::telemetry {

// --- run identity --------------------------------------------------------

std::string next_run_id(const std::string& program) {
  static std::atomic<std::uint64_t> seq{0};
  std::string slug;
  for (const char ch : program) {
    const auto u = static_cast<unsigned char>(ch);
    if (std::isalnum(u) != 0) {
      slug += static_cast<char>(std::tolower(u));
    } else if (!slug.empty() && slug.back() != '-') {
      slug += '-';
    }
    if (slug.size() >= 24) break;
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  if (slug.empty()) slug = "run";
  return slug + "-" + std::to_string(static_cast<long long>(std::time(nullptr))) +
         "-" + std::to_string(static_cast<long long>(::getpid())) + "-" +
         std::to_string(seq.fetch_add(1) + 1);
}

std::vector<std::pair<std::string, std::string>> wss_environment() {
  std::vector<std::pair<std::string, std::string>> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("WSS_", 0) != 0) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    out.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- the wss.runledger/1 field lists ------------------------------------

void describe(artifact::Io& io, RunMetric& m) {
  io.field("name", m.name);
  io.field("value", m.value);
}

void describe(artifact::Io& io, RunArtifact& a) {
  io.field("kind", a.kind);
  io.field("path", a.path);
}

void describe(artifact::Io& io, RunAlert& a) {
  io.field("rule", a.rule);
  io.field("severity", a.severity);
  io.field("cycle", a.cycle);
}

void describe(artifact::Io& io, RunManifest& m) {
  std::string schema = kLedgerSchema;
  io.field("schema", schema);
  io.field("run_id", m.run_id);
  io.field("program", m.program);
  io.field("width", m.width);
  io.field("height", m.height);
  io.field("threads", m.threads);
  io.field("cycles", m.cycles);
  io.field("outcome", m.outcome);
  io.field("deadlock", m.deadlock);
  io.field("fault_total", m.fault_total);
  io.dict("env", m.env);
  io.field("metrics", m.metrics);
  io.field("artifacts", m.artifacts);
  if (io.loading() || !m.alerts.empty()) {
    // Omitted on healthy runs so pre-health ledger lines stay byte-stable
    // against re-emission; the schema tag remains wss.runledger/1.
    io.field("alerts", m.alerts);
  }
}

std::string manifest_json(const RunManifest& m) { return artifact::emit(m); }

std::string ledger_dir() { return env::parse_string("WSS_LEDGER_DIR"); }

bool append_run_manifest(const std::string& dir, const RunManifest& m,
                         std::string* error) {
  if (!ensure_directory(dir, error)) return false;
  const std::string path = dir + "/ledger.jsonl";
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out) {
    if (error != nullptr) *error = path + ": cannot open for append";
    return false;
  }
  out << manifest_json(m) << '\n';
  out.flush();
  if (!out) {
    if (error != nullptr) *error = path + ": append failed";
    return false;
  }
  return true;
}

std::string maybe_append_run_manifest(const RunManifest& m) {
  const std::string dir = ledger_dir();
  if (dir.empty()) return {};
  std::string error;
  if (!append_run_manifest(dir, m, &error)) {
    std::fprintf(stderr, "wss: run-ledger append failed: %s\n",
                 error.c_str());
    return {};
  }
  return dir + "/ledger.jsonl";
}

// --- loading -------------------------------------------------------------

namespace {

[[nodiscard]] bool is_directory(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace

bool load_ledger(const std::string& path, Ledger* out, std::string* error) {
  const std::string file =
      is_directory(path) ? path + "/ledger.jsonl" : path;
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = file + ": cannot open file";
    return false;
  }
  Ledger ledger;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    RunManifest m;
    if (artifact::parse(line, kLedgerSchema, &m, nullptr) &&
        !m.run_id.empty()) {
      ledger.runs.push_back(std::move(m));
    } else {
      ++ledger.skipped_lines;
    }
  }
  if (in.bad()) {
    if (error != nullptr) *error = file + ": read error";
    return false;
  }
  *out = std::move(ledger);
  return true;
}

const RunManifest* find_run(const Ledger& ledger,
                            const std::string& id_or_prefix,
                            std::string* error) {
  const RunManifest* match = nullptr;
  for (const RunManifest& m : ledger.runs) {
    if (m.run_id == id_or_prefix) return &m; // exact beats prefix
  }
  std::size_t hits = 0;
  for (const RunManifest& m : ledger.runs) {
    if (m.run_id.rfind(id_or_prefix, 0) == 0) {
      match = &m;
      ++hits;
    }
  }
  if (hits == 1) return match;
  if (error != nullptr) {
    *error = hits == 0
                 ? "no run matches '" + id_or_prefix + "'"
                 : "'" + id_or_prefix + "' is ambiguous (" +
                       std::to_string(hits) + " runs match)";
  }
  return nullptr;
}

// --- rendering -----------------------------------------------------------

std::string pretty_manifest(const RunManifest& m) {
  std::ostringstream out;
  out << "run " << m.run_id << "\n";
  out << "  program:  " << (m.program.empty() ? "-" : m.program) << "\n";
  if (m.width > 0) {
    out << "  fabric:   " << m.width << "x" << m.height << ", " << m.threads
        << " sim thread(s)\n";
  }
  out << "  outcome:  " << (m.outcome.empty() ? "-" : m.outcome);
  if (m.deadlock) out << " (deadlock)";
  out << ", " << m.cycles << " cycles\n";
  if (m.fault_total > 0) {
    out << "  faults:   " << m.fault_total << " injected\n";
  }
  if (!m.alerts.empty()) {
    out << "  alerts:\n";
    for (const RunAlert& a : m.alerts) {
      out << "    [" << a.severity << "] " << a.rule;
      if (a.cycle > 0) out << " @c" << a.cycle;
      out << "\n";
    }
  }
  if (!m.metrics.empty()) {
    out << "  metrics:\n";
    for (const RunMetric& metric : m.metrics) {
      out << "    " << metric.name << " = " << json::number(metric.value)
          << "\n";
    }
  }
  if (!m.env.empty()) {
    out << "  env:\n";
    for (const auto& [name, value] : m.env) {
      out << "    " << name << "=" << value << "\n";
    }
  }
  if (!m.artifacts.empty()) {
    out << "  artifacts:\n";
    for (const RunArtifact& a : m.artifacts) {
      out << "    " << a.kind << ": " << a.path << "\n";
    }
  }
  return out.str();
}

std::string pretty_ledger_table(const Ledger& ledger) {
  std::ostringstream out;
  out << ledger.runs.size() << " run(s)";
  if (ledger.skipped_lines > 0) {
    out << " (" << ledger.skipped_lines << " unparseable line(s) skipped)";
  }
  out << "\n";
  if (ledger.runs.empty()) return out.str();
  std::size_t id_width = 6;
  for (const RunManifest& m : ledger.runs) {
    id_width = std::max(id_width, m.run_id.size());
  }
  char header[160];
  std::snprintf(header, sizeof(header), "%-*s  %-20s  %-9s  %10s  %s\n",
                static_cast<int>(id_width), "run id", "program", "outcome",
                "cycles", "artifacts");
  out << header;
  for (const RunManifest& m : ledger.runs) {
    std::string program = m.program.empty() ? "-" : m.program;
    if (program.size() > 20) program = program.substr(0, 17) + "...";
    char row[512];
    std::snprintf(row, sizeof(row), "%-*s  %-20s  %-9s  %10llu  %zu\n",
                  static_cast<int>(id_width), m.run_id.c_str(),
                  program.c_str(),
                  m.outcome.empty() ? "-" : m.outcome.c_str(),
                  static_cast<unsigned long long>(m.cycles),
                  m.artifacts.size());
    out << row;
  }
  return out.str();
}

std::string diff_manifests(const RunManifest& a, const RunManifest& b) {
  std::ostringstream out;
  out << "runs " << a.run_id << " vs " << b.run_id << "\n";
  if (a.program != b.program) {
    out << "  program:  '" << a.program << "' vs '" << b.program << "'\n";
  }
  if (a.outcome != b.outcome || a.deadlock != b.deadlock) {
    out << "  outcome:  " << a.outcome << (a.deadlock ? " (deadlock)" : "")
        << " vs " << b.outcome << (b.deadlock ? " (deadlock)" : "") << "\n";
  }
  if (a.cycles != b.cycles) {
    out << "  cycles:   " << a.cycles << " vs " << b.cycles << "\n";
  }
  if (a.threads != b.threads) {
    out << "  threads:  " << a.threads << " vs " << b.threads << "\n";
  }
  if (a.fault_total != b.fault_total) {
    out << "  faults:   " << a.fault_total << " vs " << b.fault_total << "\n";
  }
  if (a.alerts.size() != b.alerts.size()) {
    out << "  alerts:   " << a.alerts.size() << " vs " << b.alerts.size()
        << "\n";
  }

  bool metric_diffs = false;
  for (const RunMetric& ma : a.metrics) {
    const RunMetric* mb = b.metric(ma.name);
    if (mb != nullptr && mb->value == ma.value) continue;
    if (!metric_diffs) {
      out << "  metrics:\n";
      metric_diffs = true;
    }
    if (mb == nullptr) {
      out << "    " << ma.name << ": " << json::number(ma.value)
          << " vs (absent)\n";
    } else {
      out << "    " << ma.name << ": " << json::number(ma.value) << " vs "
          << json::number(mb->value) << " (" << (mb->value >= ma.value ? "+" : "")
          << json::number(mb->value - ma.value) << ")\n";
    }
  }
  for (const RunMetric& mb : b.metrics) {
    if (a.metric(mb.name) != nullptr) continue;
    if (!metric_diffs) {
      out << "  metrics:\n";
      metric_diffs = true;
    }
    out << "    " << mb.name << ": (absent) vs " << json::number(mb.value)
        << "\n";
  }

  const auto env_value =
      [](const RunManifest& m,
         const std::string& name) -> const std::string* {
    for (const auto& [n, v] : m.env) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  bool env_diffs = false;
  const auto note_env = [&](const std::string& name, const std::string& va,
                            const std::string& vb) {
    if (!env_diffs) {
      out << "  env:\n";
      env_diffs = true;
    }
    out << "    " << name << ": " << va << " vs " << vb << "\n";
  };
  for (const auto& [name, value] : a.env) {
    const std::string* other = env_value(b, name);
    if (other == nullptr) {
      note_env(name, value, "(unset)");
    } else if (*other != value) {
      note_env(name, value, *other);
    }
  }
  for (const auto& [name, value] : b.env) {
    if (env_value(a, name) == nullptr) note_env(name, "(unset)", value);
  }

  const std::string rendered = out.str();
  if (rendered.find('\n') == rendered.size() - 1) {
    return rendered + "  identical (outcome, metrics, env)\n";
  }
  return rendered;
}

std::string pretty_trend(const Ledger& ledger, const std::string& metric) {
  std::vector<double> values;
  std::vector<const RunManifest*> runs;
  for (const RunManifest& m : ledger.runs) {
    const RunMetric* found = m.metric(metric);
    if (found == nullptr) continue;
    values.push_back(found->value);
    runs.push_back(&m);
  }
  std::ostringstream out;
  if (values.empty()) {
    out << "no run carries metric '" << metric << "'\n";
    return out.str();
  }
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  out << metric << " across " << values.size() << " run(s):\n";
  out << "  |" << sparkline(values, 60) << "|\n";
  out << "  min " << json::number(*lo) << ", max " << json::number(*hi)
      << ", latest " << json::number(values.back()) << " ("
      << runs.back()->run_id << ")\n";
  return out.str();
}

} // namespace wss::telemetry
