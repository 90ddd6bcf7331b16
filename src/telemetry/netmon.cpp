// Network-observatory analysis: the `wss.netflows/1` artifact (build, its
// field lists over telemetry/artifact.hpp, self-check, diff), the
// FlowTable JSON embedding, and the terminal renderings (wss_inspect
// flows, the wss_top network pane). The recording half lives in
// netmon.hpp (header-only, included by the fabric); see docs/NETWORK.md
// for the schema and the workflow.

#include "telemetry/netmon.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/env.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/json.hpp"

namespace wss::telemetry {

int netflows_topk() {
  return static_cast<int>(env::parse_int("WSS_NETFLOWS_TOPK", 8, 1, 4096));
}

bool netflows_enabled() {
  return env::parse_int("WSS_NETFLOWS", 0, 0, 1) != 0;
}

std::string netflows_out() { return env::parse_string("WSS_NETFLOWS_OUT"); }

// --- building ------------------------------------------------------------

NetFlowsFile build_netflows(const NetMonitor& mon, const std::string& program,
                            const std::string& run_id,
                            std::uint64_t cycles_now,
                            std::uint64_t link_transfers_now,
                            std::uint64_t iterations,
                            const std::vector<NetFlowExpectation>& expectations,
                            int top_k) {
  NetFlowsFile f;
  f.schema = kNetFlowsSchema;
  f.program = program;
  f.run_id = run_id;
  f.width = mon.width();
  f.height = mon.height();
  f.cycles = cycles_now >= mon.attach_cycle()
                 ? cycles_now - mon.attach_cycle()
                 : 0;
  f.iterations = iterations;
  f.link_transfers = link_transfers_now >= mon.attach_transfers()
                         ? link_transfers_now - mon.attach_transfers()
                         : 0;
  f.flow_table = mon.flow_table();

  const int nflows = f.flow_table.flow_count();
  f.flows.resize(static_cast<std::size_t>(nflows));
  for (int i = 0; i < nflows; ++i) {
    f.flows[static_cast<std::size_t>(i)].flow = f.flow_table.flow_name(i);
  }
  for (const NetFlowExpectation& e : expectations) {
    for (NetFlowTotals& row : f.flows) {
      if (row.flow == e.flow) {
        row.expected_words_per_iteration = e.words_per_iteration;
        row.exact = e.exact;
      }
    }
  }

  // One serial row-major (y, x, dir) scan folds the counter planes into
  // the per-flow rollups and per-link totals — the same deterministic
  // order NetMonitor::collect uses, so ties break identically.
  std::vector<NetLinkStat> links;
  links.reserve(static_cast<std::size_t>(f.width) *
                static_cast<std::size_t>(f.height) * 4);
  for (int y = 0; y < f.height; ++y) {
    for (int x = 0; x < f.width; ++x) {
      for (int d = 0; d < 4; ++d) {
        const auto dir = static_cast<wse::Dir>(d);
        NetLinkStat ls;
        ls.x = x;
        ls.y = y;
        ls.dir = dir;
        ls.stall_cycles = mon.link_stall_cycles(x, y, dir);
        ls.peak_queue = mon.link_peak_queue(x, y, dir);
        for (int c = 0; c < wse::kNumColors; ++c) {
          const std::uint64_t w = mon.words_at(x, y, dir, c);
          const std::uint64_t b = mon.blocked_at(x, y, dir, c);
          ls.words += w;
          ls.blocked += b;
          const auto fi = static_cast<std::size_t>(
              f.flow_table.flow_at(dir, static_cast<wse::Color>(c)));
          NetFlowTotals& row = f.flows[fi];
          row.words += w;
          row.blocked += b;
          row.peak_queue =
              std::max(row.peak_queue, mon.peak_queue_at(x, y, dir, c));
        }
        if (ls.words > 0 || ls.stall_cycles > 0) links.push_back(ls);
      }
    }
  }

  // Bisection traffic: words crossing the vertical mid-cut (between
  // columns w/2-1 and w/2) and the horizontal mid-cut, both directions.
  const int xcut = f.width / 2;
  const int ycut = f.height / 2;
  if (xcut > 0) {
    for (int y = 0; y < f.height; ++y) {
      f.bisection_x_words += mon.link_words(xcut - 1, y, wse::Dir::East);
      f.bisection_x_words += mon.link_words(xcut, y, wse::Dir::West);
    }
  }
  if (ycut > 0) {
    for (int x = 0; x < f.width; ++x) {
      f.bisection_y_words += mon.link_words(x, ycut - 1, wse::Dir::South);
      f.bisection_y_words += mon.link_words(x, ycut, wse::Dir::North);
    }
  }

  // Top-k tables. stable_sort keeps the row-major scan order on ties, so
  // the tables are deterministic byte for byte.
  const std::size_t k =
      std::min<std::size_t>(links.size(),
                            top_k > 0 ? static_cast<std::size_t>(top_k) : 0);
  std::vector<NetLinkStat> by_words = links;
  std::stable_sort(by_words.begin(), by_words.end(),
                   [](const NetLinkStat& a, const NetLinkStat& b) {
                     return a.words > b.words;
                   });
  for (std::size_t i = 0; i < k && by_words[i].words > 0; ++i) {
    f.hot_links.push_back(by_words[i]);
  }
  std::vector<NetLinkStat> by_stall = links;
  std::stable_sort(by_stall.begin(), by_stall.end(),
                   [](const NetLinkStat& a, const NetLinkStat& b) {
                     return a.stall_cycles > b.stall_cycles;
                   });
  for (std::size_t i = 0; i < k && by_stall[i].stall_cycles > 0; ++i) {
    f.congested_links.push_back(by_stall[i]);
  }
  return f;
}

// --- the wss.netflows/1 field lists -------------------------------------

namespace {

/// Rebuild a table from its serialized names and map. declare() interns
/// in first-seen order, so re-declaring the names in order reproduces the
/// original indexing exactly, and bind() refuses a double-booked color.
bool rebuild_flow_table(const std::vector<std::string>& names,
                        const std::vector<std::vector<int>>& map,
                        wse::FlowTable* out) {
  if (names.empty() || names[0] != "control" || map.size() != 4) return false;
  wse::FlowTable t;
  for (const std::string& n : names) (void)t.declare(n);
  for (int d = 0; d < 4; ++d) {
    const std::vector<int>& row = map[static_cast<std::size_t>(d)];
    if (row.size() != static_cast<std::size_t>(wse::kNumColors)) return false;
    for (int c = 0; c < wse::kNumColors; ++c) {
      const int idx = row[static_cast<std::size_t>(c)];
      if (idx < 0 || idx >= static_cast<int>(names.size())) return false;
      if (idx == wse::kFlowControl) continue;
      if (!t.bind(static_cast<wse::Dir>(d), static_cast<wse::Color>(c),
                  names[static_cast<std::size_t>(idx)])) {
        return false;
      }
    }
  }
  *out = std::move(t);
  return true;
}

/// The flow table's fields: the declared names, then the total
/// (dir, color) -> flow-index map, one row of kNumColors ints per mesh
/// direction in N/S/E/W order.
void flow_table_fields(artifact::Io& io, wse::FlowTable& t) {
  std::vector<std::string> names;
  std::vector<std::vector<int>> map;
  if (!io.loading()) {
    names = t.flows();
    map.assign(4, std::vector<int>(wse::kNumColors));
    for (int d = 0; d < 4; ++d) {
      for (int c = 0; c < wse::kNumColors; ++c) {
        map[static_cast<std::size_t>(d)][static_cast<std::size_t>(c)] =
            t.flow_at(static_cast<wse::Dir>(d), static_cast<wse::Color>(c));
      }
    }
  }
  io.field("flows", names);
  io.field("map", map);
  if (io.loading() && !rebuild_flow_table(names, map, &t)) {
    io.fail("invalid flow table");
  }
}

} // namespace

void emit_flow_table(json::Writer& w, const wse::FlowTable& t) {
  wse::FlowTable copy = t;
  artifact::Io io(w);
  w.begin_object();
  flow_table_fields(io, copy);
  w.end_object();
}

bool parse_flow_table(const jsonparse::Value& v, wse::FlowTable* out) {
  if (!v.is_object()) return false;
  std::string error;
  artifact::Io io(v, &error);
  wse::FlowTable t;
  flow_table_fields(io, t);
  if (!error.empty()) return false;
  *out = std::move(t);
  return true;
}

void describe(artifact::Io& io, NetFlowTotals& row) {
  io.field("flow", row.flow);
  io.field("words", row.words);
  io.field("blocked", row.blocked);
  io.field("peak_queue", row.peak_queue);
  if (io.loading() || row.expected_words_per_iteration > 0.0) {
    io.field("expected_words_per_iteration",
             row.expected_words_per_iteration);
    io.field("exact", row.exact);
  }
}

void describe(artifact::Io& io, NetLinkStat& l) {
  io.field("x", l.x);
  io.field("y", l.y);
  io.field("dir", l.dir, wse::to_string, 4); // N/S/E/W: links only
  io.field("words", l.words);
  io.field("blocked", l.blocked);
  io.field("stall_cycles", l.stall_cycles);
  io.field("peak_queue", l.peak_queue);
}

void describe(artifact::Io& io, NetFlowsFile& f) {
  io.field("schema", f.schema);
  io.field("program", f.program);
  io.field("run_id", f.run_id);
  io.field("width", f.width);
  io.field("height", f.height);
  io.field("cycles", f.cycles);
  io.field("iterations", f.iterations);
  io.field("link_transfers", f.link_transfers);
  io.object("flow_table",
            [&](artifact::Io& t) { flow_table_fields(t, f.flow_table); });
  io.field("flows", f.flows);
  io.field("hot_links", f.hot_links);
  io.field("congested_links", f.congested_links);
  io.field("bisection_x_words", f.bisection_x_words);
  io.field("bisection_y_words", f.bisection_y_words);
}

std::string build_netflows_json(const NetFlowsFile& f) {
  return artifact::emit(f);
}

bool write_netflows(const std::string& path, const NetFlowsFile& f,
                    std::string* error) {
  return artifact::write(path, f, error);
}

bool load_netflows(const std::string& path, NetFlowsFile* out,
                   std::string* error) {
  return artifact::read(path, kNetFlowsSchema, out, error);
}

// --- self-check ----------------------------------------------------------

bool self_check_netflows(const NetFlowsFile& f, std::string* error) {
  using artifact::fail_with;
  if (!artifact::check_schema(f.schema, kNetFlowsSchema, error)) {
    return false;
  }
  if (f.width <= 0 || f.height <= 0) {
    return fail_with(error, "non-positive fabric dimensions");
  }
  const int nflows = f.flow_table.flow_count();
  if (static_cast<int>(f.flows.size()) != nflows) {
    return fail_with(error, "flow rollup count (" +
                                std::to_string(f.flows.size()) +
                                ") disagrees with the flow table (" +
                                std::to_string(nflows) + ")");
  }
  std::uint64_t total = 0;
  for (int i = 0; i < nflows; ++i) {
    const NetFlowTotals& row = f.flows[static_cast<std::size_t>(i)];
    if (row.flow != f.flow_table.flow_name(i)) {
      return fail_with(error, "flow row " + std::to_string(i) + " named '" +
                       row.flow + "', flow table says '" +
                       f.flow_table.flow_name(i) + "'");
    }
    total += row.words;
  }
  // The conservation gate: the flow map is total, a traversal increments
  // exactly one (link, color) cell, and dropped flits increment neither
  // side — so the rollup must reproduce the fabric's transfer count
  // *exactly*, fault runs included.
  if (total != f.link_transfers) {
    return fail_with(error, "flow words not conserved: sum over flows is " +
                     std::to_string(total) + ", fabric counted " +
                     std::to_string(f.link_transfers) + " link transfers");
  }
  for (const NetLinkStat& l : f.hot_links) {
    if (l.x < 0 || l.x >= f.width || l.y < 0 || l.y >= f.height) {
      return fail_with(error, "hot link outside the fabric");
    }
  }
  for (const NetLinkStat& l : f.congested_links) {
    if (l.x < 0 || l.x >= f.width || l.y < 0 || l.y >= f.height) {
      return fail_with(error, "congested link outside the fabric");
    }
    if (l.stall_cycles > f.cycles && f.cycles > 0) {
      return fail_with(error,
                       "congested link stalled longer than the observation");
    }
  }
  return true;
}

// --- diffing -------------------------------------------------------------

std::string summarize_flow(const NetFlowTotals& f) {
  std::ostringstream out;
  out << f.flow << " words=" << f.words << " blocked=" << f.blocked
      << " peak=" << f.peak_queue;
  if (f.expected_words_per_iteration > 0.0) {
    out << " expect=" << json::number(f.expected_words_per_iteration)
        << "/it" << (f.exact ? " exact" : "");
  }
  return out.str();
}

Divergence first_divergence(const NetFlowsFile& a, const NetFlowsFile& b) {
  Divergence d = first_divergence_in("flow", "per-flow rollups", a.flows,
                                     b.flows, summarize_flow);
  d.note = program_mismatch(a.program, b.program);
  if (d.note.empty() && (a.width != b.width || a.height != b.height)) {
    d.note = "warning: fabric mismatch (" + std::to_string(a.width) + "x" +
             std::to_string(a.height) + " vs " + std::to_string(b.width) +
             "x" + std::to_string(b.height) + ")";
  }
  return d;
}

// --- rendering -----------------------------------------------------------

namespace {

std::string link_label(const NetLinkStat& l) {
  std::ostringstream out;
  out << "(" << l.x << "," << l.y << ")->" << wse::to_string(l.dir);
  return out.str();
}

} // namespace

std::string pretty_netflows(const NetFlowsFile& f) {
  std::ostringstream out;
  out << "network flows (" << f.schema << ")\n";
  if (!f.program.empty()) out << "  program: " << f.program << "\n";
  if (!f.run_id.empty()) out << "  run:     " << f.run_id << "\n";
  out << "  fabric:  " << f.width << "x" << f.height << ", " << f.cycles
      << " cycles observed";
  if (f.iterations > 0) out << ", " << f.iterations << " iterations";
  out << "\n";
  out << "  words:   " << f.link_transfers
      << " link transfers, bisection x/y " << f.bisection_x_words << "/"
      << f.bisection_y_words << "\n";
  out << "\nper-flow rollup:\n";
  for (const NetFlowTotals& row : f.flows) {
    out << "  " << summarize_flow(row);
    if (row.expected_words_per_iteration > 0.0 && f.iterations > 0) {
      const double measured = static_cast<double>(row.words) /
                              static_cast<double>(f.iterations);
      out << " measured=" << json::number(measured) << "/it";
    }
    out << "\n";
  }
  if (!f.hot_links.empty()) {
    out << "\nhottest links (by words):\n";
    for (const NetLinkStat& l : f.hot_links) {
      out << "  " << link_label(l) << " words=" << l.words
          << " stall=" << l.stall_cycles << " peak=" << l.peak_queue << "\n";
    }
  }
  if (!f.congested_links.empty()) {
    out << "\ncongested links (by stall-attributed cycles):\n";
    for (const NetLinkStat& l : f.congested_links) {
      out << "  " << link_label(l) << " stall=" << l.stall_cycles
          << " blocked=" << l.blocked << " words=" << l.words << "\n";
    }
  }
  return out.str();
}

std::string pretty_net_pane(const TimeSeries& ts) {
  bool any_net = false;
  for (const TimeSeriesFrame& f : ts.frames) any_net |= f.has_net;
  if (!any_net) return {};
  constexpr std::size_t kSparkWidth = 60;
  std::ostringstream out;
  out << "network (" << ts.net_flows.size() << " declared flows)\n";

  // Per-direction link utilization: windowed words per cycle.
  static constexpr const char* kDirLabel[4] = {"north", "south", "east",
                                              "west"};
  for (int d = 0; d < 4; ++d) {
    std::vector<double> vs;
    vs.reserve(ts.frames.size());
    double maxv = 0.0;
    for (const TimeSeriesFrame& f : ts.frames) {
      const double v =
          f.has_net && f.window_cycles > 0
              ? static_cast<double>(
                    f.net_dir_words[static_cast<std::size_t>(d)]) /
                    static_cast<double>(f.window_cycles)
              : 0.0;
      vs.push_back(v);
      maxv = std::max(maxv, v);
    }
    if (maxv <= 0.0) continue;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%-6s", kDirLabel[d]);
    out << "  " << buf << "|" << sparkline(vs, kSparkWidth) << "| max "
        << json::number(maxv) << " words/cycle\n";
  }

  // Per-flow totals (frames carry windowed deltas; sum them back up).
  std::vector<std::uint64_t> words(ts.net_flows.size(), 0);
  std::vector<std::uint64_t> blocked(ts.net_flows.size(), 0);
  for (const TimeSeriesFrame& f : ts.frames) {
    if (!f.has_net) continue;
    for (std::size_t i = 0; i < words.size() && i < f.flow_words.size();
         ++i) {
      words[i] += f.flow_words[i];
    }
    for (std::size_t i = 0; i < blocked.size() && i < f.flow_blocked.size();
         ++i) {
      blocked[i] += f.flow_blocked[i];
    }
  }
  if (!ts.net_flows.empty()) {
    out << "  flows:\n";
    for (std::size_t i = 0; i < ts.net_flows.size(); ++i) {
      out << "    " << ts.net_flows[i] << " words=" << words[i];
      if (blocked[i] > 0) out << " blocked=" << blocked[i];
      out << "\n";
    }
  }

  // Hotspot gauges from the last net-bearing frame (they are cumulative).
  for (std::size_t i = ts.frames.size(); i-- > 0;) {
    const TimeSeriesFrame& f = ts.frames[i];
    if (!f.has_net) continue;
    if (f.net_hot_words > 0) {
      out << "  hot link: (" << f.net_hot_x << "," << f.net_hot_y << ")->"
          << wse::to_string(static_cast<wse::Dir>(f.net_hot_dir))
          << " words=" << f.net_hot_words << "\n";
    }
    if (f.net_stall_cycles > 0) {
      out << "  most stalled: (" << f.net_stall_x << "," << f.net_stall_y
          << ")->" << wse::to_string(static_cast<wse::Dir>(f.net_stall_dir))
          << " stall=" << f.net_stall_cycles << " cycles, peak queue "
          << f.net_peak_queue << " halfwords\n";
    }
    break;
  }
  return out.str();
}

} // namespace wss::telemetry
