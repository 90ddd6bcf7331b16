// Post-mortem forensics: wait-for graph construction, the bundle snapshot
// and its field lists (telemetry/artifact.hpp), pretty-printing and run
// diffing. See postmortem.hpp and docs/POSTMORTEM.md for the schema and
// the investigation workflow.

#include "telemetry/postmortem.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/env.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/global.hpp"
#include "telemetry/health.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/io.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/profiler.hpp"
#include "wse/fabric.hpp"

namespace wss::telemetry {

const char* to_string(AnomalyInfo::Kind kind) {
  switch (kind) {
    case AnomalyInfo::Kind::Deadlock: return "deadlock";
    case AnomalyInfo::Kind::NanScalar: return "nan_scalar";
    case AnomalyInfo::Kind::Breakdown: return "breakdown";
    case AnomalyInfo::Kind::FaultStorm: return "fault_storm";
    case AnomalyInfo::Kind::Manual: return "manual";
    case AnomalyInfo::Kind::Health: return "health";
  }
  return "?";
}

namespace {

[[nodiscard]] bool known_anomaly_kind(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(AnomalyInfo::Kind::Health); ++k) {
    if (name == to_string(static_cast<AnomalyInfo::Kind>(k))) return true;
  }
  return false;
}

[[nodiscard]] std::string tile_name(int x, int y) {
  std::string out = "(";
  out += std::to_string(x);
  out += ',';
  out += std::to_string(y);
  out += ')';
  return out;
}

} // namespace

// --- wait-for graph -----------------------------------------------------

namespace {

struct EdgeKey {
  int from_x, from_y, to_x, to_y, color;
  [[nodiscard]] bool operator<(const EdgeKey& o) const {
    return std::tie(from_x, from_y, to_x, to_y, color) <
           std::tie(o.from_x, o.from_y, o.to_x, o.to_y, o.color);
  }
};

/// DFS cycle extraction over the blocked-tile subgraph. Nodes are packed
/// (x, y); adjacency carries the awaited color for naming.
struct CycleFinder {
  static constexpr std::size_t kMaxCycles = 16;

  std::map<std::pair<int, int>, std::vector<std::pair<std::pair<int, int>, int>>>
      adj; ///< node -> [(successor, color)]
  std::set<std::pair<int, int>> done_nodes;
  std::set<std::vector<std::pair<int, int>>> seen; ///< canonical tile loops
  std::vector<WaitForCycle> cycles;

  void emit(const std::vector<std::pair<int, int>>& path,
            const std::vector<int>& colors, std::size_t start) {
    // Rotate the loop so the smallest (y, x) tile leads — a canonical form
    // that dedupes the same loop discovered from different entry points.
    std::vector<std::pair<int, int>> loop(path.begin() +
                                              static_cast<std::ptrdiff_t>(start),
                                          path.end());
    std::vector<int> loop_colors(colors.begin() +
                                     static_cast<std::ptrdiff_t>(start),
                                 colors.end());
    std::size_t best = 0;
    for (std::size_t i = 1; i < loop.size(); ++i) {
      if (std::make_pair(loop[i].second, loop[i].first) <
          std::make_pair(loop[best].second, loop[best].first)) {
        best = i;
      }
    }
    std::rotate(loop.begin(), loop.begin() + static_cast<std::ptrdiff_t>(best),
                loop.end());
    std::rotate(loop_colors.begin(),
                loop_colors.begin() + static_cast<std::ptrdiff_t>(best),
                loop_colors.end());
    if (!seen.insert(loop).second) return;
    if (cycles.size() >= kMaxCycles) return;

    WaitForCycle c;
    c.tiles = loop;
    std::string name;
    for (std::size_t i = 0; i < loop.size(); ++i) {
      name += tile_name(loop[i].first, loop[i].second);
      const int color = loop_colors[i];
      name += color >= 0 ? " --c" + std::to_string(color) + "--> "
                         : " --fifo--> ";
    }
    name += tile_name(loop[0].first, loop[0].second);
    c.name = std::move(name);
    cycles.push_back(std::move(c));
  }

  void dfs(std::pair<int, int> root) {
    // Iterative DFS with an explicit path stack; `on_path` gives O(log n)
    // back-edge detection.
    struct Frame {
      std::pair<int, int> node;
      std::size_t next_edge = 0;
    };
    std::vector<Frame> stack;
    std::vector<std::pair<int, int>> path;
    std::vector<int> path_colors; ///< color of edge leaving path[i]
    std::map<std::pair<int, int>, std::size_t> on_path;

    stack.push_back({root, 0});
    path.push_back(root);
    path_colors.push_back(-1);
    on_path[root] = 0;

    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto it = adj.find(f.node);
      if (it == adj.end() || f.next_edge >= it->second.size()) {
        done_nodes.insert(f.node);
        on_path.erase(f.node);
        path.pop_back();
        path_colors.pop_back();
        stack.pop_back();
        continue;
      }
      const auto [succ, color] = it->second[f.next_edge++];
      path_colors.back() = color;
      const auto hit = on_path.find(succ);
      if (hit != on_path.end()) {
        emit(path, path_colors, hit->second);
        continue;
      }
      if (done_nodes.count(succ) != 0) continue;
      stack.push_back({succ, 0});
      path.push_back(succ);
      path_colors.push_back(-1);
      on_path[succ] = path.size() - 1;
    }
  }
};

} // namespace

WaitForGraph build_wait_for_graph(const wse::Fabric& fabric) {
  using wse::Color;
  using wse::Dir;
  using wse::kMeshDirs;
  using wse::kNumColors;

  WaitForGraph g;
  const auto blocked = fabric.blocked_tiles();
  const int width = fabric.width();
  const int height = fabric.height();
  const auto in_bounds = [&](int x, int y) {
    return x >= 0 && x < width && y >= 0 && y < height;
  };
  const int queue_depth = fabric.sim_params().router_queue_depth;

  std::set<EdgeKey> edge_keys;
  const auto add_edge = [&](const WaitForEdge& e) {
    const EdgeKey key{e.from_x, e.from_y, e.to_x, e.to_y, e.color};
    if (edge_keys.insert(key).second) g.edges.push_back(e);
  };

  for (const auto& [x, y] : blocked) {
    if (!fabric.has_core(x, y)) continue;
    const wse::TileCore& core = fabric.core(x, y);

    // Report row for this tile.
    WaitForGraph::TileState st;
    st.x = x;
    st.y = y;
    const wse::TaskId task = core.current_task();
    const std::vector<wse::Task>& tasks = core.code().program.tasks;
    st.task = (task >= 0 && static_cast<std::size_t>(task) < tasks.size())
                  ? tasks[static_cast<std::size_t>(task)].name
                  : "-";
    st.state = core.debug_state();
    g.blocked.push_back(std::move(st));

    const wse::RouterState& router = fabric.router_state(x, y);
    for (const wse::CoreWait& w : core.waits()) {
      switch (w.kind) {
        case wse::CoreWait::Kind::RecvChannel: {
          // A dry ramp channel: the tile waits on every upstream neighbor
          // whose routing rules can still forward a color that this tile's
          // rules deliver to the channel.
          for (int ci = 0; ci < kNumColors; ++ci) {
            const auto c = static_cast<Color>(ci);
            const wse::RouteRule& rule = router.table.rule(c);
            const bool delivers =
                std::find(rule.deliver_channels.begin(),
                          rule.deliver_channels.end(),
                          w.id) != rule.deliver_channels.end();
            if (!delivers) continue;
            for (const Dir d : kMeshDirs) {
              const auto [dx, dy] = wse::step(d);
              const int ux = x + dx;
              const int uy = y + dy;
              if (!in_bounds(ux, uy) || !fabric.has_core(ux, uy)) continue;
              const wse::RouterState& up = fabric.router_state(ux, uy);
              if (!up.table.rule(c).forwards_to(wse::opposite(d))) continue;
              add_edge({x, y, ux, uy, ci,
                        "recv ch" + std::to_string(w.id) + " starved: awaits c" +
                            std::to_string(ci) + " from " + tile_name(ux, uy)});
            }
            // The tile's own injections can loop back via the ramp (the
            // SpMV iterate loopback); represent that as a self-edge so a
            // wedged self-feeding tile is visibly its own suspect.
            if (rule.forward_mask == 0 && !rule.deliver_channels.empty()) {
              // delivery-only rule: the color originates locally or
              // upstream; upstream case handled above, local = self.
              bool upstream_source = false;
              for (const Dir d : kMeshDirs) {
                const auto [dx, dy] = wse::step(d);
                const int ux = x + dx;
                const int uy = y + dy;
                if (in_bounds(ux, uy) && fabric.has_core(ux, uy) &&
                    fabric.router_state(ux, uy).table.rule(c).forwards_to(
                        wse::opposite(d))) {
                  upstream_source = true;
                  break;
                }
              }
              if (!upstream_source) {
                add_edge({x, y, x, y, ci,
                          "recv ch" + std::to_string(w.id) +
                              " starved: c" + std::to_string(ci) +
                              " only self-injected"});
              }
            }
          }
          break;
        }
        case wse::CoreWait::Kind::SendColor: {
          // Injection blocked: the full output queues point at the
          // downstream tiles that are not draining.
          const auto c = static_cast<Color>(w.id);
          const wse::RouteRule& rule = router.table.rule(c);
          for (const Dir d : kMeshDirs) {
            if (!rule.forwards_to(d)) continue;
            const auto& q =
                router.out_queues[static_cast<std::size_t>(d)]
                                 [static_cast<std::size_t>(w.id)];
            if (static_cast<int>(q.size()) < queue_depth) continue;
            const auto [dx, dy] = wse::step(d);
            const int tx = x + dx;
            const int ty = y + dy;
            if (!in_bounds(tx, ty)) continue;
            add_edge({x, y, tx, ty, w.id,
                      "send c" + std::to_string(w.id) + " blocked: " +
                          wse::to_string(d) + " queue full toward " +
                          tile_name(tx, ty)});
          }
          break;
        }
        case wse::CoreWait::Kind::FifoFull: {
          // A full software FIFO waits on this tile's own drain task.
          add_edge({x, y, x, y, -1,
                    "fifo " + std::to_string(w.id) +
                        " full: awaits local drain task"});
          break;
        }
      }
    }
  }

  // Terminals: blocked tiles with no outgoing edge — where stall chains
  // drain to (e.g. a dead tile that stopped consuming).
  std::set<std::pair<int, int>> has_out;
  for (const WaitForEdge& e : g.edges) has_out.insert({e.from_x, e.from_y});
  for (const auto& t : blocked) {
    if (has_out.count(t) == 0) g.terminals.push_back(t);
  }

  // Deadlock loops.
  CycleFinder finder;
  for (const WaitForEdge& e : g.edges) {
    finder.adj[{e.from_x, e.from_y}].push_back({{e.to_x, e.to_y}, e.color});
  }
  for (const auto& [node, _] : finder.adj) {
    if (finder.done_nodes.count(node) == 0) finder.dfs(node);
  }
  g.cycles = std::move(finder.cycles);
  return g;
}

// --- the wss.postmortem/1 field lists -----------------------------------

void describe(artifact::Io& io, WaitForEdge& e) {
  io.field("from", std::tie(e.from_x, e.from_y));
  io.field("to", std::tie(e.to_x, e.to_y));
  io.field("color", e.color);
  io.field("why", e.why);
}

void describe(artifact::Io& io, WaitForGraph::TileState& t) {
  io.field("x", t.x);
  io.field("y", t.y);
  io.field("task", t.task);
  io.field("state", t.state);
}

void describe(artifact::Io& io, BundleEvent& e) {
  io.field("cycle", e.cycle);
  io.field("kind", e.kind);
  io.field("a", e.a);
  io.field("b", e.b);
  io.field("c", e.c);
  io.field("d", e.d);
}

void describe(artifact::Io& io, BundleTile& t) {
  io.field("x", t.x);
  io.field("y", t.y);
  io.field("total", t.total);
  io.field("dropped", t.dropped);
  io.field("events", t.events);
}

void describe(artifact::Io& io, Heatmap& h) {
  io.field("name", h.name);
  io.field("width", h.width);
  io.field("height", h.height);
  io.field("cells", h.cells);
}

void describe(artifact::Io& io, BundleFault& f) {
  io.field("cycle", f.cycle);
  io.field("x", f.x);
  io.field("y", f.y);
  io.field("dir", f.dir, wse::to_string, wse::kNumDirs); // Ramp: not a link
  io.field("kind", f.kind);
}

void describe(artifact::Io& io, Bundle& b) {
  io.field("schema", b.schema);
  io.object("anomaly", [&](artifact::Io& a) {
    a.field("kind", b.anomaly_kind);
    a.field("cycle", b.anomaly_cycle);
    a.field("detail", b.anomaly_detail);
  });
  io.field("program", b.program);
  io.object("fabric", b.has_fabric, [&](artifact::Io& f) {
    f.field("width", b.width);
    f.field("height", b.height);
    f.field("cycles", b.cycles);
    f.field("link_transfers", b.link_transfers);
    f.field("threads", b.threads);
  });
  io.object("stop", b.has_stop, [&](artifact::Io& s) {
    s.field("reason", b.stop_reason);
    s.field("cycles", b.stop_cycles);
    s.field("deadlock", b.deadlock);
    s.field("stalled_cycles", b.stalled_cycles);
    s.field("blocked_tiles", b.blocked_tiles);
    s.field("report", b.stop_report);
  });
  // The wait-for graph, heatmaps and fault summary are read off the
  // fabric, so they share the fabric block's presence.
  if (b.has_fabric) {
    io.object("wait_for", [&](artifact::Io& w) {
      w.field("edges", b.wait_edges);
      w.field("cycles", b.wait_cycles);
      w.field("terminals", b.wait_terminals);
      w.field("blocked", b.wait_blocked);
    });
  }
  io.object("flight", b.has_flight, [&](artifact::Io& f) {
    f.field("depth", b.flight_depth);
    f.field("tiles", b.tiles);
  });
  if (b.has_fabric) io.field("heatmaps", b.heatmaps);
  io.raw("profiler", b.profiler_json);
  if (io.present(b.has_scalars, "scalars")) {
    io.field("scalars", b.scalars);
    io.field("scalars_dropped", b.scalars_dropped);
  }
  io.object("timeseries", b.has_timeseries, [&](artifact::Io& t) {
    t.field("sample_cycles", b.ts_sample_cycles);
    t.field("frames_total", b.ts_frames_total);
    t.field("frames", b.ts_frames);
  });
  if (b.has_fabric) {
    io.object("faults", [&](artifact::Io& f) {
      f.field("total", b.fault_total);
      f.field("wavelets_dropped", b.fault_stats.wavelets_dropped);
      f.field("wavelets_corrupted", b.fault_stats.wavelets_corrupted);
      f.field("router_stall_cycles", b.fault_stats.router_stall_cycles);
      f.field("dead_tile_cycles", b.fault_stats.dead_tile_cycles);
      f.field("log_dropped", b.fault_log_dropped);
      f.field("log", b.fault_log);
    });
  }
}

Bundle snapshot_bundle(const AnomalyInfo& anomaly, const PostmortemInputs& in) {
  Bundle b;
  b.schema = kPostmortemSchema;
  b.anomaly_kind = to_string(anomaly.kind);
  b.anomaly_cycle = anomaly.cycle;
  b.anomaly_detail = anomaly.detail;
  b.program = in.program;

  if (in.fabric != nullptr) {
    const wse::Fabric& f = *in.fabric;
    b.has_fabric = true;
    b.width = f.width();
    b.height = f.height();
    b.cycles = f.stats().cycles;
    b.link_transfers = f.stats().link_transfers;
    b.threads = f.threads();

    WaitForGraph g = build_wait_for_graph(f);
    b.wait_edges = std::move(g.edges);
    for (const WaitForCycle& c : g.cycles) b.wait_cycles.push_back(c.name);
    b.wait_terminals = std::move(g.terminals);
    b.wait_blocked = std::move(g.blocked);

    const FabricHeatmaps maps = collect_heatmaps(f);
    for (const Heatmap* h : maps.all()) b.heatmaps.push_back(*h);
    if (in.profiler != nullptr) {
      for (Heatmap& h : profiler_heatmaps(*in.profiler)) {
        b.heatmaps.push_back(std::move(h));
      }
    }

    b.fault_stats = f.fault_stats();
    b.fault_total = b.fault_stats.total();
    b.fault_log_dropped = f.fault_log_dropped();
    for (const wse::FaultEvent& ev : f.fault_log()) {
      b.fault_log.push_back({ev.cycle, ev.x, ev.y, ev.dir, ev.kind});
    }
  }

  if (in.stop != nullptr) {
    const wse::StopInfo& s = *in.stop;
    b.has_stop = true;
    b.stop_reason = wse::StopInfo::to_string(s.reason);
    b.stop_cycles = s.cycles;
    b.deadlock = s.deadlock;
    b.stalled_cycles = s.stalled_cycles;
    b.blocked_tiles = s.blocked_tiles;
    b.stop_report = s.report;
  }

  if (in.recorder != nullptr) {
    const FlightRecorder& rec = *in.recorder;
    b.has_flight = true;
    b.flight_depth = rec.depth();
    for (int y = 0; y < rec.height(); ++y) {
      for (int x = 0; x < rec.width(); ++x) {
        if (rec.total_events(x, y) == 0) continue;
        BundleTile& t = b.tiles.emplace_back();
        t.x = x;
        t.y = y;
        t.total = rec.total_events(x, y);
        t.dropped = rec.dropped_events(x, y);
        for (const FlightEvent& ev : rec.events(x, y)) {
          t.events.push_back(
              {ev.cycle, to_string(ev.kind), ev.a, ev.b, ev.c, ev.d});
        }
      }
    }
  }

  if (in.profiler != nullptr) b.profiler_json = in.profiler->to_json();

  if (in.scalars != nullptr) {
    b.has_scalars = true;
    b.scalars = in.scalars->samples();
    b.scalars_dropped = in.scalars->dropped();
  }

  if (in.timeseries != nullptr) {
    // The lead-up trajectory: the last frames of the active time series.
    // The full series lives in its own artifact (docs/TIMESERIES.md).
    const TimeSeriesSampler& ts = *in.timeseries;
    b.has_timeseries = true;
    b.ts_sample_cycles = ts.interval();
    b.ts_frames_total = ts.frames().size() + ts.frames_dropped();
    const std::size_t n = ts.frames().size();
    const std::size_t start =
        n > kPostmortemTimeseriesTail ? n - kPostmortemTimeseriesTail : 0;
    b.ts_frames.assign(ts.frames().begin() + static_cast<std::ptrdiff_t>(start),
                       ts.frames().end());
  }
  return b;
}

bool write_postmortem(const std::string& dir, const AnomalyInfo& anomaly,
                      const PostmortemInputs& in, std::string* path_out,
                      std::string* error) {
  if (!ensure_directory(dir, error)) return false;
  const std::string stem =
      claim_output_stem(dir + "/postmortem_" + to_string(anomaly.kind));
  const std::string path = stem + ".json";
  if (!artifact::write(path, snapshot_bundle(anomaly, in), error)) {
    return false;
  }
  if (path_out != nullptr) *path_out = path;
  return true;
}

std::string postmortem_dir() { return env::parse_string("WSS_POSTMORTEM_DIR"); }

std::string maybe_write_postmortem(const AnomalyInfo& anomaly,
                                   const PostmortemInputs& in) {
  const std::string dir = postmortem_dir();
  if (dir.empty()) return {};
  std::string path;
  std::string error;
  if (!write_postmortem(dir, anomaly, in, &path, &error)) {
    std::fprintf(stderr, "wss: post-mortem bundle write failed: %s\n",
                 error.c_str());
    return {};
  }
  std::fprintf(stderr, "wss: post-mortem bundle written: %s\n", path.c_str());
  return path;
}

std::uint64_t fault_storm_threshold() {
  return env::parse_u64("WSS_FAULT_STORM", 0);
}

std::size_t flightrec_depth() {
  return static_cast<std::size_t>(env::parse_int(
      "WSS_FLIGHTREC_DEPTH",
      static_cast<long long>(FlightRecorder::kDefaultDepth), 1,
      static_cast<long long>(FlightRecorder::kMaxDepth)));
}

// --- env-driven forensic attachment -------------------------------------

namespace {

/// `path` without its ".json" extension.
[[nodiscard]] std::string json_stem(const std::string& path) {
  constexpr std::string_view kExt = ".json";
  return path.size() > kExt.size() && path.ends_with(kExt)
             ? path.substr(0, path.size() - kExt.size())
             : path;
}

/// Where a run artifact goes: `path` (its WSS_*_OUT knob) or else
/// `<ledger_dir>/<run_id><suffix>`, "" when neither is configured. The
/// stem is claimed, so two fabrics flushing the same path in one process
/// get disjoint files instead of clobbering.
[[nodiscard]] std::string run_artifact_path(std::string path,
                                            const std::string& run_id,
                                            const char* suffix) {
  if (path.empty() && !ledger_dir().empty() && !run_id.empty()) {
    path = ledger_dir() + "/" + run_id + suffix;
  }
  return path.empty() ? path : claim_output_stem(json_stem(path)) + ".json";
}

/// Write `art` to `path` and return the path; "" (with a warning on
/// stderr) on failure — forensics must not fail a finished run.
template <class T>
std::string write_or_warn(const std::string& path, const T& art,
                          const char* what) {
  std::string error;
  if (artifact::write(path, art, &error)) return path;
  std::fprintf(stderr, "wss: %s write failed: %s\n", what, error.c_str());
  return {};
}

} // namespace

RunForensics::RunForensics(wse::Fabric& fabric, std::string program)
    : fabric_(fabric), program_(std::move(program)) {
  if (fabric_.flight_recorder() == nullptr && !postmortem_dir().empty()) {
    owned_ = std::make_unique<FlightRecorder>(
        fabric_.width(), fabric_.height(), flightrec_depth());
    fabric_.set_flight_recorder(owned_.get());
    attached_ = true;
  }
  const std::uint64_t interval = sample_cycles();
  if (fabric_.sampler() == nullptr && interval > 0) {
    owned_sampler_ = std::make_unique<TimeSeriesSampler>(interval);
    owned_sampler_->set_program(program_);
    fabric_.set_sampler(owned_sampler_.get());
    sampler_attached_ = true;
  }
  if (!ledger_dir().empty() || fabric_.sampler() != nullptr) {
    run_id_ = next_run_id(program_);
  }
}

RunForensics::~RunForensics() {
  if (attached_) fabric_.set_flight_recorder(nullptr);
  if (sampler_attached_) fabric_.set_sampler(nullptr);
  if (netmon_attached_) fabric_.set_net_monitor(nullptr);
}

FlightRecorder* RunForensics::recorder() const {
  return fabric_.flight_recorder();
}

TimeSeriesSampler* RunForensics::sampler() const { return fabric_.sampler(); }

NetMonitor* RunForensics::net_monitor() const { return fabric_.net_monitor(); }

void RunForensics::set_net_flows(wse::FlowTable table,
                                 std::vector<NetFlowExpectation> expectations) {
  if (!netflows_enabled() || fabric_.net_monitor() != nullptr) return;
  owned_netmon_ = std::make_unique<NetMonitor>();
  // Flow table first: set_net_monitor snapshots the declared names into
  // any attached sampler at attach time.
  owned_netmon_->set_flow_table(std::move(table));
  fabric_.set_net_monitor(owned_netmon_.get());
  netmon_attached_ = true;
  net_expectations_ = std::move(expectations);
  if (TimeSeriesSampler* ts = fabric_.sampler(); ts != nullptr) {
    ts->set_net_expectations(net_expectations_);
  }
}

void RunForensics::finalize(const std::string& outcome, bool deadlock,
                            const std::string& postmortem_path) {
  if (finalized_) return; // one artifact set + ledger line per run
  finalized_ = true;

  // Close the final (possibly partial) sampling window so the summed
  // per-window deltas equal the end-of-run totals exactly.
  fabric_.sample_now();

  TimeSeriesSampler* ts = fabric_.sampler();
  TimeSeries series; // what the series artifact and the health engine read
  std::string ts_path;
  if (ts != nullptr) {
    series = snapshot_timeseries(*ts, scalars_);
    ts_path = run_artifact_path(timeseries_out(), run_id_, ".timeseries.json");
    if (!ts_path.empty()) {
      ts_path = write_or_warn(ts_path, series, "time-series");
    }
  }

  // Health engine (docs/HEALTH.md): evaluate the rule catalog over the
  // recorded frames + scalars. Evaluation reads what the sampler already
  // holds — no fabric hooks — so turning it off changes nothing about the
  // run itself, and the alert stream is bit-identical wherever the frame
  // stream is.
  std::vector<HealthAlert> alerts;
  std::string alerts_path;
  std::string health_bundle_path;
  if (ts != nullptr && health_enabled()) {
    const HealthConfig cfg = health_config();
    alerts = evaluate_health(series, cfg);
    if (!alerts.empty()) {
      global_registry().counter("health.alerts").add(alerts.size());
      if (any_critical(alerts)) {
        global_registry().counter("health.alerts.critical").add(1);
      }
      if (!ts_path.empty()) {
        // The alerts artifact rides next to the series it was computed
        // from; ts_path is already claimed, so the stem is process-unique.
        AlertsFile af;
        af.schema = kAlertsSchema;
        af.program = program_;
        af.run_id = run_id_;
        af.tol_pct = cfg.tol_pct;
        af.alerts = alerts;
        alerts_path =
            write_or_warn(json_stem(ts_path) + ".alerts.json", af, "alerts");
      }
      // Critical alerts auto-capture a postmortem bundle through the
      // existing path; the anomaly detail names the rule and the alerts
      // artifact so the bundle points back at what fired.
      const HealthAlert* crit = nullptr;
      for (const HealthAlert& a : alerts) {
        if (a.severity == AlertSeverity::Critical) {
          crit = &a;
          break;
        }
      }
      if (crit != nullptr) {
        AnomalyInfo anomaly;
        anomaly.kind = AnomalyInfo::Kind::Health;
        anomaly.cycle =
            crit->last_cycle != 0 ? crit->last_cycle : fabric_.stats().cycles;
        anomaly.detail = summarize_alert(*crit);
        if (!alerts_path.empty()) {
          anomaly.detail += " (alerts: " + alerts_path + ")";
        }
        PostmortemInputs in;
        in.fabric = &fabric_;
        in.recorder = fabric_.flight_recorder();
        in.profiler = fabric_.profiler();
        in.scalars = scalars_;
        in.timeseries = ts;
        in.program = program_;
        health_bundle_path = maybe_write_postmortem(anomaly, in);
      }
    }
  }

  // Network observatory (docs/NETWORK.md): roll the monitor's counter
  // planes up into the `wss.netflows/1` artifact. Like the series, it is
  // pure analysis over already-recorded state.
  NetFlowsFile netflows;
  std::string netflows_path;
  NetMonitor* mon = fabric_.net_monitor();
  if (mon != nullptr && mon->attached_once()) {
    std::uint64_t iterations = 0;
    if (ts != nullptr && !ts->frames().empty()) {
      iterations = ts->frames().back().max_iteration;
    }
    netflows = build_netflows(*mon, program_, run_id_, fabric_.stats().cycles,
                              fabric_.stats().link_transfers, iterations,
                              net_expectations_, netflows_topk());
    // Word totals also land in the process-wide registry so bench reports
    // (and through them the benchhistory regression gate) carry per-flow
    // traffic without touching the artifact.
    for (const NetFlowTotals& f : netflows.flows) {
      global_registry().counter("netflow." + f.flow + ".words").add(f.words);
    }
    netflows_path =
        run_artifact_path(netflows_out(), run_id_, ".netflows.json");
    if (!netflows_path.empty()) {
      netflows_path = write_or_warn(netflows_path, netflows, "netflows");
    }
  }

  if (ledger_dir().empty()) return;
  RunManifest m;
  m.run_id = run_id_.empty() ? next_run_id(program_) : run_id_;
  m.program = program_;
  m.width = fabric_.width();
  m.height = fabric_.height();
  m.threads = fabric_.threads();
  m.cycles = fabric_.stats().cycles;
  m.outcome = outcome;
  m.deadlock = deadlock;
  m.fault_total = fabric_.fault_stats().total();
  m.env = wss_environment();
  m.add_metric("cycles", static_cast<double>(fabric_.stats().cycles));
  m.add_metric("link_transfers",
               static_cast<double>(fabric_.stats().link_transfers));
  if (m.fault_total > 0) {
    m.add_metric("fault_total", static_cast<double>(m.fault_total));
  }
  if (ts != nullptr) {
    m.add_metric("timeseries_frames",
                 static_cast<double>(ts->frames().size()));
  }
  if (!alerts.empty()) {
    m.add_metric("alerts", static_cast<double>(alerts.size()));
    for (const HealthAlert& a : alerts) {
      m.add_alert(a.rule, to_string(a.severity), a.last_cycle);
    }
  }
  // Per-flow word totals ride as metrics so `runs trend netflow.<flow>.words`
  // and the bench-history regression gate can track traffic run over run.
  for (const NetFlowTotals& f : netflows.flows) {
    m.add_metric("netflow." + f.flow + ".words",
                 static_cast<double>(f.words));
  }
  if (!ts_path.empty()) m.add_artifact("timeseries", ts_path);
  if (!alerts_path.empty()) m.add_artifact("alerts", alerts_path);
  if (!netflows_path.empty()) m.add_artifact("netflows", netflows_path);
  if (!postmortem_path.empty()) {
    m.add_artifact("postmortem", postmortem_path);
  }
  if (!health_bundle_path.empty()) {
    m.add_artifact("postmortem", health_bundle_path);
  }
  (void)maybe_append_run_manifest(m);
}

std::string RunForensics::deadlock(const wse::StopInfo& stop,
                                   const std::string& what) {
  // Close the sampling window before snapshotting so the bundle's
  // embedded tail reaches the stop cycle.
  fabric_.sample_now();

  AnomalyInfo anomaly;
  anomaly.kind = AnomalyInfo::Kind::Deadlock;
  anomaly.cycle = fabric_.stats().cycles;
  anomaly.detail = what;

  PostmortemInputs in;
  in.fabric = &fabric_;
  in.recorder = fabric_.flight_recorder();
  in.profiler = fabric_.profiler();
  in.scalars = scalars_;
  in.stop = &stop;
  in.timeseries = fabric_.sampler();
  in.program = program_;
  const std::string path = maybe_write_postmortem(anomaly, in);

  finalize(wse::StopInfo::to_string(stop.reason), stop.deadlock, path);

  std::string msg = what;
  if (!stop.report.empty()) {
    msg += "\n";
    msg += stop.report;
  }
  if (!path.empty()) {
    msg += "\npost-mortem bundle: ";
    msg += path;
  }
  return msg;
}

void RunForensics::finished(const wse::StopInfo* stop) {
  std::string bundle_path;
  const std::uint64_t threshold = fault_storm_threshold();
  const std::uint64_t total = fabric_.fault_stats().total();
  if (threshold != 0 && total >= threshold) {
    fabric_.sample_now(); // bundle tail reaches the final cycle
    AnomalyInfo anomaly;
    anomaly.kind = AnomalyInfo::Kind::FaultStorm;
    anomaly.cycle = fabric_.stats().cycles;
    anomaly.detail = std::to_string(total) + " injected faults >= threshold " +
                     std::to_string(threshold);
    PostmortemInputs in;
    in.fabric = &fabric_;
    in.recorder = fabric_.flight_recorder();
    in.profiler = fabric_.profiler();
    in.scalars = scalars_;
    in.timeseries = fabric_.sampler();
    in.program = program_;
    bundle_path = maybe_write_postmortem(anomaly, in);
  }
  finalize(stop != nullptr ? wse::StopInfo::to_string(stop->reason)
                           : "finished",
           stop != nullptr && stop->deadlock, bundle_path);
}

// --- bundle loading / inspection ---------------------------------------

std::string BundleEvent::summary() const {
  FlightEventKind k;
  if (flight_event_kind_from_string(kind, &k)) {
    FlightEvent ev;
    ev.cycle = cycle;
    ev.kind = k;
    ev.a = static_cast<std::int32_t>(a);
    ev.b = static_cast<std::int32_t>(b);
    ev.c = static_cast<std::int32_t>(c);
    ev.d = static_cast<std::int32_t>(d);
    return format_flight_event(ev);
  }
  return "c" + std::to_string(cycle) + " " + kind + " a=" + std::to_string(a) +
         " b=" + std::to_string(b) + " c=" + std::to_string(c) +
         " d=" + std::to_string(d);
}

bool load_bundle(const std::string& path, Bundle* out, std::string* error) {
  return artifact::read(path, kPostmortemSchema, out, error);
}

// --- pretty-printing ----------------------------------------------------

std::string pretty_bundle(const Bundle& bundle, std::size_t last_k) {
  std::ostringstream out;
  out << "post-mortem bundle (" << bundle.schema << ")\n";
  out << "  anomaly: " << bundle.anomaly_kind << " at cycle "
      << bundle.anomaly_cycle;
  if (!bundle.anomaly_detail.empty()) out << " — " << bundle.anomaly_detail;
  out << "\n";
  if (!bundle.program.empty()) out << "  program: " << bundle.program << "\n";
  if (bundle.width > 0) {
    out << "  fabric:  " << bundle.width << "x" << bundle.height << ", cycle "
        << bundle.cycles << ", " << bundle.threads << " sim thread(s)\n";
  }
  if (!bundle.stop_reason.empty()) {
    out << "  stop:    " << bundle.stop_reason
        << (bundle.deadlock ? " (deadlock)" : "");
    if (bundle.stalled_cycles > 0) {
      out << ", no progress for " << bundle.stalled_cycles << " cycles";
    }
    out << "\n";
  }
  if (bundle.fault_total > 0) {
    out << "  faults:  " << bundle.fault_total << " injected\n";
  }

  if (!bundle.blocked_tiles.empty()) {
    out << "\nblocked tiles (" << bundle.blocked_tiles.size() << "):";
    const std::size_t shown = std::min<std::size_t>(
        bundle.blocked_tiles.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
      out << " " << tile_name(bundle.blocked_tiles[i].first,
                              bundle.blocked_tiles[i].second);
    }
    if (shown < bundle.blocked_tiles.size()) {
      out << " ... " << bundle.blocked_tiles.size() - shown << " more";
    }
    out << "\n";
  }

  if (!bundle.wait_cycles.empty()) {
    out << "\nwait-for cycles (deadlock loops):\n";
    for (const std::string& c : bundle.wait_cycles) {
      out << "  " << c << "\n";
    }
  }
  if (!bundle.wait_terminals.empty()) {
    out << "wait-for terminals (stall chains drain here):";
    for (const auto& [x, y] : bundle.wait_terminals) {
      out << " " << tile_name(x, y);
    }
    out << "\n";
  }
  if (!bundle.wait_edges.empty()) {
    out << "wait-for edges (" << bundle.wait_edges.size() << "):\n";
    const std::size_t shown =
        std::min<std::size_t>(bundle.wait_edges.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
      const WaitForEdge& e = bundle.wait_edges[i];
      out << "  " << tile_name(e.from_x, e.from_y) << " -> "
          << tile_name(e.to_x, e.to_y);
      if (e.color >= 0) out << " (c" << e.color << ")";
      if (!e.why.empty()) out << ": " << e.why;
      out << "\n";
    }
    if (shown < bundle.wait_edges.size()) {
      out << "  ... " << bundle.wait_edges.size() - shown << " more\n";
    }
  }

  if (!bundle.tiles.empty()) {
    // Busiest + blocked tiles first: sort by (blocked?, total) descending.
    std::set<std::pair<int, int>> blocked(bundle.blocked_tiles.begin(),
                                          bundle.blocked_tiles.end());
    std::vector<const BundleTile*> order;
    order.reserve(bundle.tiles.size());
    for (const BundleTile& t : bundle.tiles) order.push_back(&t);
    std::stable_sort(order.begin(), order.end(),
                     [&](const BundleTile* a, const BundleTile* c) {
                       const bool ab = blocked.count({a->x, a->y}) != 0;
                       const bool cb = blocked.count({c->x, c->y}) != 0;
                       if (ab != cb) return ab;
                       return a->total > c->total;
                     });
    const std::size_t shown = std::min<std::size_t>(order.size(), 8);
    out << "\nflight rings (" << bundle.tiles.size() << " tiles recorded, depth "
        << bundle.flight_depth << "):\n";
    for (std::size_t i = 0; i < shown; ++i) {
      const BundleTile& t = *order[i];
      out << "tile " << tile_name(t.x, t.y) << ": " << t.total << " events";
      if (t.dropped > 0) out << " (" << t.dropped << " overwritten)";
      if (blocked.count({t.x, t.y}) != 0) out << " [blocked]";
      out << "\n";
      const std::size_t n = t.events.size();
      const std::size_t start = n > last_k ? n - last_k : 0;
      if (start > 0) out << "  ... " << start << " earlier\n";
      for (std::size_t j = start; j < n; ++j) {
        out << "  " << t.events[j].summary() << "\n";
      }
    }
    if (shown < order.size()) {
      out << "... " << order.size() - shown << " more tiles\n";
    }
  }

  if (!bundle.scalars.empty()) {
    out << "\nsolver scalars (last " << std::min<std::size_t>(
        bundle.scalars.size(), last_k) << " of " << bundle.scalars.size()
        << "):\n";
    const std::size_t start =
        bundle.scalars.size() > last_k ? bundle.scalars.size() - last_k : 0;
    for (std::size_t i = start; i < bundle.scalars.size(); ++i) {
      const ScalarSample& s = bundle.scalars[i];
      out << "  it " << s.iteration << " " << s.name << " = " << s.value
          << "\n";
    }
  }

  if (!bundle.ts_frames.empty()) {
    out << "\ntime-series tail (" << bundle.ts_frames.size() << " of "
        << bundle.ts_frames_total << " frames, every "
        << bundle.ts_sample_cycles << " cycles):\n";
    std::vector<double> compute;
    compute.reserve(bundle.ts_frames.size());
    for (const TimeSeriesFrame& f : bundle.ts_frames) {
      compute.push_back(static_cast<double>(f.instr_cycles) /
                        static_cast<double>(f.window_cycles));
    }
    out << "  compute/cyc |" << sparkline(compute, 48) << "|\n";
    const std::size_t shown =
        std::min<std::size_t>(bundle.ts_frames.size(), last_k);
    const std::size_t first = bundle.ts_frames.size() - shown;
    for (std::size_t i = first; i < bundle.ts_frames.size(); ++i) {
      out << "  " << summarize_frame(bundle.ts_frames[i]) << "\n";
    }
  }

  if (!bundle.stop_report.empty()) {
    out << "\nstop report:\n" << bundle.stop_report;
    if (bundle.stop_report.back() != '\n') out << "\n";
  }
  return out.str();
}

// --- diffing ------------------------------------------------------------

Divergence first_divergence(const Bundle& a, const Bundle& b) {
  // Each tile's event stream is one sequence; the earliest divergence
  // over all tiles wins, ties broken by (y, x).
  static const std::vector<BundleEvent> kNoEvents;
  std::map<std::pair<int, int>, std::pair<const BundleTile*, const BundleTile*>>
      by_yx;
  for (const BundleTile& t : a.tiles) by_yx[{t.y, t.x}].first = &t;
  for (const BundleTile& t : b.tiles) by_yx[{t.y, t.x}].second = &t;
  Divergence best;
  best.noun = "event";
  best.streams = "recorded event streams";
  for (const auto& [yx, tiles] : by_yx) {
    const auto& [ta, tb] = tiles;
    Divergence d = first_divergence_in(
        "event", "recorded event streams",
        ta != nullptr ? ta->events : kNoEvents,
        tb != nullptr ? tb->events : kNoEvents, &BundleEvent::summary);
    if (!d.found || (best.found && d.cycle >= best.cycle)) continue;
    best = std::move(d);
    best.has_tile = true;
    best.y = yx.first;
    best.x = yx.second;
  }
  best.note = program_mismatch(a.program, b.program);
  return best;
}

// --- self-check ---------------------------------------------------------

bool self_check_bundle(const Bundle& bundle, std::string* error) {
  using artifact::fail_with;
  if (!artifact::check_schema(bundle.schema, kPostmortemSchema, error)) {
    return false;
  }
  if (!known_anomaly_kind(bundle.anomaly_kind)) {
    return fail_with(error,
                     "unknown anomaly kind: '" + bundle.anomaly_kind + "'");
  }
  const bool has_fabric = bundle.width > 0 && bundle.height > 0;
  if ((!bundle.tiles.empty() || !bundle.heatmaps.empty()) && !has_fabric) {
    return fail_with(error, "tile/heatmap data without fabric dimensions");
  }
  const auto in_bounds = [&](int x, int y) {
    return x >= 0 && x < bundle.width && y >= 0 && y < bundle.height;
  };
  for (const BundleTile& t : bundle.tiles) {
    if (!in_bounds(t.x, t.y)) {
      return fail_with(error, "flight tile " + tile_name(t.x, t.y) +
                       " out of bounds");
    }
    if (t.events.size() > bundle.flight_depth) {
      return fail_with(error, "flight tile " + tile_name(t.x, t.y) +
                       " holds more events than the ring depth");
    }
    if (static_cast<std::uint64_t>(t.events.size()) + t.dropped != t.total) {
      return fail_with(error, "flight tile " + tile_name(t.x, t.y) +
                       " events+dropped != total");
    }
    for (std::size_t i = 1; i < t.events.size(); ++i) {
      if (t.events[i].cycle < t.events[i - 1].cycle) {
        return fail_with(error, "flight tile " + tile_name(t.x, t.y) +
                         " events not chronological");
      }
    }
    for (const BundleEvent& e : t.events) {
      FlightEventKind k;
      if (!flight_event_kind_from_string(e.kind, &k)) {
        return fail_with(error, "unknown flight event kind: '" + e.kind + "'");
      }
    }
  }
  for (const Heatmap& h : bundle.heatmaps) {
    if (h.width != bundle.width || h.height != bundle.height) {
      return fail_with(error,
                       "heatmap '" + h.name + "' dimensions mismatch fabric");
    }
    if (h.cells.size() != static_cast<std::size_t>(h.width) *
                              static_cast<std::size_t>(h.height)) {
      return fail_with(error, "heatmap '" + h.name + "' cell count mismatch");
    }
  }
  for (const WaitForEdge& e : bundle.wait_edges) {
    if (has_fabric &&
        (!in_bounds(e.from_x, e.from_y) || !in_bounds(e.to_x, e.to_y))) {
      return fail_with(error, "wait-for edge endpoint out of bounds");
    }
    if (e.color < -1 || e.color >= wse::kNumColors) {
      return fail_with(error, "wait-for edge color out of range");
    }
  }
  for (const auto& [x, y] : bundle.blocked_tiles) {
    if (has_fabric && !in_bounds(x, y)) {
      return fail_with(error,
                       "blocked tile " + tile_name(x, y) + " out of bounds");
    }
  }
  if (bundle.ts_frames.size() > kPostmortemTimeseriesTail) {
    return fail_with(error, "time-series tail exceeds the retention cap");
  }
  if (bundle.ts_frames.size() >
      static_cast<std::size_t>(bundle.ts_frames_total)) {
    return fail_with(error,
                     "time-series tail holds more frames than frames_total");
  }
  for (std::size_t i = 0; i < bundle.ts_frames.size(); ++i) {
    const TimeSeriesFrame& f = bundle.ts_frames[i];
    if (f.window_cycles == 0) {
      return fail_with(error, "time-series frame with zero-cycle window");
    }
    if (i > 0 && f.cycle <= bundle.ts_frames[i - 1].cycle) {
      return fail_with(error, "time-series frames not chronological");
    }
  }
  return true;
}

} // namespace wss::telemetry
