#pragma once

// The network observatory's recording surface (docs/NETWORK.md): per-link
// × per-color wavelet accounting for the fabric, attributed to the logical
// flows a wse::FlowTable declares (halo legs, wrap lanes, allreduce
// reduce/broadcast, SpMV rounds, control).
//
// A NetMonitor attached via Fabric::set_net_monitor is fed from the link
// phase only, and every counter cell is owned by the *source* tile of the
// link it describes — exactly the ownership the banded determinism
// contract already guarantees for router out-queues — so streams are
// bit-identical at any WSS_SIM_THREADS on both backends. The fast loop
// visits only occupied links; the per-link audit records nothing for an
// empty one, so its counters equal a scan over every link.
//
// Three things are counted per outgoing link (tile, mesh dir):
//   words        — flits that actually traversed the link (the same event
//                  FabricStats.link_transfers counts, so conservation is
//                  exact: Σ over flows == link_transfers, even under
//                  injected link faults, because a dropped flit increments
//                  neither),
//   blocked      — cycles a color's head flit sat ready but could not move
//                  because the destination virtual-channel queue was full
//                  (downstream backpressure — the congestion signal; plain
//                  budget multiplexing across colors is *not* a block),
//   backlog peak — high-water of queued halfwords left after the phase.
//
// Like profiler.hpp / flightrec.hpp / timeseries.hpp, recording is
// header-only on purpose: wss_wse does not link wss_telemetry, so
// fabric.cpp includes this header and calls the inline hooks without a
// library cycle. Analysis — the `wss.netflows/1` artifact, self-check,
// diff, rendering — lives in netmon.cpp inside wss_telemetry.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/timeseries.hpp"
#include "wse/flow_table.hpp"
#include "wse/types.hpp"

namespace wss::telemetry {

namespace json {
class Writer; // telemetry/json.hpp
}
namespace jsonparse {
struct Value; // telemetry/json_parse.hpp
}
namespace artifact {
class Io; // telemetry/artifact.hpp
}

/// Netflows schema identifier; bump on breaking layout changes.
inline constexpr const char* kNetFlowsSchema = "wss.netflows/1";

class NetMonitor {
public:
  /// Install the flow declaration. Set this *before* Fabric::
  /// set_net_monitor — the fabric snapshots the flow names into an
  /// attached sampler at attach time. Pairs the table leaves undeclared
  /// fall back to flow 0 ("control").
  void set_flow_table(wse::FlowTable table) { flows_ = std::move(table); }
  [[nodiscard]] const wse::FlowTable& flow_table() const { return flows_; }

  // --- fabric hooks (inline; link phase + serial tail only) ---------------

  /// Size the counter planes and capture the observation baseline
  /// (called by Fabric::set_net_monitor).
  void on_attach(int width, int height, std::uint64_t cycle,
                 std::uint64_t link_transfers) {
    width_ = width;
    height_ = height;
    attach_cycle_ = cycle;
    attach_transfers_ = link_transfers;
    const std::size_t cells = static_cast<std::size_t>(width) *
                              static_cast<std::size_t>(height) * 4 *
                              wse::kNumColors;
    const std::size_t links = static_cast<std::size_t>(width) *
                              static_cast<std::size_t>(height) * 4;
    words_.assign(cells, 0);
    blocked_.assign(cells, 0);
    cell_peak_.assign(cells, 0);
    link_stall_cycles_.assign(links, 0);
    link_peak_.assign(links, 0);
    attached_once_ = true;
  }

  /// A flit traversed the link (source `tile`, mesh dir `d`, color `c`).
  /// Same event as the fabric's ++transfers — the conservation anchor.
  void record_move(std::size_t tile, int d, int c) {
    ++words_[cell(tile, d, c)];
  }
  /// Color `c`'s head flit was left blocked by downstream backpressure at
  /// the end of the link phase.
  void record_blocked(std::size_t tile, int d, int c) {
    ++blocked_[cell(tile, d, c)];
  }
  /// Color `c` ended the link phase with `halfwords` still queued.
  void record_backlog(std::size_t tile, int d, int c, std::uint64_t halfwords) {
    auto& peak = cell_peak_[cell(tile, d, c)];
    peak = std::max(peak, halfwords);
  }
  /// The whole link ended the phase with `halfwords` queued across colors;
  /// `any_blocked` says at least one color was backpressure-blocked (a
  /// stall-attributed cycle for the link).
  void record_link_cycle(std::size_t tile, int d, std::uint64_t halfwords,
                         bool any_blocked) {
    const std::size_t l = link(tile, d);
    auto& peak = link_peak_[l];
    peak = std::max(peak, halfwords);
    if (any_blocked) ++link_stall_cycles_[l];
  }

  // --- serial-tail rollup (Fabric::collect_sample) ------------------------

  /// Fold the counter planes through the flow table into a cumulative
  /// sample (per-flow words/blocked, per-direction words, hottest and
  /// most-congested link, global backlog peak). Serial code only.
  void collect(TimeSeriesSample* s) const;

  // --- inspection (analysis side; tests and the artifact builder) ---------

  [[nodiscard]] bool attached_once() const { return attached_once_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] std::uint64_t attach_cycle() const { return attach_cycle_; }
  [[nodiscard]] std::uint64_t attach_transfers() const {
    return attach_transfers_;
  }
  [[nodiscard]] std::uint64_t words_at(int x, int y, wse::Dir d,
                                       int color) const {
    return words_[cell(tile_index(x, y), static_cast<int>(d), color)];
  }
  [[nodiscard]] std::uint64_t blocked_at(int x, int y, wse::Dir d,
                                         int color) const {
    return blocked_[cell(tile_index(x, y), static_cast<int>(d), color)];
  }
  /// Backlog high-water (halfwords) of one (link, color) cell.
  [[nodiscard]] std::uint64_t peak_queue_at(int x, int y, wse::Dir d,
                                            int color) const {
    return cell_peak_[cell(tile_index(x, y), static_cast<int>(d), color)];
  }
  /// Total flits that left (x, y) over mesh dir `d` (Σ over colors).
  [[nodiscard]] std::uint64_t link_words(int x, int y, wse::Dir d) const {
    const std::size_t base = cell(tile_index(x, y), static_cast<int>(d), 0);
    std::uint64_t sum = 0;
    for (int c = 0; c < wse::kNumColors; ++c) sum += words_[base + static_cast<std::size_t>(c)];
    return sum;
  }
  [[nodiscard]] std::uint64_t link_stall_cycles(int x, int y,
                                                wse::Dir d) const {
    return link_stall_cycles_[link(tile_index(x, y), static_cast<int>(d))];
  }
  [[nodiscard]] std::uint64_t link_peak_queue(int x, int y, wse::Dir d) const {
    return link_peak_[link(tile_index(x, y), static_cast<int>(d))];
  }

private:
  [[nodiscard]] std::size_t tile_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }
  [[nodiscard]] static std::size_t cell(std::size_t tile, int d, int c) {
    return (tile * 4 + static_cast<std::size_t>(d)) * wse::kNumColors +
           static_cast<std::size_t>(c);
  }
  [[nodiscard]] static std::size_t link(std::size_t tile, int d) {
    return tile * 4 + static_cast<std::size_t>(d);
  }

  wse::FlowTable flows_;
  int width_ = 0;
  int height_ = 0;
  bool attached_once_ = false;
  std::uint64_t attach_cycle_ = 0;
  std::uint64_t attach_transfers_ = 0;
  // Counter planes, indexed (tile, outgoing mesh dir, color) — every cell
  // single-writer under the band that owns the source tile.
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> blocked_;
  std::vector<std::uint64_t> cell_peak_;
  // Per-link (tile, dir) planes.
  std::vector<std::uint64_t> link_stall_cycles_;
  std::vector<std::uint64_t> link_peak_;
};

inline void NetMonitor::collect(TimeSeriesSample* s) const {
  if (!attached_once_) return;
  s->has_net = true;
  s->net_cycles = s->cycle >= attach_cycle_ ? s->cycle - attach_cycle_ : 0;
  const std::size_t nflows = static_cast<std::size_t>(flows_.flow_count());
  s->flow_words.assign(nflows, 0);
  s->flow_blocked.assign(nflows, 0);
  // Flow lookup per (dir, color), hoisted out of the tile scan.
  std::array<int, 4 * wse::kNumColors> fmap{};
  for (int d = 0; d < 4; ++d) {
    for (int c = 0; c < wse::kNumColors; ++c) {
      fmap[static_cast<std::size_t>(d * wse::kNumColors + c)] =
          flows_.flow_at(static_cast<wse::Dir>(d), static_cast<wse::Color>(c));
    }
  }
  const std::size_t tiles = static_cast<std::size_t>(width_) *
                            static_cast<std::size_t>(height_);
  for (std::size_t t = 0; t < tiles; ++t) {
    for (int d = 0; d < 4; ++d) {
      const std::size_t base = cell(t, d, 0);
      std::uint64_t lw = 0;
      for (int c = 0; c < wse::kNumColors; ++c) {
        const std::uint64_t w = words_[base + static_cast<std::size_t>(c)];
        lw += w;
        const auto f = static_cast<std::size_t>(
            fmap[static_cast<std::size_t>(d * wse::kNumColors + c)]);
        s->flow_words[f] += w;
        s->flow_blocked[f] += blocked_[base + static_cast<std::size_t>(c)];
      }
      s->net_dir_words[static_cast<std::size_t>(d)] += lw;
      const std::size_t l = link(t, d);
      // Strict > keeps the first maximum in (tile, dir) scan order — a
      // deterministic tie-break at any thread count (the scan is serial).
      if (lw > s->net_hot_words) {
        s->net_hot_words = lw;
        s->net_hot_x = static_cast<std::int32_t>(t % static_cast<std::size_t>(width_));
        s->net_hot_y = static_cast<std::int32_t>(t / static_cast<std::size_t>(width_));
        s->net_hot_dir = d;
      }
      if (link_stall_cycles_[l] > s->net_stall_cycles) {
        s->net_stall_cycles = link_stall_cycles_[l];
        s->net_stall_x = static_cast<std::int32_t>(t % static_cast<std::size_t>(width_));
        s->net_stall_y = static_cast<std::int32_t>(t / static_cast<std::size_t>(width_));
        s->net_stall_dir = d;
      }
      s->net_peak_queue = std::max(s->net_peak_queue, link_peak_[l]);
    }
  }
}

// --- the wss.netflows/1 artifact (netmon.cpp) -----------------------------
// (Per-flow model expectations — NetFlowExpectation — live in
// timeseries.hpp, because the series carries them like HealthExpectations.)

/// Per-flow rollup row of a finished observation.
struct NetFlowTotals {
  std::string flow;
  std::uint64_t words = 0;
  std::uint64_t blocked = 0;    ///< backpressure-blocked color-cycles
  std::uint64_t peak_queue = 0; ///< max backlog halfwords on a carrying cell
  double expected_words_per_iteration = 0.0; ///< <= 0 ungated
  bool exact = false;

  [[nodiscard]] bool operator==(const NetFlowTotals&) const = default;
};

/// One link's totals (hotspot / congestion tables).
struct NetLinkStat {
  int x = 0;
  int y = 0;
  wse::Dir dir = wse::Dir::North;
  std::uint64_t words = 0;
  std::uint64_t blocked = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t peak_queue = 0;

  [[nodiscard]] bool operator==(const NetLinkStat&) const = default;
};

/// A loaded (or to-be-written) `wss.netflows/1` file.
struct NetFlowsFile {
  std::string schema;
  std::string program;
  std::string run_id;
  int width = 0, height = 0;
  std::uint64_t cycles = 0;         ///< cycles observed (attach -> capture)
  std::uint64_t iterations = 0;     ///< solver iterations / generations seen
  std::uint64_t link_transfers = 0; ///< FabricStats delta over the window
  wse::FlowTable flow_table;
  std::vector<NetFlowTotals> flows;      ///< index-aligned with flow_table
  std::vector<NetLinkStat> hot_links;    ///< top-k by words (row-major ties)
  std::vector<NetLinkStat> congested_links; ///< top-k by stall cycles (> 0)
  std::uint64_t bisection_x_words = 0; ///< words crossing the vertical mid-cut
  std::uint64_t bisection_y_words = 0; ///< words crossing the horizontal cut
};

/// Number of hot/congested links retained (WSS_NETFLOWS_TOPK, default 8).
[[nodiscard]] int netflows_topk();
/// WSS_NETFLOWS: master switch for forensics-wired netflow capture.
[[nodiscard]] bool netflows_enabled();
/// WSS_NETFLOWS_OUT: explicit artifact path ("" = unset -> ledger default).
[[nodiscard]] std::string netflows_out();

/// Roll a finished observation up into the artifact shape. `cycles_now` /
/// `link_transfers_now` are the fabric's current totals (the builder
/// subtracts the attach baselines); `iterations` is the solver-iteration
/// count the expectations normalize by (0 = ungated).
[[nodiscard]] NetFlowsFile build_netflows(
    const NetMonitor& mon, const std::string& program,
    const std::string& run_id, std::uint64_t cycles_now,
    std::uint64_t link_transfers_now, std::uint64_t iterations,
    const std::vector<NetFlowExpectation>& expectations, int top_k);

[[nodiscard]] std::string build_netflows_json(const NetFlowsFile& f);

/// Write the artifact to `path` (parent directories created). Returns
/// false + `*error` on I/O failure.
bool write_netflows(const std::string& path, const NetFlowsFile& f,
                    std::string* error = nullptr);

/// Parse an artifact. Returns false + `*error` (with context) on
/// unreadable files, JSON errors, schema mismatch, or a bad field.
bool load_netflows(const std::string& path, NetFlowsFile* out,
                   std::string* error = nullptr);

/// Schema guard + conservation gate: schema tag, flow-table/rollup
/// alignment, and Σ per-flow words == link_transfers exactly. Returns
/// false + `*error` on drift.
bool self_check_netflows(const NetFlowsFile& f, std::string* error = nullptr);

/// FlowTable <-> JSON (embedded in the artifact; also the round-trip the
/// invariant tests exercise).
void emit_flow_table(json::Writer& w, const wse::FlowTable& t);
bool parse_flow_table(const jsonparse::Value& v, wse::FlowTable* out);

/// First divergent flow row between two artifacts (exit 3 in wss_inspect).
[[nodiscard]] Divergence first_divergence(const NetFlowsFile& a,
                                          const NetFlowsFile& b);

/// The wss.netflows/1 field lists (telemetry/artifact.hpp).
void describe(artifact::Io& io, NetFlowTotals& row);
void describe(artifact::Io& io, NetLinkStat& l);
void describe(artifact::Io& io, NetFlowsFile& f);

/// One-line flow summary used by list mode and the diff.
[[nodiscard]] std::string summarize_flow(const NetFlowTotals& f);

/// Full rendering of an artifact (show mode): flow rollups, hot links,
/// congested links, bisection summary.
[[nodiscard]] std::string pretty_netflows(const NetFlowsFile& f);

/// The wss_top network pane: per-direction utilization sparklines and the
/// hottest links, from a loaded series' net block ("" when the series
/// carries none).
[[nodiscard]] std::string pretty_net_pane(const TimeSeries& ts);

} // namespace wss::telemetry
