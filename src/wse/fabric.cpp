#include "wse/fabric.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

// Header-only recording surfaces; create no link dependency on
// wss_telemetry (analysis lives there, the fabric only records).
#include "common/env.hpp"
#include "telemetry/flightrec.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"

namespace wss::wse {

namespace {

/// Every color of one direction: the scan-all oracle's "occupancy" mask.
constexpr std::uint32_t kAllColors = (1u << kNumColors) - 1;

/// Map a core step outcome (plus fault context) to a profiler category.
telemetry::CycleCat categorize(StepOutcome outcome, bool router_faulted) {
  switch (outcome) {
    case StepOutcome::Compute:
      return telemetry::CycleCat::Compute;
    case StepOutcome::Idle:
      return telemetry::CycleCat::Idle;
    case StepOutcome::StallSend:
    case StepOutcome::StallRecv:
    case StepOutcome::StallOther:
      // A stalled core under an injected router-stall window is the
      // fault's doing, whatever port the core blames.
      if (router_faulted) return telemetry::CycleCat::RouterStall;
      if (outcome == StepOutcome::StallSend) {
        return telemetry::CycleCat::SendBlocked;
      }
      // StallOther (e.g. the only busy slot retired with zero work while
      // waiting for upstream data) counts as recv-starved: the tile had
      // work it could not feed.
      return telemetry::CycleCat::RecvStarved;
  }
  return telemetry::CycleCat::Idle;
}

/// SimParams::watchdog_cycles, or WSS_WATCHDOG_CYCLES when 0 (strict
/// parse), or 0 = disabled — mirroring resolve_sim_threads.
std::uint64_t resolve_watchdog_cycles(std::uint64_t requested) {
  if (requested != 0) return requested;
  return env::parse_u64("WSS_WATCHDOG_CYCLES", 0);
}

/// SimParams::backend, with Auto resolved against WSS_SIM_BACKEND —
/// mirroring resolve_sim_threads / resolve_watchdog_cycles. Unset means
/// the fast loop. Strict: an unknown value is a configuration error, not a
/// silent fallback.
Backend resolve_backend(Backend requested) {
  if (requested != Backend::Auto) return requested;
  const std::string v = env::parse_string("WSS_SIM_BACKEND");
  if (v.empty() || v == "turbo") return Backend::Turbo;
  if (v == "reference") return Backend::Reference;
  throw std::invalid_argument(
      "WSS_SIM_BACKEND must be 'reference' or 'turbo', got '" + v + "'");
}

/// Two ints as one 64-bit word.
std::uint64_t pair(int hi, int lo) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32) |
         static_cast<std::uint32_t>(lo);
}

/// The words of one record folded into one: each rotated by its own
/// amount, then XORed. Independent operations, so a record costs a single
/// step of mix()'s dependency chain.
template <typename... Words> std::uint64_t fold(Words... words) {
  std::uint64_t out = 0;
  int rot = 0;
  ((out ^= std::rotl(static_cast<std::uint64_t>(words), rot), rot += 9), ...);
  return out;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

/// Hash of every field of `prog`, for interning equal programs (equality
/// is TileProgram::operator==). A weak hash only costs an extra full
/// comparison on a collision, so speed wins: one mix() per record.
std::size_t hash_program(const TileProgram& prog) {
  std::uint64_t h = fold(pair(prog.memory_halfwords, prog.num_scalars),
                         pair(prog.initial_task,
                              static_cast<int>(prog.tasks.size())));
  for (const TensorDesc& t : prog.tensors) {
    h = mix(h, fold(pair(t.base, t.len), pair(t.stride, t.pos),
                    static_cast<std::uint64_t>(t.dtype)));
  }
  for (const FabricDesc& f : prog.fabrics) {
    h = mix(h, fold(pair(f.channel, f.len), pair(f.pos, f.trig),
                    pair(static_cast<int>(f.dtype), static_cast<int>(f.act))));
  }
  for (const FifoState& f : prog.fifos) {
    h = mix(h, fold(pair(f.base, f.capacity), pair(f.head, f.tail),
                    pair(f.count, f.on_push)));
  }
  for (const Task& t : prog.tasks) {
    h = mix(h, fold(std::hash<std::string>{}(t.name),
                    pair(static_cast<int>(t.steps.size()),
                         (t.priority ? 1 : 0) | (t.blocked ? 2 : 0) |
                             (t.activated ? 4 : 0))));
    for (const TaskStep& st : t.steps) {
      const Instr& in = st.instr;
      h = mix(h, fold(pair(st.thread_slot, st.target),
                      pair(in.trig, static_cast<int>(st.kind) |
                                        (static_cast<int>(in.op) << 8) |
                                        (static_cast<int>(in.act) << 16)),
                      pair(in.dst, in.src1), pair(in.src2, in.fabric),
                      pair(in.fifo, in.scalar),
                      pair(in.scalar_a, in.scalar_b),
                      std::bit_cast<std::uint64_t>(in.imm)));
    }
  }
  return static_cast<std::size_t>(h);
}

} // namespace

Fabric::Fabric(int width, int height, const CS1Params& arch,
               const SimParams& sim)
    : width_(width), height_(height), arch_(arch), sim_(sim),
      threads_(resolve_sim_threads(sim.sim_threads)),
      watchdog_cycles_(resolve_watchdog_cycles(sim.watchdog_cycles)),
      flags_(static_cast<std::size_t>(width) *
             static_cast<std::size_t>(height)),
      backend_(resolve_backend(sim.backend)) {
  validate_queue_depths(sim_);
  tiles_.resize(static_cast<std::size_t>(width) *
                static_cast<std::size_t>(height));
}

Fabric::~Fabric() = default;

std::shared_ptr<const TileCode> Fabric::intern(TileProgram program) {
  const std::size_t h = hash_program(program);
  const auto [first, last] = codes_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (it->second->program == program) return it->second;
  }
  auto code = std::make_shared<const TileCode>(std::move(program), arch_);
  codes_.emplace(h, code);
  return code;
}

void Fabric::configure_tile(int x, int y, TileProgram program,
                            RoutingTable routes) {
  Tile& t = tiles_[tile_index(x, y)];
  t.core = std::make_unique<TileCore>(intern(std::move(program)), arch_, sim_);
  t.core->set_position(x, y); // flit provenance for the critical path
  t.router.table = std::move(routes);
  if (user_tracer_ != nullptr) t.core->set_tracer(user_tracer_, x, y);
  if (profiler_ != nullptr) profiler_->mark_configured(x, y);
  if (flightrec_ != nullptr) {
    t.core->set_flight_recorder(flightrec_);
    flightrec_->mark_configured(x, y);
  }
  refresh_flags(tile_index(x, y));
}

void Fabric::refresh_flags(std::size_t i) {
  const Tile& t = tiles_[i];
  flags_.configured[i] = t.core != nullptr ? 1 : 0;
  // TileCore::quiescent() is exactly the absorbing parked predicate: no
  // occupied slot, no runnable task, empty ramp queues.
  flags_.parked[i] = t.core != nullptr && t.core->quiescent() ? 1 : 0;
  flags_.done[i] = t.core != nullptr && t.core->done() ? 1 : 0;
  flags_.route_pending[i].store(t.router.in_any() ? 1 : 0,
                                std::memory_order_relaxed);
  flags_.link_pending[i] = t.router.out_any() ? 1 : 0;
}

void Fabric::set_backend(Backend backend) {
  backend_ = resolve_backend(backend);
}

void Fabric::set_flight_recorder(telemetry::FlightRecorder* rec) {
  if (rec != nullptr &&
      (rec->width() != width_ || rec->height() != height_)) {
    throw std::invalid_argument(
        "flight recorder dimensions must match the fabric");
  }
  flightrec_ = rec;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      Tile& t = tiles_[tile_index(x, y)];
      if (t.core == nullptr) continue;
      t.core->set_flight_recorder(rec);
      if (rec != nullptr) rec->mark_configured(x, y);
    }
  }
}

void Fabric::set_profiler(telemetry::Profiler* profiler) {
  if (profiler != nullptr &&
      (profiler->width() != width_ || profiler->height() != height_)) {
    throw std::invalid_argument("profiler dimensions must match the fabric");
  }
  profiler_ = profiler;
  if (profiler_ == nullptr) return;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      if (tiles_[tile_index(x, y)].core != nullptr) {
        profiler_->mark_configured(x, y);
      }
    }
  }
}

void Fabric::set_sampler(telemetry::TimeSeriesSampler* sampler) {
  sampler_ = sampler;
  if (sampler_ == nullptr) return;
  // Baseline at the current cycle: frames record activity since this
  // attachment, so a profiler attached alongside sums exactly (the frame
  // deltas add up to its end-of-run totals).
  telemetry::TimeSeriesSample baseline;
  collect_sample(&baseline);
  sampler_->on_attach(width_, height_, baseline);
  if (netmon_ != nullptr) {
    sampler_->set_net_flows(netmon_->flow_table().flows());
  }
}

void Fabric::set_net_monitor(telemetry::NetMonitor* monitor) {
  netmon_ = monitor;
  if (netmon_ == nullptr) return;
  netmon_->on_attach(width_, height_, stats_.cycles, stats_.link_transfers);
  // Either attach order leaves the sampler knowing the flow names the
  // frames' net vectors are aligned with.
  if (sampler_ != nullptr) {
    sampler_->set_net_flows(netmon_->flow_table().flows());
  }
}

void Fabric::sample_now() {
  if (sampler_ == nullptr) return;
  if (stats_.cycles == sampler_->last_cycle()) return; // nothing new
  telemetry::TimeSeriesSample s;
  collect_sample(&s);
  sampler_->record(s);
}

void Fabric::collect_sample(telemetry::TimeSeriesSample* out) const {
  telemetry::TimeSeriesSample s;
  s.cycle = stats_.cycles;
  s.threads = threads_;
  s.link_transfers = stats_.link_transfers;
  s.fault_total = fault_stats_.total();
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const Tile& t = tiles_[tile_index(x, y)];
      s.flits_forwarded += t.router.stats.flits_forwarded;
      std::uint64_t queued = 0;
      for (int d = 0; d < 4; ++d) {
        for (const auto& q :
             t.router.in_queues[static_cast<std::size_t>(d)]) {
          queued += q.size();
        }
        for (const auto& q :
             t.router.out_queues[static_cast<std::size_t>(d)]) {
          queued += q.size();
        }
      }
      s.router_queued_flits += queued;
      s.router_queue_peak = std::max(s.router_queue_peak, queued);
      if (t.core == nullptr) continue;
      const CoreStats& cs = t.core->stats();
      s.words_sent += cs.words_sent;
      s.words_received += cs.words_received;
      s.instr_cycles += cs.instr_cycles;
      s.stall_cycles += cs.stall_cycles;
      s.idle_cycles += cs.idle_cycles;
      s.task_invocations += cs.task_invocations;
      s.fifo_highwater = std::max(s.fifo_highwater, cs.fifo_highwater);
      s.ramp_highwater = std::max(s.ramp_highwater, cs.ramp_highwater);
      s.max_iteration =
          std::max(s.max_iteration,
                   static_cast<std::uint64_t>(t.core->iteration()));
      if (t.core->done()) ++s.done_tiles;
      const auto phase = static_cast<std::size_t>(t.core->phase());
      if (phase < s.phase_tiles.size()) ++s.phase_tiles[phase];
    }
  }
  if (profiler_ != nullptr) {
    s.has_profiler = true;
    const telemetry::PhaseCatMatrix totals = profiler_->totals();
    for (std::size_t p = 0; p < totals.size(); ++p) {
      for (std::size_t c = 0; c < totals[p].size(); ++c) {
        s.prof_phase[p] += totals[p][c];
        s.prof_cat[c] += totals[p][c];
      }
    }
  }
  if (netmon_ != nullptr) netmon_->collect(&s);
  *out = s;
}

void Fabric::set_threads(int threads) {
  threads_ = std::clamp(threads, 1, 256);
}

int Fabric::band_count() const {
  return std::max(1, std::min(threads_, height_));
}

std::pair<int, int> Fabric::band_rows(int band, int bands) const {
  // Contiguous bands, balanced to within one row. Using the same formula
  // for every thread count keeps the tile->band mapping deterministic.
  const int first = band * height_ / bands;
  const int last = (band + 1) * height_ / bands;
  return {first, last};
}

void Fabric::ensure_pool(int bands) {
  if (!pool_ || pool_->threads() != bands) {
    pool_ = std::make_unique<SimThreadPool>(bands);
  }
}

// --- fault injection ----------------------------------------------------

void Fabric::set_fault_plan(const FaultPlan* plan) {
  if (plan == nullptr) {
    faults_.reset();  // stats, log and per-tile injections survive
    return;
  }
  auto check = [&](int x, int y, const char* what) {
    if (!in_bounds(x, y)) {
      throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                  " out of bounds");
    }
  };
  for (const LinkFault& f : plan->link_faults) {
    check(f.x, f.y, "link fault");
    if (f.dir == Dir::Ramp) {
      throw std::invalid_argument(
          "FaultPlan: link fault dir must be a mesh direction");
    }
    if (f.kind != FaultKind::DropWavelet &&
        f.kind != FaultKind::CorruptWavelet) {
      throw std::invalid_argument(
          "FaultPlan: link fault kind must be drop or corrupt");
    }
  }
  for (const RouterStallFault& f : plan->router_stalls) {
    check(f.x, f.y, "router stall");
  }
  for (const DeadTileFault& f : plan->dead_tiles) check(f.x, f.y, "dead tile");

  auto st = std::make_unique<FaultState>();
  st->plan = plan;
  st->tiles.resize(tiles_.size());
  for (const LinkFault& f : plan->link_faults) {
    st->tiles[tile_index(f.x, f.y)]
        .links[static_cast<std::size_t>(f.dir) % 4]
        .push_back(f);
  }
  for (const RouterStallFault& f : plan->router_stalls) {
    st->tiles[tile_index(f.x, f.y)].stall_windows.emplace_back(f.from_cycle,
                                                               f.until_cycle);
  }
  for (const DeadTileFault& f : plan->dead_tiles) {
    auto& dead = st->tiles[tile_index(f.x, f.y)].dead_from;
    dead = std::min(dead, f.from_cycle);
  }
  if (fault_injections_.size() != tiles_.size()) {
    fault_injections_.assign(tiles_.size(), 0);
  }
  faults_ = std::move(st);
}

std::uint64_t Fabric::fault_injections(int x, int y) const {
  if (!in_bounds(x, y)) throw std::invalid_argument("tile out of bounds");
  if (fault_injections_.empty()) return 0;
  return fault_injections_[tile_index(x, y)];
}

bool Fabric::router_stalled(const TileFaults& tf, std::uint64_t cycle) const {
  for (const auto& [from, until] : tf.stall_windows) {
    if (cycle >= from && cycle < until) return true;
  }
  return false;
}

void Fabric::stage_fault_event(int band, const FaultEvent& ev) {
  faults_->band_events[static_cast<std::size_t>(band)].push_back(ev);
  ++fault_injections_[tile_index(ev.x, ev.y)];
}

void Fabric::merge_fault_bands(int bands) {
  // Band-order reduction, mirroring the trace-event merge: the global
  // stats, the bounded log (including which events hit the capacity
  // drop) and any emitted tracer events come out identical to a serial
  // run for every thread count.
  for (int b = 0; b < bands; ++b) {
    auto& bs = faults_->band_stats[static_cast<std::size_t>(b)];
    fault_stats_ += bs;
    bs = FaultStats{};
    auto& evs = faults_->band_events[static_cast<std::size_t>(b)];
    for (const FaultEvent& ev : evs) {
      if (fault_log_.size() < kFaultLogCapacity) {
        fault_log_.push_back(ev);
      } else {
        ++fault_log_dropped_;
      }
      if (user_tracer_ != nullptr && user_tracer_->wants(ev.x, ev.y)) {
        user_tracer_->record(ev.cycle, ev.x, ev.y, TraceEventKind::Fault,
                             to_string(ev.kind));
      }
    }
    evs.clear();
  }
}

// ------------------------------------------------------------------------

template <bool kScanAll>
void Fabric::route_phase(int y0, int y1, int band) {
  BandCounters& bc = band_counters_[static_cast<std::size_t>(band)];
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < width_; ++x) {
      const std::size_t i = tile_index(x, y);
      Tile& t = tiles_[i];
      if (kScanAll ? t.core == nullptr : flags_.configured[i] == 0) continue;
      if (faults_ != nullptr) {
        // Before the pending test: a stall window counts every cycle of a
        // configured tile, whether or not flits are queued.
        const TileFaults& tf = faults_->tiles[i];
        if (!tf.stall_windows.empty() &&
            router_stalled(tf, stats_.cycles)) {
          // Forward nothing this cycle; arriving wavelets stay queued
          // (backpressure), nothing is lost.
          auto& bs = faults_->band_stats[static_cast<std::size_t>(band)];
          ++bs.router_stall_cycles;
          for (const auto& [from, until] : tf.stall_windows) {
            if (stats_.cycles == from) {
              stage_fault_event(band, FaultEvent{stats_.cycles, x, y,
                                                 Dir::Ramp,
                                                 FaultKind::StallRouter, 0,
                                                 0});
            }
          }
          continue;
        }
      }
      if (!kScanAll &&
          flags_.route_pending[i].load(std::memory_order_relaxed) == 0) {
        continue;
      }
      bool delivered = false;
      for (int d = 0; d < 4; ++d) {
        // Set bits in ascending order: the oracle's c = 0..23 scan with
        // the empty colors left out.
        std::uint32_t colors =
            kScanAll ? kAllColors
                     : t.router.in_occ[static_cast<std::size_t>(d)];
        while (colors != 0) {
          const int c = std::countr_zero(colors);
          colors &= colors - 1;
          auto& q = t.router.in_queues[static_cast<std::size_t>(d)]
                                      [static_cast<std::size_t>(c)];
          while (!q.empty()) {
            const Flit flit = q.front();
            const RouteRule& rule = t.router.table.rule(flit.color);

            // All-targets-or-nothing fanout with backpressure: the flit
            // stays in its virtual-channel queue (blocking only its own
            // color) until every forward queue and every local channel
            // can accept a copy.
            bool space = true;
            for (int od = 0; od < 4 && space; ++od) {
              if (rule.forwards_to(static_cast<Dir>(od)) &&
                  static_cast<int>(
                      t.router
                          .out_queues[static_cast<std::size_t>(od)][flit.color]
                          .size()) >= sim_.router_queue_depth) {
                space = false;
              }
            }
            for (std::size_t ci = 0;
                 space && ci < rule.deliver_channels.size(); ++ci) {
              if (!t.core->can_deliver(rule.deliver_channels[ci])) {
                space = false;
              }
            }
            if (!space) {
              ++bc.contended;
              break;
            }

            if (!rule.deliver_channels.empty()) {
              delivered = true;
              if (profiler_ != nullptr) {
                // Wavelet dependency edge for the critical-path analyzer:
                // one edge per delivered flit (multicast to several local
                // channels is still one arrival).
                profiler_->record_recv(x, y, stats_.cycles, flit);
              }
              if (flightrec_ != nullptr) {
                // Flight-recorder tap: the same band owns the tile, so the
                // ring is bit-identical at any thread count.
                flightrec_->record_wavelet(x, y, stats_.cycles, flit);
              }
            }
            for (int ch : rule.deliver_channels) {
              t.core->try_deliver(ch, flit.payload);
            }
            for (int od = 0; od < 4; ++od) {
              if (rule.forwards_to(static_cast<Dir>(od))) {
                auto& oq =
                    t.router.out_queues[static_cast<std::size_t>(od)]
                                       [flit.color];
                oq.push_back(flit);
                occ_set(t.router.out_occ[static_cast<std::size_t>(od)],
                        flit.color);
                flags_.link_pending[i] = 1;
                ++t.router.stats.flits_forwarded;
                t.router.stats.queue_highwater =
                    std::max(t.router.stats.queue_highwater,
                             static_cast<std::uint64_t>(oq.size()));
              }
            }
            q.pop_front();
          }
          if (q.empty()) {
            occ_clear(t.router.in_occ[static_cast<std::size_t>(d)], c);
          }
        }
      }
      // A delivery fills a ramp queue, so the core leaves the absorbing
      // idle state: it must really step this very cycle.
      if (delivered) flags_.parked[i] = 0;
      flags_.route_pending[i].store(t.router.in_any() ? 1 : 0,
                                    std::memory_order_relaxed);
    }
  }
}

template <bool kScanAll>
void Fabric::core_phase(int y0, int y1, Tracer* tracer, int band) {
  BandCounters& bc = band_counters_[static_cast<std::size_t>(band)];
  const std::size_t end = tile_index(0, y1);
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < width_; ++x) {
      const std::size_t i = tile_index(x, y);
      Tile& t = tiles_[i];
      if (kScanAll ? t.core == nullptr : flags_.configured[i] == 0) continue;
      if constexpr (!kScanAll) {
        // The Tile array stride is multiple KB and each core is its own
        // heap allocation, so a parked ocean pays ~2 cache misses per tile
        // here (the phase's dominant cost). Overlap them a few tiles ahead.
        if (i + 4 < end) __builtin_prefetch(&tiles_[i + 4]);
        if (i + 1 < end && flags_.configured[i + 1] != 0) {
          __builtin_prefetch(tiles_[i + 1].core.get());
        }
      }
      if (user_tracer_ != nullptr) t.core->set_tracer(tracer, x, y);
      bool router_faulted = false;
      if (faults_ != nullptr) {
        const TileFaults& tf = faults_->tiles[i];
        if (stats_.cycles >= tf.dead_from) {
          // Datapath death: the core stops executing but its router keeps
          // forwarding (handled by route/link phases as usual).
          ++faults_->band_stats[static_cast<std::size_t>(band)]
                .dead_tile_cycles;
          if (stats_.cycles == tf.dead_from) {
            stage_fault_event(band,
                              FaultEvent{stats_.cycles, x, y, Dir::Ramp,
                                         FaultKind::DeadTile, 0, 0});
          }
          if (profiler_ != nullptr) {
            // The cycle belongs to the fault, not the program: the core
            // never stepped, so the attribution happens here.
            profiler_->record_cycle(x, y, t.core->phase(),
                                    telemetry::CycleCat::FaultStall,
                                    stats_.cycles);
          }
          continue;
        }
        router_faulted =
            !tf.stall_windows.empty() && router_stalled(tf, stats_.cycles);
      }
      StepOutcome outcome = StepOutcome::Idle;
      if (!kScanAll && flags_.parked[i] != 0) {
        // The whole effect of step() on a parked core: one idle cycle. It
        // records no tracer or flight-recorder event, and its phase and
        // iteration cannot change, so the profiler below sees the same
        // Idle cycle step() would have produced.
        t.core->step_parked();
        ++bc.parked;
      } else {
        outcome = t.core->step(t.router, stats_.cycles);
        if (t.router.out_any()) flags_.link_pending[i] = 1;
        flags_.done[i] = t.core->done() ? 1 : 0;
        // Park on the cheap signal (an Idle outcome), confirmed by the
        // full predicate. Deliveries never activate tasks, so a parked
        // core stays parked until a delivery or reset_control.
        flags_.parked[i] =
            outcome == StepOutcome::Idle && t.core->quiescent() ? 1 : 0;
      }
      if (profiler_ != nullptr) {
        profiler_->record_cycle(x, y, t.core->phase(),
                                categorize(outcome, router_faulted),
                                stats_.cycles);
        profiler_->record_iteration(x, y, t.core->iteration(),
                                    stats_.cycles);
      }
    }
  }
}

template <bool kScanAll>
std::uint64_t Fabric::link_phase(int y0, int y1, int band) {
  // Cross-tile mutation lives here and only here: tile (x, y) moves flits
  // from its own out_queues[d] into neighbor (x+dx, y+dy)'s
  // in_queues[opposite(d)]. That queue has exactly one writer (this tile)
  // and no reader during the link phase, so bands — which shard over the
  // *source* tile — never race, including across band boundaries.
  std::uint64_t transfers = 0;
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < width_; ++x) {
      const std::size_t i = tile_index(x, y);
      if (!kScanAll && flags_.link_pending[i] == 0) continue;
      Tile& t = tiles_[i];
      for (int d = 0; d < 4; ++d) {
        std::uint32_t& out_occ = t.router.out_occ[static_cast<std::size_t>(d)];
        // An empty link moves nothing, and its net-monitor audit below
        // records nothing either.
        if (!kScanAll && out_occ == 0) continue;
        const Dir dir = static_cast<Dir>(d);
        const auto [dx, dy] = wse::step(dir);
        const int nx = x + dx;
        const int ny = y + dy;
        if (!in_bounds(nx, ny)) continue;
        const std::size_t ni = tile_index(nx, ny);
        Tile& nb = tiles_[ni];
        auto& in_queues =
            nb.router.in_queues[static_cast<std::size_t>(opposite(dir))];
        // 32-bit link: move up to one link-cycle of halfwords, choosing
        // colors round-robin; each color lands in its own virtual-channel
        // input queue at the neighbor.
        int budget = kLinkHalfwordsPerCycle;
        auto& queues = t.router.out_queues[static_cast<std::size_t>(d)];
        int& rr = t.router.rr[static_cast<std::size_t>(d)];
        bool pushed = false;
        while (budget > 0) {
          bool moved = false;
          for (int k = 0; k < kNumColors; ++k) {
            const int c = (rr + k) % kNumColors;
            auto& q = queues[static_cast<std::size_t>(c)];
            if (kScanAll ? q.empty()
                         : (out_occ >> static_cast<unsigned>(c) & 1u) == 0) {
              continue;
            }
            const int cost = q.front().wide ? 2 : 1;
            if (cost > budget) continue;
            auto& inq = in_queues[static_cast<std::size_t>(c)];
            if (inq.halfwords() + cost > kInQueueHalfwords) continue;
            Flit flit = q.front();
            q.pop_front();
            if (q.empty()) occ_clear(out_occ, c);
            budget -= cost;
            rr = (c + 1) % kNumColors;
            moved = true;
            // Link faults fire at the instant the wavelet traverses the
            // link. The decision is a pure hash of (plan seed, source
            // tile, dir, per-link ordinal) — all owned by the source
            // tile's band — so it is thread-count independent. A drop
            // still consumes link budget (the word was transmitted, then
            // lost) but is not counted as a transfer; corruption XORs the
            // payload in flight and delivers it.
            bool dropped = false;
            if (faults_ != nullptr) {
              TileFaults& tf = faults_->tiles[i];
              auto& lf = tf.links[static_cast<std::size_t>(d)];
              if (!lf.empty()) {
                const std::uint64_t ordinal =
                    tf.link_ordinal[static_cast<std::size_t>(d)]++;
                auto& bs =
                    faults_->band_stats[static_cast<std::size_t>(band)];
                for (std::size_t fi = 0; fi < lf.size(); ++fi) {
                  const LinkFault& f = lf[fi];
                  if (stats_.cycles < f.from_cycle ||
                      stats_.cycles >= f.until_cycle) {
                    continue;
                  }
                  if (fault_roll(faults_->plan->seed + fi, x, y, dir,
                                 ordinal) >= f.probability) {
                    continue;
                  }
                  if (f.kind == FaultKind::DropWavelet) {
                    ++bs.wavelets_dropped;
                    stage_fault_event(
                        band, FaultEvent{stats_.cycles, x, y, dir,
                                         FaultKind::DropWavelet,
                                         flit.payload, 0});
                    dropped = true;
                    break;
                  }
                  if (f.kind == FaultKind::CorruptWavelet) {
                    const std::uint32_t before = flit.payload;
                    flit.payload ^= f.corrupt_mask;
                    ++bs.wavelets_corrupted;
                    stage_fault_event(
                        band, FaultEvent{stats_.cycles, x, y, dir,
                                         FaultKind::CorruptWavelet, before,
                                         flit.payload});
                  }
                }
              }
            }
            if (!dropped) {
              inq.push_back(flit);
              occ_set(nb.router.in_occ[static_cast<std::size_t>(opposite(dir))],
                      c);
              pushed = true;
              ++t.router.stats.link_words[static_cast<std::size_t>(d)];
              ++transfers;
              if (netmon_ != nullptr) netmon_->record_move(i, d, c);
            }
            break;
          }
          if (!moved) break;
        }
        if (pushed) {
          // Cross-band marking: the destination tile may belong to another
          // band, hence the relaxed atomic (every writer stores 1).
          flags_.route_pending[ni].store(1, std::memory_order_relaxed);
        }
        if (netmon_ != nullptr) {
          // End-of-phase audit of this link: a color still holding flits
          // either lost the budget race to its siblings (normal
          // multiplexing) or sits blocked behind a full destination
          // virtual-channel queue — only the latter is congestion. All
          // counters are owned by the source tile's band.
          std::uint64_t backlog = 0;
          bool any_blocked = false;
          for (int c = 0; out_occ != 0 && c < kNumColors; ++c) {
            if ((out_occ & (1u << static_cast<unsigned>(c))) == 0) continue;
            auto& q = queues[static_cast<std::size_t>(c)];
            const auto hw = static_cast<std::uint64_t>(q.halfwords());
            backlog += hw;
            netmon_->record_backlog(i, d, c, hw);
            const int cost = q.front().wide ? 2 : 1;
            if (in_queues[static_cast<std::size_t>(c)].halfwords() + cost >
                kInQueueHalfwords) {
              netmon_->record_blocked(i, d, c);
              any_blocked = true;
            }
          }
          netmon_->record_link_cycle(i, d, backlog, any_blocked);
        }
      }
      flags_.link_pending[i] = t.router.out_any() ? 1 : 0;
    }
  }
  return transfers;
}

void Fabric::merge_staged_trace_events() {
  // Band-order merge reproduces the serial (row-major) event order; the
  // user tracer's own capacity accounting then drops exactly the same
  // events a serial run would drop. Focus filtering happens here because
  // the staging tracers record unconditionally.
  for (auto& staged : trace_staging_) {
    if (!staged) continue;
    for (const TraceEvent& ev : staged->events()) {
      if (user_tracer_->wants(ev.tile_x, ev.tile_y)) {
        user_tracer_->record(ev.cycle, ev.tile_x, ev.tile_y, ev.kind,
                             ev.label);
      }
    }
    staged->clear();
  }
}

void Fabric::step() {
  if (backend_ == Backend::Turbo) {
    step_phases<false>();
  } else {
    step_phases<true>();
  }
}

template <bool kScanAll>
void Fabric::step_phases() {
  const int bands = band_count();
  const bool staged_trace = bands > 1 && user_tracer_ != nullptr;
  if (bands > 1) {
    ensure_pool(bands);
    if (staged_trace) {
      trace_staging_.resize(static_cast<std::size_t>(bands));
      for (auto& staged : trace_staging_) {
        if (!staged) {
          staged = std::make_unique<Tracer>(
              std::numeric_limits<std::size_t>::max());
        }
      }
    }
  }
  if (faults_ != nullptr) {
    // (Re)size the per-band fault staging. Merging happens after *each*
    // phase so the global event order is phase-major then row-major —
    // exactly the serial order — at any thread count.
    faults_->band_stats.assign(static_cast<std::size_t>(bands),
                               FaultStats{});
    faults_->band_events.resize(static_cast<std::size_t>(bands));
  }
  band_counters_.assign(static_cast<std::size_t>(bands), BandCounters{});
  band_link_transfers_.assign(static_cast<std::size_t>(bands), 0);
  // Run one phase over every row band: inline when serial, on the pool
  // (with a barrier at the end) otherwise.
  const auto each_band = [&](auto&& phase) {
    if (bands <= 1) {
      phase(0, 0, height_);
      return;
    }
    pool_->run([&](int band) {
      const auto [y0, y1] = band_rows(band, bands);
      phase(band, y0, y1);
    });
  };

  each_band([&](int band, int y0, int y1) {
    route_phase<kScanAll>(y0, y1, band);
  });
  if (faults_ != nullptr) merge_fault_bands(bands);
  each_band([&](int band, int y0, int y1) {
    // A serial step hands every core `user_tracer_` itself, so a serial
    // step after a parallel one (set_threads) never leaves cores pointing
    // at stale per-band staging buffers.
    Tracer* tracer =
        staged_trace ? trace_staging_[static_cast<std::size_t>(band)].get()
                     : user_tracer_;
    core_phase<kScanAll>(y0, y1, tracer, band);
  });
  if (staged_trace) merge_staged_trace_events();
  if (faults_ != nullptr) merge_fault_bands(bands);
  each_band([&](int band, int y0, int y1) {
    band_link_transfers_[static_cast<std::size_t>(band)] =
        link_phase<kScanAll>(y0, y1, band);
  });
  for (const std::uint64_t n : band_link_transfers_) {
    stats_.link_transfers += n;
  }
  if (faults_ != nullptr) merge_fault_bands(bands);

  if constexpr (!kScanAll) {
    if (!last_step_turbo_) ++turbo_stats_.promotions;
    for (const BandCounters& bc : band_counters_) {
      turbo_stats_.parked_tile_cycles += bc.parked;
      turbo_stats_.contended_tile_cycles += bc.contended;
    }
    ++turbo_stats_.turbo_cycles;
  }
  last_step_turbo_ = !kScanAll;
  if (profiler_ != nullptr) profiler_->add_observed_cycle();
  ++stats_.cycles;
  // Sampling happens in this serial tail: every band has merged, the
  // fabric is quiescent, so a frame reads the same state a serial run
  // would see — bit-identical at any thread count.
  if (sampler_ != nullptr && sampler_->due(stats_.cycles)) {
    telemetry::TimeSeriesSample s;
    collect_sample(&s);
    sampler_->record(s);
  }
}

void Fabric::set_tracer(Tracer* tracer) {
  user_tracer_ = tracer;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      Tile& t = tiles_[tile_index(x, y)];
      if (t.core) t.core->set_tracer(tracer, x, y);
    }
  }
  if (tracer == nullptr) trace_staging_.clear();
}

std::uint64_t Fabric::progress_signature() const {
  // Any forward progress moves at least one of these monotone counters:
  // a computing core bumps instr_cycles, a moving wavelet bumps
  // link_transfers or flits_forwarded or words_received, a waking task
  // bumps task_invocations. Stall/idle counters are deliberately absent —
  // they advance on a wedged fabric too.
  std::uint64_t sig = stats_.link_transfers;
  for (const auto& t : tiles_) {
    sig += t.router.stats.flits_forwarded;
    if (t.core == nullptr) continue;
    const CoreStats& cs = t.core->stats();
    sig += cs.instr_cycles + cs.words_received + cs.task_invocations +
           cs.elements_processed;
  }
  return sig;
}

std::vector<std::pair<int, int>> Fabric::blocked_tiles(
    std::size_t cap) const {
  std::vector<std::pair<int, int>> out;
  // First pass: tiles with in-flight work that cannot move (the usual
  // deadlock participants).
  for (int y = 0; y < height_ && out.size() < cap; ++y) {
    for (int x = 0; x < width_ && out.size() < cap; ++x) {
      const auto& t = tiles_[tile_index(x, y)];
      if (t.core == nullptr || t.core->done()) continue;
      if (!t.core->quiescent()) out.emplace_back(x, y);
    }
  }
  if (!out.empty()) return out;
  // Fallback: everything went quiescent with unfinished work — tiles
  // waiting on an activation that will never come.
  for (int y = 0; y < height_ && out.size() < cap; ++y) {
    for (int x = 0; x < width_ && out.size() < cap; ++x) {
      const auto& t = tiles_[tile_index(x, y)];
      if (t.core != nullptr && !t.core->done()) out.emplace_back(x, y);
    }
  }
  return out;
}

StopInfo Fabric::run(std::uint64_t max_cycles) {
  StopInfo info;
  const std::uint64_t start = stats_.cycles;
  const std::uint64_t wd = watchdog_cycles_;
  // Watchdog bookkeeping is read-only (counter snapshots), so enabling it
  // cannot perturb the simulation — it only decides when run() returns.
  std::uint64_t last_sig = wd != 0 ? progress_signature() : 0;
  std::uint64_t last_progress_cycle = stats_.cycles;
  bool all_done_stop = false;
  bool quiescent_stop = false;
  bool watchdog_stop = false;
  while (stats_.cycles - start < max_cycles) {
    step();
    if (all_done()) {
      all_done_stop = true;
      break;
    }
    if (quiescent()) {
      quiescent_stop = true;
      break;
    }
    if (wd != 0 && (stats_.cycles - start) % wd == 0) {
      const std::uint64_t sig = progress_signature();
      if (sig != last_sig) {
        last_sig = sig;
        last_progress_cycle = stats_.cycles;
      } else if (stats_.cycles - last_progress_cycle >= wd) {
        watchdog_stop = true;
        break;
      }
    }
  }
  info.cycles = stats_.cycles - start;
  if (all_done_stop || all_done()) {
    info.reason = StopInfo::Reason::AllDone;
    return info;
  }
  if (watchdog_stop) {
    info.reason = StopInfo::Reason::Watchdog;
    info.deadlock = true;
    info.stalled_cycles = stats_.cycles - last_progress_cycle;
  } else if (quiescent_stop) {
    // Totally silent with unfinished work: nothing can ever wake it.
    info.reason = StopInfo::Reason::Quiescent;
    info.deadlock = true;
  } else {
    info.reason = StopInfo::Reason::MaxCycles;
    return info; // budget ran out mid-flight; no verdict, no forensics
  }
  info.blocked_tiles = blocked_tiles();
  std::string report = "stopped at cycle " + std::to_string(stats_.cycles) +
                       " (" + StopInfo::to_string(info.reason) + ", " +
                       std::to_string(info.blocked_tiles.size()) +
                       " blocked tiles";
  if (info.stalled_cycles > 0) {
    report += ", no progress for " + std::to_string(info.stalled_cycles) +
              " cycles";
  }
  report += ")\n";
  constexpr std::size_t kReportTiles = 8;
  for (std::size_t i = 0;
       i < info.blocked_tiles.size() && i < kReportTiles; ++i) {
    const auto [x, y] = info.blocked_tiles[i];
    report += "  (" + std::to_string(x) + "," + std::to_string(y) + ") " +
              tiles_[tile_index(x, y)].core->debug_state() + "\n";
  }
  if (info.blocked_tiles.size() > kReportTiles) {
    report += "  ... " +
              std::to_string(info.blocked_tiles.size() - kReportTiles) +
              " more\n";
  }
  info.report = std::move(report);
  return info;
}

bool Fabric::all_done() const {
  // Both predicates run once per cycle inside run(). The fast loop reads
  // the dense flags instead of striding through every multi-KB Tile; the
  // reference oracle keeps its full scan, so a stale flag shows up as a
  // conformance diff.
  if (backend_ == Backend::Turbo) {
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
      // An unconfigured tile never raises done.
      if (flags_.configured[i] == 0 || flags_.done[i] == 0) return false;
    }
    return true;
  }
  for (const auto& t : tiles_) {
    if (!t.core || !t.core->done()) return false;
  }
  return true;
}

bool Fabric::quiescent() const {
  if (backend_ == Backend::Turbo) {
    // Unconfigured tiles are skipped, queues and all, exactly as in the
    // scan below; parked implies core quiescence by construction.
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
      if (flags_.configured[i] == 0) continue;
      if (flags_.route_pending[i].load(std::memory_order_relaxed) != 0 ||
          flags_.link_pending[i] != 0) {
        return false;
      }
      if (flags_.parked[i] == 0 && !tiles_[i].core->quiescent()) return false;
    }
    return true;
  }
  for (const auto& t : tiles_) {
    if (!t.core) continue;
    if (!t.core->quiescent()) return false;
    for (int d = 0; d < 4; ++d) {
      for (const auto& q : t.router.in_queues[static_cast<std::size_t>(d)]) {
        if (!q.empty()) return false;
      }
      for (const auto& q :
           t.router.out_queues[static_cast<std::size_t>(d)]) {
        if (!q.empty()) return false;
      }
    }
  }
  return true;
}

void Fabric::reset_control() {
  // The occupancy masks are exact, so only the queues they name hold
  // flits; every other ring is already empty.
  const auto clear_occupied = [](auto& queues, std::uint32_t mask) {
    for (; mask != 0; mask &= mask - 1) {
      queues[static_cast<std::size_t>(std::countr_zero(mask))].clear();
    }
  };
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    Tile& t = tiles_[i];
    if (t.core) t.core->reset_control();
    for (std::size_t d = 0; d < 4; ++d) {
      clear_occupied(t.router.in_queues[d], t.router.in_occ[d]);
      clear_occupied(t.router.out_queues[d], t.router.out_occ[d]);
    }
    t.router.rr = {0, 0, 0, 0};
    t.router.in_occ = {0, 0, 0, 0};
    t.router.out_occ = {0, 0, 0, 0};
    refresh_flags(i);
  }
}

} // namespace wss::wse
