#pragma once

// Shared harness for the generic stencil front-end benches
// (docs/STENCILFE.md). Each workload bench runs its transition function
// on both execution backends at several thread counts, gates
// bit-equality against the host golden and the reference run in-binary
// (nonzero exit on violation — the sim_throughput pattern), and prints
// the analytic perfmodel projection next to the measured cycles. The
// emitted rows are re-checked by the bench/baselines regression gate in
// CI, so a change that shifts a generation's cycle count or breaks the
// projection turns CI red.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "perfmodel/flow_expectations.hpp"
#include "perfmodel/stencilfe_model.hpp"
#include "stencilfe/executor.hpp"
#include "stencilfe/golden.hpp"
#include "stencilfe/workloads.hpp"
#include "telemetry/global.hpp"
#include "telemetry/netmon.hpp"

namespace wss::bench {

struct StencilFeRun {
  double seconds = 0.0;
  std::uint64_t cycles = 0; ///< last generation's cycles
  std::uint64_t link_transfers = 0; ///< whole-run fabric link flits
  std::vector<fp16_t> state;
};

inline StencilFeRun run_stencilfe(const stencilfe::TransitionFn& fn, int nx,
                                  int ny, const std::vector<fp16_t>& init,
                                  int generations, const wse::CS1Params& arch,
                                  wse::Backend backend, int threads,
                                  telemetry::NetMonitor* netmon = nullptr) {
  wse::SimParams sim;
  sim.sim_threads = threads;
  // Pin the backend and disable the watchdog: these benches compare
  // reference and turbo side by side, so ambient WSS_SIM_BACKEND /
  // WSS_WATCHDOG_CYCLES must not change what is timed.
  sim.backend = backend;
  stencilfe::StencilExecutor ex(fn, nx, ny, arch, sim);
  ex.fabric().set_watchdog(0);
  if (netmon != nullptr) {
    netmon->set_flow_table(ex.flow_table());
    ex.fabric().set_net_monitor(netmon);
  }
  ex.load(init);
  const auto t0 = std::chrono::steady_clock::now();
  ex.step(generations);
  const auto t1 = std::chrono::steady_clock::now();
  if (netmon != nullptr) ex.fabric().set_net_monitor(nullptr);
  StencilFeRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.cycles = ex.last_generation_cycles();
  r.state = ex.read_state();
  r.link_transfers = ex.fabric().stats().link_transfers;
  return r;
}

inline bool same_f16_bits(const std::vector<fp16_t>& a,
                          const std::vector<fp16_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits() != b[i].bits()) return false;
  }
  return true;
}

/// One workload section: reference@1 is the anchor; the host golden,
/// reference@8, turbo@1 and turbo@8 must all reproduce its state bits
/// (and the fabric runs its cycle count); the perfmodel projection must
/// equal the measured cycles exactly. Emits the table rows and returns
/// false if any gate failed.
inline bool stencilfe_section(const char* tag,
                              const stencilfe::TransitionFn& fn, int nx,
                              int ny, const std::vector<fp16_t>& init,
                              int generations, const wse::CS1Params& arch) {
  using wse::Backend;
  // The network observatory rides the reference anchor: per-flow word
  // accounting over the whole run, folded into `netflow.<flow>.words`
  // registry counters (the benchhistory regression gate trends them) and
  // held to exact conservation against the fabric's link-transfer count
  // and the analytic per-generation projection.
  telemetry::NetMonitor netmon;
  const StencilFeRun base = run_stencilfe(fn, nx, ny, init, generations, arch,
                                          Backend::Reference, 1, &netmon);
  bool bits_ok = true;
  {
    const telemetry::NetFlowsFile nf = telemetry::build_netflows(
        netmon, tag, /*run_id=*/"", /*cycles_now=*/0, base.link_transfers,
        static_cast<std::uint64_t>(generations),
        perfmodel::stencilfe_flow_expectations(fn, nx, ny),
        telemetry::netflows_topk());
    std::uint64_t flow_words = 0;
    for (const telemetry::NetFlowTotals& f : nf.flows) {
      flow_words += f.words;
      telemetry::global_registry()
          .counter("netflow." + f.flow + ".words")
          .add(f.words);
      if (f.exact && f.expected_words_per_iteration > 0.0) {
        const double expected =
            f.expected_words_per_iteration * static_cast<double>(generations);
        if (static_cast<double>(f.words) != expected) {
          bits_ok = false;
          std::printf("  MISMATCH: %s flow %s moved %llu words, projection "
                      "says %.0f\n",
                      tag, f.flow.c_str(),
                      static_cast<unsigned long long>(f.words), expected);
        }
      }
    }
    if (flow_words != base.link_transfers) {
      bits_ok = false;
      std::printf("  MISMATCH: %s flow words %llu != link transfers %llu\n",
                  tag, static_cast<unsigned long long>(flow_words),
                  static_cast<unsigned long long>(base.link_transfers));
    }
    char label[96];
    std::snprintf(label, sizeof label, "netflow words conserved (%s)", tag);
    row(label, 0.0, flow_words == base.link_transfers ? 1.0 : 0.0, "bool");
  }
  if (!same_f16_bits(base.state,
                     stencilfe::golden_run(fn, nx, ny, init, generations))) {
    bits_ok = false;
    std::printf("  MISMATCH: %s reference diverged from host golden\n", tag);
  }
  struct Variant {
    Backend backend;
    int threads;
    const char* name;
  };
  for (const Variant v : {Variant{Backend::Reference, 8, "reference@8"},
                          Variant{Backend::Turbo, 1, "turbo@1"},
                          Variant{Backend::Turbo, 8, "turbo@8"}}) {
    const StencilFeRun r = run_stencilfe(fn, nx, ny, init, generations, arch,
                                         v.backend, v.threads);
    if (!same_f16_bits(r.state, base.state) || r.cycles != base.cycles) {
      bits_ok = false;
      std::printf("  MISMATCH: %s %s diverged from reference@1\n", tag,
                  v.name);
    }
  }
  const perfmodel::StencilFeProjection projection =
      perfmodel::project_stencilfe_generation(fn, nx, ny);
  const bool projection_exact =
      static_cast<std::uint64_t>(projection.total()) == base.cycles;
  if (!projection_exact) {
    std::printf("  MISMATCH: %s projection %.0f != measured %llu cycles\n",
                tag, projection.total(),
                static_cast<unsigned long long>(base.cycles));
  }
  std::printf("%-14s %3dx%-3d gen %2d  measured %6llu cyc/gen  projected "
              "%6.0f (exchange %.0f + compute %.0f)  %8.4f s host\n",
              tag, nx, ny, generations,
              static_cast<unsigned long long>(base.cycles),
              projection.total(), projection.exchange_cycles,
              projection.compute_cycles, base.seconds);
  char label[96];
  std::snprintf(label, sizeof label, "cycles/generation (%s)", tag);
  row(label, 0.0, static_cast<double>(base.cycles), "cycles");
  std::snprintf(label, sizeof label, "projected cycles/generation (%s)", tag);
  row(label, 0.0, projection.total(), "cycles");
  std::snprintf(label, sizeof label, "projection exact (%s)", tag);
  row(label, 0.0, projection_exact ? 1.0 : 0.0, "bool");
  std::snprintf(label, sizeof label, "bit-exact backends+threads (%s)", tag);
  row(label, 0.0, bits_ok ? 1.0 : 0.0, "bool");
  return bits_ok && projection_exact;
}

} // namespace wss::bench
