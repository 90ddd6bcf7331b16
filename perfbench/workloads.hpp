#pragma once

// The benchmark's three simulator workloads, each driven only through the
// public API of wsekernels / stencilfe. A workload generates its inputs
// from the seed in its constructor (before any timing), then wss_perfbench
// (main.cpp) repeats: prepare_op (untimed) -> run_op (timed) -> check_op
// (untimed). The fourth benchmark workload, bicgstab_watched, is the
// bicgstab kind run under observer environment variables.

#include <cstdint>
#include <memory>
#include <string>

#include "telemetry/span_tracer.hpp"
#include "wse/fabric.hpp"
#include "wse/flow_table.hpp"

namespace perfbench {

/// Observer artifacts one op is expected to leave in the ledger
/// directory when the run is watched (WSS_LEDGER_DIR and friends set).
struct ArtifactsPerOp {
  int series = 0;
  int netflows = 0;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Construct the simulation and load the initial inputs: everything up
  /// to "first op ready". Spans (may be null) wrap each public call.
  virtual void setup(wss::telemetry::SpanTracer* spans) = 0;
  /// Destroy the simulation (between repeated set-ups, and at the end).
  virtual void teardown() = 0;
  [[nodiscard]] virtual wss::wse::Fabric& fabric() = 0;

  /// Host-side input preparation for op `i`, outside the timed region.
  virtual void prepare_op(int /*i*/) {}
  /// The timed op.
  virtual void run_op(int i, wss::telemetry::SpanTracer* spans) = 0;
  /// Check op `i`'s result; "" when correct, else the reason. With
  /// `corrupt`, one bit of the result is flipped first (self-test).
  [[nodiscard]] virtual std::string check_op(int i, bool corrupt) = 0;
  /// Checks that need the simulation torn down first (e.g. a second
  /// reference simulation); "" when correct.
  [[nodiscard]] virtual std::string final_check() { return ""; }

  /// The analytic model's simulated cycles for one op.
  [[nodiscard]] virtual double model_cycles_per_op() const = 0;
  /// Per-tile program memory as reported by wsekernels (0 when the
  /// workload's program is not a wsekernels program).
  [[nodiscard]] virtual int tile_memory_bytes() const { return 0; }
  /// BiCGStab iterations per op, pencil length (0 when not BiCGStab).
  [[nodiscard]] virtual int solver_iterations() const { return 0; }
  [[nodiscard]] virtual int pencil() const { return 0; }
  [[nodiscard]] virtual wss::wse::FlowTable flow_table() const = 0;
  [[nodiscard]] virtual ArtifactsPerOp artifacts_per_op() const { return {}; }
};

/// kind: "bicgstab", "allreduce_wave" or "stencilfe_heat". `watched`
/// tells bicgstab to check its bits against an unobserved reference run.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& kind,
                                                      std::uint64_t seed,
                                                      bool watched);

} // namespace perfbench
