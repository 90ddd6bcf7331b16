#include "workloads.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "perfmodel/cs1_model.hpp"
#include "perfmodel/stencilfe_model.hpp"
#include "stencil/generators.hpp"
#include "stencilfe/executor.hpp"
#include "stencilfe/golden.hpp"
#include "stencilfe/workloads.hpp"
#include "wsekernels/allreduce_program.hpp"
#include "wsekernels/bicgstab_program.hpp"
#include "wsekernels/wse_bicgstab.hpp"

extern char** environ;

namespace perfbench {
namespace {

using wss::fp16_t;
using wss::telemetry::SpanTracer;

// wse::Fabric keeps a pointer to the CS1Params it was built with, so the
// parameters must outlive every simulation.
const wss::wse::CS1Params kArch{};

/// Unsets every WSS_* variable except the backend and thread count for
/// its lifetime, restoring them afterwards: an unobserved run inside an
/// observed process. Single-threaded use only (setenv is not reentrant).
class ObserverEnvScrub {
public:
  ObserverEnvScrub() {
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      const std::size_t eq = kv.find('=');
      const std::string name = kv.substr(0, eq);
      if (name.rfind("WSS_", 0) == 0 && name != "WSS_SIM_BACKEND" &&
          name != "WSS_SIM_THREADS") {
        saved_.emplace_back(name, kv.substr(eq + 1));
      }
    }
    for (const auto& [name, value] : saved_) ::unsetenv(name.c_str());
  }
  ~ObserverEnvScrub() {
    for (const auto& [name, value] : saved_) {
      ::setenv(name.c_str(), value.c_str(), 1);
    }
  }
  ObserverEnvScrub(const ObserverEnvScrub&) = delete;
  ObserverEnvScrub& operator=(const ObserverEnvScrub&) = delete;

private:
  std::vector<std::pair<std::string, std::string>> saved_;
};

template <typename T>
std::string first_bit_mismatch(const std::vector<T>& got,
                               const std::vector<T>& want,
                               const char* what) {
  if (got.size() != want.size()) {
    return std::string(what) + ": size " + std::to_string(got.size()) +
           " != " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      return std::string(what) + ": bits differ at element " +
             std::to_string(i);
    }
  }
  return "";
}

std::vector<std::uint16_t> bits_of(const wss::Field3<fp16_t>& f) {
  std::vector<std::uint16_t> out(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) out[i] = f[i].bits();
  return out;
}

// --- bicgstab -------------------------------------------------------------

/// 24x24x64 Jacobi-preconditioned momentum-like system, K = 4 unrolled
/// iterations; one op is one BicgstabSimulation::run(b).
class BicgstabWorkload final : public Workload {
public:
  static constexpr int kIterations = 4;

  BicgstabWorkload(std::uint64_t seed, bool watched)
      : grid_(24, 24, 64), watched_(watched) {
    auto ad = wss::make_momentum_like7(grid_, 0.5, seed);
    auto bd = wss::make_rhs(ad, wss::make_smooth_solution(grid_));
    const wss::Field3<double> bp = wss::precondition_jacobi(ad, bd);
    a_ = wss::convert_stencil<fp16_t>(ad);
    b_ = wss::convert_field<fp16_t>(bp);
  }

  void setup(SpanTracer* spans) override {
    const auto span = SpanTracer::Scoped(spans, "wsekernels.build");
    sim_ = std::make_unique<wss::wsekernels::BicgstabSimulation>(
        a_, kIterations, kArch, wss::wse::SimParams{});
  }
  void teardown() override { sim_.reset(); }
  wss::wse::Fabric& fabric() override { return sim_->fabric(); }

  void run_op(int /*i*/, SpanTracer* spans) override {
    const auto span = SpanTracer::Scoped(spans, "wsekernels.run");
    last_ = sim_->run(b_);
  }

  std::string check_op(int i, bool corrupt) override {
    std::vector<std::uint16_t> x = bits_of(last_.x);
    const std::vector<std::uint16_t> r = bits_of(last_.r);
    if (ref_x_.empty()) {
      if (i != 0) return "no reference op";
      if (std::string why = check_tier2(); !why.empty()) return why;
      ref_x_ = x;
      ref_r_ = r;
    }
    if (corrupt) x[0] ^= 1u;
    std::string why = first_bit_mismatch(x, ref_x_, "x vs first op");
    if (why.empty()) why = first_bit_mismatch(r, ref_r_, "r vs first op");
    return why;
  }

  /// A watched run must produce the bits of an unwatched one: rebuild the
  /// simulation with the observer variables unset and compare.
  std::string final_check() override {
    if (!watched_ || ref_x_.empty()) return "";
    const ObserverEnvScrub scrub;
    wss::wsekernels::BicgstabSimulation plain(
        a_, kIterations, kArch, wss::wse::SimParams{});
    const auto res = plain.run(b_);
    std::string why = first_bit_mismatch(ref_x_, bits_of(res.x),
                                         "x vs unwatched run");
    if (why.empty()) {
      why = first_bit_mismatch(ref_r_, bits_of(res.r), "r vs unwatched run");
    }
    return why;
  }

  double model_cycles_per_op() const override {
    return wss::perfmodel::CS1Model{}.iteration_cycles(grid_) * kIterations;
  }
  int tile_memory_bytes() const override {
    return sim_ != nullptr ? sim_->tile_memory_bytes() : 0;
  }
  int solver_iterations() const override { return kIterations; }
  int pencil() const override { return grid_.nz; }
  wss::wse::FlowTable flow_table() const override {
    return wss::wse::bicgstab_flow_table();
  }
  ArtifactsPerOp artifacts_per_op() const override { return {1, 1}; }

private:
  /// The first op against the numerics-faithful tier-2 solver, with the
  /// bounds of the simulator's own BiCGStab program test.
  std::string check_tier2() const {
    const wss::wsekernels::WseBicgstabSolver tier2(a_);
    wss::Field3<fp16_t> x2(grid_, fp16_t(0.0));
    wss::SolveControls c;
    c.max_iterations = kIterations;
    c.tolerance = 0.0;
    const wss::SolveResult t2 = tier2.solve(b_, x2, c);
    if (t2.iterations != kIterations || t2.relative_residuals.empty()) {
      return "tier-2 solver stopped early";
    }
    double dx = 0.0, rn = 0.0, bn = 0.0;
    for (std::size_t i = 0; i < x2.size(); ++i) {
      const double d = last_.x[i].to_double() - x2[i].to_double();
      dx += d * d;
      rn += last_.r[i].to_double() * last_.r[i].to_double();
      bn += b_[i].to_double() * b_[i].to_double();
    }
    const double rms = std::sqrt(dx / static_cast<double>(x2.size()));
    if (!(rms < 2e-2)) return "x RMS vs tier-2 " + std::to_string(rms);
    const double lg_sim = std::log10(std::sqrt(rn / bn) + 1e-12);
    const double lg_t2 = std::log10(t2.relative_residuals.back() + 1e-12);
    if (!(std::abs(lg_sim - lg_t2) <= 0.4)) {
      return "log10 residual " + std::to_string(lg_sim) + " vs tier-2 " +
             std::to_string(lg_t2);
    }
    return "";
  }

  wss::Grid3 grid_;
  bool watched_;
  wss::Stencil7<fp16_t> a_;
  wss::Field3<fp16_t> b_;
  std::unique_ptr<wss::wsekernels::BicgstabSimulation> sim_;
  wss::wsekernels::BicgstabSimResult last_;
  std::vector<std::uint16_t> ref_x_, ref_r_;
};

// --- allreduce_wave -------------------------------------------------------

/// 96x96 AllReduce; one op is one run() on a fresh seeded contribution
/// vector (a pool generated up front, cycled).
class AllReduceWorkload final : public Workload {
public:
  static constexpr int kSide = 96;
  static constexpr int kPool = 32;

  explicit AllReduceWorkload(std::uint64_t seed) {
    wss::Rng rng(seed);
    for (int k = 0; k < kPool; ++k) {
      std::vector<float> v(static_cast<std::size_t>(kSide) * kSide);
      for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
      expected_.push_back(wss::wsekernels::wse_allreduce_tree(v, kSide, kSide));
      pool_.push_back(std::move(v));
    }
  }

  void setup(SpanTracer* spans) override {
    const auto span = SpanTracer::Scoped(spans, "wsekernels.build");
    sim_ = std::make_unique<wss::wsekernels::AllReduceSimulation>(
        kSide, kSide, kArch, wss::wse::SimParams{});
  }
  void teardown() override { sim_.reset(); }
  wss::wse::Fabric& fabric() override { return sim_->fabric(); }

  void run_op(int i, SpanTracer* spans) override {
    const auto span = SpanTracer::Scoped(spans, "wsekernels.run");
    last_ = sim_->run(pool_[static_cast<std::size_t>(i % kPool)]);
  }

  std::string check_op(int i, bool corrupt) override {
    std::vector<float> got = last_.values;
    if (corrupt && !got.empty()) got[0] = std::nextafter(got[0], 10.0f);
    const std::vector<float> want(
        got.size(), expected_[static_cast<std::size_t>(i % kPool)]);
    return first_bit_mismatch(got, want, "tile value vs wse_allreduce_tree");
  }

  double model_cycles_per_op() const override {
    return wss::perfmodel::CS1Model{}.allreduce_cycles(kSide, kSide);
  }
  wss::wse::FlowTable flow_table() const override {
    wss::wse::FlowTable t;
    wss::wse::add_allreduce_flows(t);
    return t;
  }
  ArtifactsPerOp artifacts_per_op() const override { return {1, 0}; }

private:
  std::vector<std::vector<float>> pool_;
  std::vector<float> expected_;
  std::unique_ptr<wss::wsekernels::AllReduceSimulation> sim_;
  wss::wsekernels::AllReduceResult last_;
};

// --- stencilfe_heat -------------------------------------------------------

/// 64x64 Dirichlet heat diffusion; one op is step(1) + read_state(), and
/// every 10th op first load()s the state read back with one seeded
/// hotspot injected. A host golden mirror follows every state.
class StencilHeatWorkload final : public Workload {
public:
  static constexpr int kSide = 64;
  static constexpr int kLoadEvery = 10;
  static constexpr int kHotspots = 64;

  explicit StencilHeatWorkload(std::uint64_t seed)
      : fn_(wss::stencilfe::heat_fn()),
        init_(wss::stencilfe::random_state(fn_, kSide, kSide, seed)) {
    wss::Rng rng(seed ^ 0x5eedu);
    for (int k = 0; k < kHotspots; ++k) {
      const auto cell = static_cast<std::size_t>(rng.below(init_.size()));
      hotspots_.emplace_back(cell, fp16_t(rng.uniform(2.0, 8.0)));
    }
  }

  void setup(SpanTracer* spans) override {
    {
      const auto span = SpanTracer::Scoped(spans, "stencilfe.build");
      exec_ = std::make_unique<wss::stencilfe::StencilExecutor>(
          fn_, kSide, kSide, kArch);
    }
    const auto span = SpanTracer::Scoped(spans, "stencilfe.load");
    exec_->load(init_);
    mirror_ = init_;
    last_ = init_;
  }
  void teardown() override { exec_.reset(); }
  wss::wse::Fabric& fabric() override { return exec_->fabric(); }

  void prepare_op(int i) override {
    to_load_.clear();
    if (i == 0 || i % kLoadEvery != 0) return;
    to_load_ = last_;
    const auto& [cell, value] =
        hotspots_[static_cast<std::size_t>(i / kLoadEvery % kHotspots)];
    to_load_[cell] = value;
    mirror_ = to_load_;
  }

  void run_op(int /*i*/, SpanTracer* spans) override {
    if (!to_load_.empty()) {
      const auto span = SpanTracer::Scoped(spans, "stencilfe.load");
      exec_->load(to_load_);
    }
    {
      const auto span = SpanTracer::Scoped(spans, "stencilfe.step");
      exec_->step(1);
    }
    const auto span = SpanTracer::Scoped(spans, "stencilfe.read");
    last_ = exec_->read_state();
  }

  std::string check_op(int /*i*/, bool corrupt) override {
    mirror_ = wss::stencilfe::golden_step(fn_, kSide, kSide, mirror_);
    std::vector<fp16_t> got = last_;
    if (corrupt) got[0] = fp16_t::from_bits(got[0].bits() ^ 1u);
    return first_bit_mismatch(got, mirror_, "state vs golden");
  }

  double model_cycles_per_op() const override {
    return wss::perfmodel::project_stencilfe_generation(fn_, kSide, kSide)
        .total();
  }
  wss::wse::FlowTable flow_table() const override {
    return exec_->flow_table();
  }

private:
  wss::stencilfe::TransitionFn fn_;
  std::vector<fp16_t> init_;
  std::vector<std::pair<std::size_t, fp16_t>> hotspots_;
  std::unique_ptr<wss::stencilfe::StencilExecutor> exec_;
  std::vector<fp16_t> mirror_, last_, to_load_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& kind,
                                        std::uint64_t seed, bool watched) {
  if (kind == "bicgstab") {
    return std::make_unique<BicgstabWorkload>(seed, watched);
  }
  if (kind == "allreduce_wave") return std::make_unique<AllReduceWorkload>(seed);
  if (kind == "stencilfe_heat") {
    return std::make_unique<StencilHeatWorkload>(seed);
  }
  throw std::invalid_argument("unknown workload kind '" + kind + "'");
}

} // namespace perfbench
