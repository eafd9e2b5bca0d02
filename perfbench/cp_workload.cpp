// CP-ALS workloads (cp_nell2, cp_nell1): rank-16, 5-iteration solves with
// fit_tolerance 0 on a warm engine, over a FROSTT replica whose generator
// seed is the workload seed. nell2 has long fibers and L3-resident factors
// (MTTKRP-bound); nell1 is hyper-sparse with 19.5 MB of factors (dense
// algebra and factor gathers dominate). See README.md.
#include <cmath>
#include <memory>

#include "baselines/reference.hpp"
#include "bench.hpp"
#include "core/cp_als.hpp"
#include "core/spmttkrp.hpp"
#include "engine/engine.hpp"
#include "io/datasets.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using ust::CooTensor;
using ust::DenseMatrix;
using ust::index_t;

constexpr index_t kRank = 16;
constexpr int kIterations = 5;
constexpr int kSetupReps = 5;
/// Relative Frobenius error allowed between a unified MTTKRP (float
/// accumulation, reassociated across chunks) and the double-accumulating
/// reference.
constexpr double kMttkrpRelTol = 1e-4;
/// Absolute fit difference allowed between a timed solve and the solve
/// whose MTTKRP is the reference. Both MTTKRPs round to float, and the fit
/// identity (||X||^2 + ||model||^2 - 2<X, model>) cancels most of its
/// terms, so float-level differences show up near 1e-4 on nell1; the SPLATT
/// MTTKRP (also float) lands 7e-4 from the reference there.
constexpr double kFitTol = 2e-3;
double rel_error(const DenseMatrix& got, const DenseMatrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double d = static_cast<double>(got.data()[i]) - want.data()[i];
    num += d * d;
    den += static_cast<double>(want.data()[i]) * want.data()[i];
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

}  // namespace

Result run_cp(const RunConfig& cfg, const HostFacts& host) {
  Result r;
  const std::string name = cfg.workload == "cp_nell2" ? "nell2" : "nell1";
  ust::io::DatasetSpec spec = *ust::io::find_dataset(name);
  spec.seed = cfg.seed;
  const CooTensor tensor = ust::io::make_replica(spec, 1.0);

  ust::core::CpOptions opt;
  opt.rank = kRank;
  opt.max_iterations = kIterations;
  opt.fit_tolerance = 0.0;
  opt.part = spec.best_spmttkrp;
  opt.seed = derive_seed(cfg.seed, 0xcf);

  // ---- set-up: a fresh engine plus cold per-mode plans, several times ----
  std::unique_ptr<ust::engine::Engine> eng;
  std::vector<ust::core::UnifiedMttkrp> ops;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ops.clear();
    eng.reset();
    const auto t0 = Clock::now();
    eng = std::make_unique<ust::engine::Engine>();
    for (int m = 0; m < tensor.order(); ++m) ops.emplace_back(*eng, tensor, m, opt.part);
    setup_s.push_back(seconds_since(t0));
  }

  // ---- correctness: every mode's MTTKRP against the reference ------------
  const std::vector<DenseMatrix> factors =
      random_factors(tensor, kRank, derive_seed(cfg.seed, 0xfa));
  double max_rel_err = 0.0;
  for (int m = 0; m < tensor.order(); ++m) {
    const DenseMatrix want = ust::baseline::mttkrp_reference(tensor, m, factors);
    const DenseMatrix got = ops[static_cast<std::size_t>(m)].run(factors);
    const double err = rel_error(got, want);
    max_rel_err = std::max(max_rel_err, err);
    r.check(err <= kMttkrpRelTol,
            "mode " + std::to_string(m) + " MTTKRP rel error " + std::to_string(err));
  }

  // The fit every timed solve must reproduce: same options and seed, with
  // the reference MTTKRP as the callback (untimed, once).
  const double ref_fit =
      ust::core::cp_als_driver(tensor, opt, [&](int mode, const std::vector<DenseMatrix>& f) {
        return ust::baseline::mttkrp_reference(tensor, mode, f);
      }).fit;

  double last_fit = 0.0;
  auto solve = [&](std::vector<double>& wall_ms, std::vector<double>& mttkrp_share,
                   std::vector<double>& dense_ms_iter) {
    const auto t0 = Clock::now();
    ust::core::CpResult res;
    {
      ust::obs::Span span("bench.solve");
      res = ust::core::cp_als_unified(*eng, tensor, opt);
    }
    wall_ms.push_back(seconds_since(t0) * 1e3);
    double mttkrp_s = 0.0;
    for (double s : res.timings.mttkrp_seconds) mttkrp_s += s;
    mttkrp_share.push_back(mttkrp_s / res.timings.total_seconds);
    dense_ms_iter.push_back(res.timings.dense_seconds * 1e3 / res.iterations);
    last_fit = res.fit;
    r.check(res.iterations == kIterations && std::abs(res.fit - ref_fit) <= kFitTol,
            "solve fit " + std::to_string(res.fit) + " vs reference " + std::to_string(ref_fit));
  };

  std::vector<double> wall_ms, mttkrp_share, dense_ms_iter;
  {
    std::vector<double> w, s, d;
    solve(w, s, d);  // warm-up: first-touch of staging buffers and factors
  }

  const double timed_s = cfg.trace ? cfg.seconds * 0.4 : cfg.seconds;
  const auto t_run = Clock::now();
  while (wall_ms.empty() || seconds_since(t_run) < timed_s) {
    solve(wall_ms, mttkrp_share, dense_ms_iter);
  }
  const double run_s = seconds_since(t_run);

  const std::size_t n = wall_ms.size();
  r.notes.push_back(cfg.workload + ": " + std::to_string(n) + " solves (p90 " +
                    fmt(tail_at(wall_ms, 90.0)) + " ms), setup reps " +
                    std::to_string(kSetupReps) +
                    ", MTTKRP rel error max " + fmt(max_rel_err) + ", reference fit " +
                    fmt(ref_fit) + ", solve fit " + fmt(last_fit));
  r.set("setup_s", median(setup_s));
  r.set("p50_ms", median(wall_ms));
  r.set("throughput_per_s", static_cast<double>(n) / run_s);
  if (!cfg.trace) return r;

  // ---- traced run: per-layer attribution ---------------------------------
  r.set("run.samples", static_cast<double>(n));
  r.set("core.mttkrp_share", median(mttkrp_share));
  r.set("linalg.dense_share", 1.0 - median(mttkrp_share));
  r.set("linalg.dense_ms_per_iter", median(dense_ms_iter));
  ust::obs::reset_trace();
  ust::obs::set_tracing(true);
  std::vector<double> traced_ms, ignored_share, ignored_dense;
  const auto t_traced = Clock::now();
  while (traced_ms.empty() || seconds_since(t_traced) < cfg.seconds * 0.3) {
    solve(traced_ms, ignored_share, ignored_dense);
  }
  const double traced_wall_us = seconds_since(t_traced) * 1e6;
  ust::obs::set_tracing(false);
  const std::vector<SpanRec> solve_spans = parse_chrome_trace(ust::obs::chrome_trace_json());
  const std::uint64_t solve_dropped = ust::obs::trace_stats().dropped;
  const std::vector<LayerRow> layers = fold_self_time(solve_spans);
  r.notes.push_back("self time over " + std::to_string(traced_ms.size()) + " traced solves:");
  for (std::string& line : format_layers(layers, traced_wall_us)) r.notes.push_back(line);
  double solve_total = 0.0, solve_self = 0.0;
  for (const LayerRow& row : layers) {
    if (row.name == "bench.solve") {
      solve_total = row.total_us;
      solve_self = row.self_us;
    }
  }
  r.set("obs.overhead", median(traced_ms) / median(wall_ms));
  r.set("obs.unattributed_share", solve_total > 0.0 ? solve_self / solve_total : 0.0);

  const ust::engine::EngineStats es = eng->stats();
  const double lookups = static_cast<double>(es.cache_total.hits + es.cache_total.misses);
  r.set("pipeline.plan_cache_hit_ratio",
        lookups > 0.0 ? static_cast<double>(es.cache_total.hits) / lookups : 0.0);

  const std::vector<SpanRec> call_spans =
      kernel_layers(r, tensor, kRank, opt.part, factors, cfg.seconds * 0.2, host);
  r.set("obs.dropped_spans", r.values["obs.dropped_spans"] + static_cast<double>(solve_dropped));
  r.set("engine.exec_ms_p50", median(durations_ms(call_spans, "engine.exec")));
  r.set("engine.exec_ms_p99", tail_at(durations_ms(call_spans, "engine.exec"), 99.0));

  // CP calls the engine synchronously: nothing queues, is stolen, batched
  // or served over the wire.
  for (const char* bypassed :
       {"engine.queue_ms_p50", "engine.queue_ms_p99", "engine.steals_per_kjob",
        "engine.prediction_error_pct_p50", "engine.batched_share", "engine.batch_size_mean",
        "engine.device_busy_share", "service.request_ms_p50", "service.request_ms_p99",
        "service.unattributed_ms_p50", "service.upload_ms_p50", "service.bytes_per_request",
        "service.queue_full", "loadgen.low_p50_ms", "loadgen.low_p99_ms",
        "loadgen.high_p50_ms", "loadgen.high_p99_ms", "loadgen.capacity_rps",
        "loadgen.late_ms_p99"}) {
    r.set(bypassed, 0.0);
  }
  return r;
}

}  // namespace perfbench
