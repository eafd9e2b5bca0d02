// Kernel-, tensor-, pipeline- and baseline-layer probes shared by every
// workload: each times calls into a public entry point from outside, on the
// workload's own tensor, so the per-layer table has the same rows everywhere.
#include "layers.hpp"

#include "baselines/reference.hpp"
#include "baselines/splatt.hpp"
#include "core/spmttkrp.hpp"
#include "obs/trace.hpp"
#include "tensor/fcoo.hpp"
#include "util/prng.hpp"

namespace perfbench {

using ust::CooTensor;
using ust::DenseMatrix;
using ust::index_t;

std::vector<DenseMatrix> random_factors(const CooTensor& t, index_t rank, std::uint64_t seed) {
  ust::Prng rng(seed);
  std::vector<DenseMatrix> f;
  for (int m = 0; m < t.order(); ++m) {
    DenseMatrix a(t.dim(m), rank);
    a.fill_random(rng, 0.1f, 1.0f);
    f.push_back(std::move(a));
  }
  return f;
}

std::vector<double> durations_ms(const std::vector<SpanRec>& spans, const std::string& name) {
  std::vector<double> out;
  for (const SpanRec& s : spans) {
    if (s.name == name) out.push_back(s.dur_us / 1e3);
  }
  return out;
}

namespace {

/// Per bench.mttkrp span: its duration minus the native.execute spans nested
/// in it on the same thread -- what the engine adds around the kernel
/// (request validation, staging copies, dispatch).
std::vector<double> run_overhead_ms(const std::vector<SpanRec>& spans) {
  std::vector<const SpanRec*> kernels;
  for (const SpanRec& s : spans) {
    if (s.name == "native.execute") kernels.push_back(&s);
  }
  std::vector<double> out;
  for (const SpanRec& outer : spans) {
    if (outer.name != "bench.mttkrp") continue;
    double inner = 0.0;
    for (const SpanRec* k : kernels) {
      if (k->tid == outer.tid && k->ts_us >= outer.ts_us && k->end_us() <= outer.end_us() + 1e-3) {
        inner += k->dur_us;
      }
    }
    out.push_back((outer.dur_us - inner) / 1e3);
  }
  return out;
}

}  // namespace

std::vector<SpanRec> kernel_layers(Result& r, const CooTensor& tensor, index_t rank,
                                   const ust::Partitioning& part,
                                   const std::vector<DenseMatrix>& factors, double budget_s,
                                   const HostFacts& host) {
  const int order = tensor.order();

  // Cold plans on a fresh engine, then the same lookups warm.
  ust::engine::Engine eng;
  std::vector<ust::core::UnifiedMttkrp> ops;
  std::vector<double> cold_ms, warm_ms;
  for (int m = 0; m < order; ++m) {
    const auto t0 = Clock::now();
    ops.emplace_back(eng, tensor, m, part);
    cold_ms.push_back(seconds_since(t0) * 1e3);
  }
  for (int m = 0; m < order; ++m) {
    const auto t0 = Clock::now();
    const ust::core::UnifiedMttkrp warm(eng, tensor, m, part);
    warm_ms.push_back(seconds_since(t0) * 1e3);
  }
  r.set("pipeline.plan_cold_ms", median(cold_ms));
  r.set("pipeline.plan_warm_ms", median(warm_ms));

  std::vector<double> fcoo_ms;
  for (int m = 0; m < order; ++m) {
    std::vector<int> index_modes = {m}, product_modes;
    for (int k = 0; k < order; ++k) {
      if (k != m) product_modes.push_back(k);
    }
    const auto t0 = Clock::now();
    const ust::FcooTensor f = ust::FcooTensor::build(tensor, index_modes, product_modes);
    fcoo_ms.push_back(seconds_since(t0) * 1e3);
  }
  r.set("tensor.fcoo_build_ms", median(fcoo_ms));

  // MTTKRP calls from outside, every mode in turn, traced so the engine's
  // share of each call can be separated from the kernel's.
  std::vector<DenseMatrix> outs;
  for (int m = 0; m < order; ++m) outs.emplace_back(tensor.dim(m), rank);
  for (int m = 0; m < order; ++m) {
    ops[static_cast<std::size_t>(m)].run(factors, outs[static_cast<std::size_t>(m)]);
  }
  ust::obs::reset_trace();
  ust::obs::set_tracing(true);
  // At most kMaxCalls calls, so a small tensor's spans fit the tracer's rings.
  constexpr std::size_t kMaxCalls = 3000;
  std::vector<double> call_ms;
  const auto t_calls = Clock::now();
  while (call_ms.size() < 30 ||
         (seconds_since(t_calls) < budget_s && call_ms.size() < kMaxCalls)) {
    for (int m = 0; m < order; ++m) {
      const auto t0 = Clock::now();
      {
        ust::obs::Span span("bench.mttkrp");
        ops[static_cast<std::size_t>(m)].run(factors, outs[static_cast<std::size_t>(m)]);
      }
      call_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  ust::obs::set_tracing(false);
  std::vector<SpanRec> spans = parse_chrome_trace(ust::obs::chrome_trace_json());
  r.set("obs.dropped_spans", static_cast<double>(ust::obs::trace_stats().dropped));
  ust::obs::reset_trace();
  r.set("core.mttkrp_ms_p50", median(call_ms));
  r.set("core.mttkrp_ms_p90", tail_at(call_ms, 90.0));
  r.set("core.native_execute_ms_p50", median(durations_ms(spans, "native.execute")));
  r.set("core.native_fold_ms_p50", median(durations_ms(spans, "native.fold")));
  r.set("engine.run_overhead_ms_p50", median(run_overhead_ms(spans)));

  // Work and traffic of one MTTKRP, computed from array sizes (not
  // measured): per non-zero and rank column, order-1 multiplies and one add;
  // per non-zero, order-1 product indices and a value are read and order-1
  // factor rows gathered; each output row (mean over modes) is written once.
  const double nnz = static_cast<double>(tensor.nnz());
  const double r_cols = static_cast<double>(rank);
  const double flops = nnz * r_cols * order;
  double out_rows = 0.0;
  for (int m = 0; m < order; ++m) out_rows += tensor.dim(m);
  out_rows /= order;
  const double bytes =
      nnz * order * 4.0 + nnz * (order - 1.0) * r_cols * 4.0 + out_rows * r_cols * 4.0;
  const double call_s = median(call_ms) / 1e3;
  const double stream_gbs = stream_triad_gbs(host.l3_bytes);
  r.set("core.mttkrp_gflops", flops / call_s / 1e9);
  r.set("core.mttkrp_gbs_computed", bytes / call_s / 1e9);
  r.set("core.mttkrp_flop_per_byte", flops / bytes);
  r.set("core.mttkrp_bw_share", bytes / call_s / 1e9 / stream_gbs);
  r.set("host.stream_gbs", stream_gbs);

  // Baselines on the same tensor: SPLATT-style CSF MTTKRP on the global pool
  // (the engine's width) and the single-threaded reference.
  const ust::baseline::SplattMttkrp splatt(tensor);
  std::vector<double> splatt_ms, reference_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (int m = 0; m < order; ++m) {
      const auto t0 = Clock::now();
      const DenseMatrix out = splatt.run(m, factors);
      splatt_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  for (int m = 0; m < order; ++m) {
    const auto t0 = Clock::now();
    const DenseMatrix out = ust::baseline::mttkrp_reference(tensor, m, factors);
    reference_ms.push_back(seconds_since(t0) * 1e3);
  }
  r.set("baselines.splatt_mttkrp_ms_p50", median(splatt_ms));
  r.set("baselines.reference_mttkrp_ms", median(reference_ms));
  return spans;
}

}  // namespace perfbench
