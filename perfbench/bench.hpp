// Shared types of the repo benchmark program: the run configuration, the
// result every workload fills, and the host facts printed beside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "logic.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics a --trace 0 run reports, on every workload, in this order
/// (BENCHMARK.json's end_to_end list; README.md gives each one's meaning per
/// workload).
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return defs;
}

/// The metrics a --trace 1 run reports (BENCHMARK.json's per_layer list). A
/// layer a workload bypasses reports 0 (README.md lists which).
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.mttkrp_ms_p50", "ms"},
      {"core.mttkrp_ms_p90", "ms"},
      {"core.native_execute_ms_p50", "ms"},
      {"core.native_fold_ms_p50", "ms"},
      {"core.mttkrp_gflops", "GFLOP/s"},
      {"core.mttkrp_gbs_computed", "GB/s"},
      {"core.mttkrp_flop_per_byte", "flop/B"},
      {"core.mttkrp_bw_share", "ratio"},
      {"core.mttkrp_share", "ratio"},
      {"linalg.dense_ms_per_iter", "ms"},
      {"linalg.dense_share", "ratio"},
      {"engine.run_overhead_ms_p50", "ms"},
      {"tensor.fcoo_build_ms", "ms"},
      {"pipeline.plan_cold_ms", "ms"},
      {"pipeline.plan_warm_ms", "ms"},
      {"pipeline.plan_cache_hit_ratio", "ratio"},
      {"engine.queue_ms_p50", "ms"},
      {"engine.queue_ms_p99", "ms"},
      {"engine.steals_per_kjob", "count"},
      {"engine.prediction_error_pct_p50", "%"},
      {"engine.exec_ms_p50", "ms"},
      {"engine.exec_ms_p99", "ms"},
      {"engine.batched_share", "ratio"},
      {"engine.batch_size_mean", "count"},
      {"engine.device_busy_share", "ratio"},
      {"service.request_ms_p50", "ms"},
      {"service.request_ms_p99", "ms"},
      {"service.unattributed_ms_p50", "ms"},
      {"service.upload_ms_p50", "ms"},
      {"service.bytes_per_request", "B"},
      {"service.queue_full", "count"},
      {"loadgen.low_p50_ms", "ms"},
      {"loadgen.low_p99_ms", "ms"},
      {"loadgen.high_p50_ms", "ms"},
      {"loadgen.high_p99_ms", "ms"},
      {"loadgen.capacity_rps", "1/s"},
      {"loadgen.late_ms_p99", "ms"},
      {"baselines.splatt_mttkrp_ms_p50", "ms"},
      {"baselines.reference_mttkrp_ms", "ms"},
      {"obs.overhead", "ratio"},
      {"obs.dropped_spans", "count"},
      {"obs.unattributed_share", "ratio"},
      {"host.stream_gbs", "GB/s"},
      {"run.samples", "count"},
  };
  return defs;
}

/// The `pct` percentile of `v` when at least ten samples lie beyond it,
/// else the highest percentile that has ten beyond it (the median when
/// fewer than 20 samples exist), so a reported tail is never set by a
/// handful of samples.
inline double tail_at(const std::vector<double>& v, double pct) {
  const double n = static_cast<double>(v.size());
  const double p = n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9 ? pct : tail_percentile(v.size());
  return p > 0.0 ? quantile(v, p / 100.0) : median(v);
}

/// Shortest decimal form of a number for notes.
inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable lines (self-time table, sample counts) printed before
  /// the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records one correctness check: counts it as attempted and, on failure,
  /// as failed with a note naming what was checked.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      notes.push_back("CHECK FAILED: " + what);
    }
  }
};

struct HostFacts {
  unsigned nproc = 0;
  std::string simd;            ///< active SIMD dispatch level
  std::uint64_t l3_bytes = 0;  ///< 0 when neither cpuid nor sysconf reports it
  unsigned pool_width = 0;     ///< engine worker slots (pool workers + caller)
};

HostFacts host_facts();

/// Sustainable memory bandwidth in GB/s: the median of several parallel
/// triads (a = b + s*c) over three arrays each at least 4x the L3 size, on
/// the global pool the kernels use. Counts 3 x 8 bytes per element.
double stream_triad_gbs(std::uint64_t l3_bytes);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Table lines for a self-time fold, each span's share taken of `wall_us`.
std::vector<std::string> format_layers(const std::vector<LayerRow>& rows, double wall_us);

Result run_cp(const RunConfig& cfg, const HostFacts& host);
Result run_serve(const RunConfig& cfg, const HostFacts& host);

}  // namespace perfbench
