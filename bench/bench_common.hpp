// Shared helpers for the benchmark harnesses. Every bench binary:
//   * prints the platform configuration (the Table III analogue),
//   * loads paper-dataset replicas (or a user-supplied .tns via --tns),
//   * reports results in the same rows/series as the paper's tables/figures.
#pragma once

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/simd.hpp"
#include "core/unified_kernel.hpp"
#include "io/datasets.hpp"
#include "io/tns.hpp"
#include "sim/device.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ust::bench {

/// Prints the experimental-platform block (Table III analogue) so every
/// bench's output is self-describing.
inline void print_platform(const sim::DeviceProps& props) {
  print_banner("Platform configuration (Table III analogue)");
  Table t({"parameter", "host CPU (measured)", "simulated device"});
  t.add_row({"kind", "multicore CPU pool", props.name + " (execution-model simulator)"});
  t.add_row({"parallel workers", std::to_string(std::thread::hardware_concurrency()),
             std::to_string(props.sm_count) + " SMs modelled"});
  t.add_row({"warp size", "-", std::to_string(props.warp_size)});
  t.add_row({"global memory", "-",
             Table::num(static_cast<double>(props.global_mem_bytes) / (1 << 30), 2) + " GB"});
  t.add_row({"max threads/block", "-", std::to_string(props.max_threads_per_block)});
  t.print();
  std::printf(
      "note: the device is an execution-model simulator on the host CPU;\n"
      "      compare *relative* numbers (who wins, trends), not absolute times.\n");
}

struct BenchDataset {
  std::string name;
  CooTensor tensor;
  io::DatasetSpec spec;  // default-initialised when loaded from --tns
};

/// Loads the four paper replicas at `scale`, in the paper's figure order
/// (nell1, delicious, nell2, brainq). If `only` is non-empty, restricts to
/// the datasets it names (comma-separated).
inline std::vector<BenchDataset> load_replicas(double scale, const std::string& only = "") {
  std::vector<BenchDataset> out;
  for (const auto& spec : io::paper_datasets()) {
    if (!only.empty() && ("," + only + ",").find("," + spec.name + ",") == std::string::npos) {
      continue;
    }
    BenchDataset d;
    d.name = spec.name;
    d.spec = spec;
    std::printf("generating %s replica (scale %.3g)...\n", spec.name.c_str(), scale);
    d.tensor = io::make_replica(spec, scale);
    std::printf("  %s\n", d.tensor.describe().c_str());
    out.push_back(std::move(d));
  }
  return out;
}

/// Random factor matrices for every mode of `t`.
inline std::vector<DenseMatrix> make_factors(const CooTensor& t, index_t rank,
                                             std::uint64_t seed = 12345) {
  Prng rng(seed);
  std::vector<DenseMatrix> factors;
  for (int m = 0; m < t.order(); ++m) {
    DenseMatrix f(t.dim(m), rank);
    f.fill_random(rng, 0.0f, 1.0f);
    factors.push_back(std::move(f));
  }
  return factors;
}

/// Median-of-N timing with one warmup run.
inline double time_median(const std::function<void()>& fn, int reps = 3) {
  return time_repeated(fn, reps).median_s;
}

/// Standard bench CLI: --scale, --rank, --reps, --dataset, --tns,
/// --cpu-threads, --backend, --json. Every bench writes a BENCH_*.json when
/// --json is given (see JsonResults below).
inline Cli make_bench_cli(const std::string& name, const std::string& what) {
  Cli cli(name, what);
  cli.option("scale", "0.25", "replica size multiplier in (0,1]");
  cli.option("rank", "16", "dense factor columns (tensor rank)");
  cli.option("reps", "5", "timed repetitions per measurement");
  cli.option("dataset", "",
             "restrict to these datasets, comma-separated (nell1,delicious,nell2,brainq)");
  cli.option("tns", "", "load a FROSTT .tns file instead of replicas");
  cli.option("cpu-threads", "12",
             "worker threads for the CPU baselines (ParTI-OMP, SPLATT); the paper "
             "ran them with 12 threads while the GPU used the whole device");
  cli.option("backend", "native",
             "unified kernel execution backend: 'native' (thread-pool fast path) or "
             "'sim' (GPU execution-model simulator, the fidelity oracle)");
  cli.option("json", "", "also write results to this path as a BENCH_*.json file");
  return cli;
}

/// Resolves --backend. Unknown values fall back to native with a warning.
inline core::ExecBackend backend_from_cli(const Cli& cli) {
  const std::string b = cli.get("backend");
  if (b == "sim") return core::ExecBackend::kSim;
  if (b != "native") {
    std::fprintf(stderr, "warning: unknown --backend '%s', using native\n", b.c_str());
  }
  return core::ExecBackend::kNative;
}

/// Default kernel options for this bench invocation (currently: the
/// selected execution backend).
inline core::UnifiedOptions kernel_options(const Cli& cli) {
  core::UnifiedOptions opt;
  opt.backend = backend_from_cli(cli);
  return opt;
}

/// Flat key/value results sink for machine-readable output. Benches add one
/// entry per (dataset, metric) cell and call write() at the end; perf PRs
/// diff the resulting BENCH_*.json files across commits.
class JsonResults {
 public:
  explicit JsonResults(std::string bench_name) : bench_(std::move(bench_name)) {
    // Every BENCH_*.json is self-describing about the SIMD substrate it ran
    // on: detected CPU features plus the kernel variant the runtime dispatch
    // actually selected (after any UST_SIMD clamp), so perf diffs across
    // machines and forced-scalar CI runs are attributable.
    add("cpu_avx2", core::simd::cpu_has_avx2() ? 1.0 : 0.0);
    add("cpu_avx512", core::simd::cpu_has_avx512() ? 1.0 : 0.0);
    add("simd_dispatch", std::string(core::simd::level_name(core::simd::active_level())));
  }

  void add(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      // JSON has no inf/nan literal; keep the file parseable.
      entries_.push_back({key, value > 0 ? "inf" : (value < 0 ? "-inf" : "nan"),
                          /*quoted=*/true});
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    entries_.push_back({key, buf, /*quoted=*/false});
  }
  void add(const std::string& key, const std::string& value) {
    entries_.push_back({key, value, /*quoted=*/true});
  }

  /// Writes `{"bench": ..., "results": {...}}` to `path`; no-op when `path`
  /// is empty. Returns false (with a message) if the file cannot be written.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": {", escape(bench_).c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      std::fprintf(f, "%s\n    \"%s\": ", i == 0 ? "" : ",", escape(e.key).c_str());
      if (e.quoted) {
        std::fprintf(f, "\"%s\"", escape(e.value).c_str());
      } else {
        std::fprintf(f, "%s", e.value.c_str());
      }
    }
    std::fprintf(f, "\n  }\n}\n");
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "error: failed writing %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool quoted;
  };

  /// Minimal JSON string escaping (keys may be --tns paths).
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    const auto esc = [&out](char c) {
      out.push_back('\\');
      out.push_back(c);
    };
    for (const char c : s) {
      switch (c) {
        case '"': esc('"'); break;
        case '\\': esc('\\'); break;
        case '\n': esc('n'); break;
        case '\t': esc('t'); break;
        case '\r': esc('r'); break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out.append(buf);
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  }

  std::string bench_;
  std::vector<Entry> entries_;
};

/// Dedicated pool for the CPU baselines, sized per --cpu-threads (the
/// simulated device keeps the full machine via the global pool).
inline ThreadPool& cpu_pool(const Cli& cli) {
  static ThreadPool pool(static_cast<unsigned>(std::max(1l, cli.get_int("cpu-threads"))));
  return pool;
}

/// Coarse launch-parameter tuning grid used by the speedup benches. The
/// paper measures "unified" with the per-dataset best configuration found on
/// ITS hardware (Table V); the equivalent methodology here is a quick tune
/// on the simulator substrate. Pass --paper-config to force the Table V
/// values instead.
inline const std::vector<Partitioning>& quick_tune_grid() {
  static const std::vector<Partitioning> grid{
      {.threadlen = 8, .block_size = 64},   {.threadlen = 8, .block_size = 128},
      {.threadlen = 16, .block_size = 128}, {.threadlen = 32, .block_size = 256},
      {.threadlen = 64, .block_size = 512}, {.threadlen = 32, .block_size = 1024},
  };
  return grid;
}

/// Picks the fastest configuration for `run_once(part)` over the coarse grid
/// (single repetition per point -- tuning, not measurement).
inline Partitioning quick_tune(const std::function<double(Partitioning)>& run_once,
                               Partitioning fallback) {
  Partitioning best = fallback;
  double best_s = std::numeric_limits<double>::infinity();
  for (const Partitioning& part : quick_tune_grid()) {
    try {
      const double s = run_once(part);
      if (s < best_s) {
        best_s = s;
        best = part;
      }
    } catch (const std::exception&) {
      // Configuration invalid on this device (e.g. shared memory); skip.
    }
  }
  return best;
}

/// Applies --tns / --dataset / --scale.
inline std::vector<BenchDataset> load_from_cli(const Cli& cli) {
  const std::string tns = cli.get("tns");
  if (!tns.empty()) {
    BenchDataset d;
    d.name = tns;
    std::printf("loading %s...\n", tns.c_str());
    d.tensor = io::read_tns_file(tns);
    std::printf("  %s\n", d.tensor.describe().c_str());
    d.spec.name = tns;
    d.spec.best_spttm = Partitioning{};
    d.spec.best_spmttkrp = Partitioning{};
    std::vector<BenchDataset> out;
    out.push_back(std::move(d));
    return out;
  }
  return load_replicas(cli.get_double("scale"), cli.get("dataset"));
}

}  // namespace ust::bench
