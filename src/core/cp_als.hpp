// CP-ALS (CANDECOMP/PARAFAC via alternating least squares) on the simulated
// GPU -- Algorithm 1 of the paper. The MTTKRP in every mode update runs as a
// unified one-shot kernel from a per-mode F-COO plan built once up front
// ("preprocessed for different modes on the host ... transferred once").
// Of the dense matrix algebra, only the Gram matrix of the freshly updated
// factor runs on a second stream, overlapping the next mode's MTTKRP as in
// the paper's two-stream Section V-E implementation. The rest (Gram solve,
// normalisation, the last mode's Gram, the fit) sits on the critical path
// and runs in row blocks on ThreadPool::global() (DESIGN.md §16).
#pragma once

#include <functional>
#include <vector>

#include "core/spmttkrp.hpp"
#include "sim/device.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace ust::core {

struct CpOptions {
  index_t rank = 8;
  int max_iterations = 50;
  double fit_tolerance = 1e-5;  // stop when |fit - previous fit| < tol
  Partitioning part;
  /// Kernel options for every MTTKRP, including kernel.shard: setting
  /// kernel.shard.num_devices > 1 runs every mode update sharded across a
  /// per-op simulated device group (src/shard/), bitwise identical to the
  /// single-device solve.
  UnifiedOptions kernel;
  /// Per-mode MTTKRP plans are fetched from / inserted into this LRU cache
  /// when non-null, so repeated solver invocations on the same tensor skip
  /// F-COO construction and upload entirely (bench_pipeline measures the
  /// cached-vs-cold gap). The cache must outlive the call.
  pipeline::PlanCache* plan_cache = nullptr;
  /// Streams every MTTKRP through bounded-memory chunk plans when enabled
  /// (tensors larger than device memory); bypasses the plan cache.
  StreamingOptions streaming;
  bool use_streams = true;   // overlap the new factor's Gram with the next MTTKRP
  std::uint64_t seed = 42;   // factor initialisation
};

struct CpTimings {
  std::vector<double> mttkrp_seconds;  // per mode, accumulated over iterations
  /// Per-mode MTTKRP plan acquisition before the first iteration
  /// (cp_als_unified: one engine plan() per mode -- a cache hit on a warm
  /// engine, F-COO build and upload on a cold one); 0 for cp_als_driver.
  double plan_seconds = 0.0;
  /// Everything but MTTKRP and plan acquisition: total_seconds minus
  /// plan_seconds and the mttkrp_seconds sum, so besides the per-mode
  /// Gram/solve/normalise and the fit it includes the factor init and the
  /// final sort_components.
  double dense_seconds = 0.0;
  /// Wall time of the whole call, plan acquisition included.
  double total_seconds = 0.0;
};

struct CpResult {
  std::vector<DenseMatrix> factors;  // one per mode, unit-norm columns
  std::vector<double> lambda;        // component weights, descending
  double fit = 0.0;                  // 1 - ||X - model||_F / ||X||_F
  int iterations = 0;
  bool converged = false;
  std::vector<double> fit_history;   // fit after each iteration
  CpTimings timings;
};

/// Runs CP-ALS with unified SpMTTKRP kernels through `engine`: the per-mode
/// plans live in the engine's primary plan cache (unless options.plan_cache
/// overrides it), so repeat solves -- and any other traffic on the same
/// engine -- share one set of caches and one device group.
CpResult cp_als_unified(engine::Engine& engine, const CooTensor& tensor,
                        const CpOptions& options);

/// Shared ALS driver: both the unified and the SPLATT-style CP
/// implementations delegate to this with their own MTTKRP callback
/// (mttkrp(mode, factors) -> M). Exposed for baseline reuse and testing.
using MttkrpFn =
    std::function<DenseMatrix(int mode, const std::vector<DenseMatrix>& factors)>;
CpResult cp_als_driver(const CooTensor& tensor, const CpOptions& options,
                       const MttkrpFn& mttkrp, CpTimings* timings_out = nullptr);

}  // namespace ust::core
