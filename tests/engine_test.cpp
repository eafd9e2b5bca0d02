// Engine-layer tests (DESIGN.md §11): plan acquisition and sharing through
// the engine's per-device caches (SpTTV reusing SpMTTKRP entries), uncached
// plan acquisition (use_engine_cache=false, device memory released with the
// last holder), submit() job admission (round-robin placement, sim pinning,
// bounded queue with typed QueueFull/ShuttingDown backpressure, exception
// propagation, sharded-job rejection), prewarm, plan forgetting, the
// aggregated Engine::stats() report, zero-copy native I/O (NaN-prefilled
// outputs, transfer counters) and the output/input aliasing guard.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <limits>

#include "baselines/reference.hpp"
#include "core/cp_als.hpp"
#include "core/spmttkrp.hpp"
#include "core/spttm.hpp"
#include "core/spttmc.hpp"
#include "core/spttv.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"
#include "test_support.hpp"

namespace ust::engine {
namespace {

TEST(Engine, OwnsDeviceGroupAndGrows) {
  Engine eng(EngineOptions{.num_devices = 2});
  EXPECT_EQ(eng.num_devices(), 2u);
  EXPECT_EQ(eng.device(0).ordinal(), 0);
  EXPECT_EQ(eng.device(1).ordinal(), 1);
  eng.ensure_devices(3);
  EXPECT_EQ(eng.num_devices(), 3u);
  EXPECT_EQ(eng.device(2).ordinal(), 2);
  eng.ensure_devices(2);  // never shrinks
  EXPECT_EQ(eng.num_devices(), 3u);
}

TEST(Engine, PlanCacheSharedAcrossOpsIncludingTtv) {
  sim::Device dev;
  Engine eng(dev);
  Prng rng(101);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  const Partitioning part{.threadlen = 8, .block_size = 64};

  // MTTKRP and TTV on the same tensor/mode share one F-COO layout and
  // therefore one cached plan: first construction misses, the rest hit.
  core::UnifiedMttkrp mttkrp(eng, t, 0, part);
  core::UnifiedTtv ttv(eng, t, 0, part);
  core::UnifiedMttkrp again(eng, t, 0, part);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.cache_total.misses, 1u);
  EXPECT_EQ(s.cache_total.hits, 2u);
  EXPECT_EQ(s.cache_total.entries, 1u);

  const auto factors = test::random_factors(t, 5, 7);
  const DenseMatrix want = baseline::mttkrp_reference(t, 0, factors);
  EXPECT_LT(test::relative_error(mttkrp.run(factors), want), test::kUnifiedTol);
}

TEST(Engine, UncachedPlansReleaseDeviceMemoryWithLastHolder) {
  sim::Device dev;
  Prng rng(102);
  const CooTensor t = test::random_coo3(rng, 16, 500);
  const auto factors = test::random_factors(t, 4, 9);
  {
    Engine eng(dev);
    // use_engine_cache=false keeps the plan out of the engine caches: two
    // acquisitions build two plans, results stay bitwise equal.
    const auto pa = eng.plan(t, OpKind::kSpMTTKRP, 0, Partitioning{}, {}, nullptr,
                             /*use_engine_cache=*/false);
    const auto pb = eng.plan(t, OpKind::kSpMTTKRP, 0, Partitioning{}, {}, nullptr,
                             /*use_engine_cache=*/false);
    EXPECT_NE(pa.get(), pb.get());
    EXPECT_EQ(eng.stats().cache_total.entries, 0u);
    EXPECT_GT(dev.bytes_in_use(), 0u);
  }
  // Plans gone -> engine gone -> every device byte released.
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(Engine, CachedAndUncachedPlansMatchBitwise) {
  sim::Device dev;
  Engine eng(dev);
  Prng rng(103);
  const CooTensor t = test::random_coo3(rng, 24, 1200);
  const Partitioning part{.threadlen = 4, .block_size = 32};
  const auto factors = test::random_factors(t, 6, 11);

  // Front-end op (engine-cached plan) vs a hand-built request over an
  // uncached plan: same kernel, bitwise-identical output.
  core::UnifiedMttkrp cached(eng, t, 1, part);
  const DenseMatrix want = cached.run(factors);

  const auto plan = eng.plan(t, OpKind::kSpMTTKRP, 1, part, {}, nullptr,
                             /*use_engine_cache=*/false);
  DenseMatrix out(t.dim(1), 6);
  OpRequest req;
  req.plan = plan;
  for (int m : plan->product_modes) {
    const DenseMatrix& f = factors[static_cast<std::size_t>(m)];
    req.inputs.push_back({f.data(), f.rows(), f.cols()});
  }
  req.out = out.data();
  req.out_rows = out.rows();
  req.out_cols = out.cols();
  eng.run(req);
  EXPECT_EQ(DenseMatrix::max_abs_diff(want, out), 0.0);

  core::UnifiedTtmc tc(eng, t, 0, part);
  core::UnifiedTtmc tu(eng, t, 0, part);
  EXPECT_EQ(DenseMatrix::max_abs_diff(tc.run(factors[1], factors[2]),
                                      tu.run(factors[1], factors[2])),
            0.0);
}

TEST(Engine, SubmitMatchesRunBitwiseAndRoundRobins) {
  // max_batch 1: with batching on, submit() prefers the device already
  // queueing a compatible job (batch affinity, DESIGN.md §13) and all six
  // identical jobs would land on one device. Round-robin is the placement
  // contract for a non-batching engine; BatchedEquivalence covers the rest.
  Engine eng(EngineOptions{.num_devices = 2, .max_batch = 1});
  Prng rng(104);
  const CooTensor t = test::random_coo3(rng, 24, 1500);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const auto factors = test::random_factors(t, 6, 13);
  core::UnifiedMttkrp op(eng, t, 0, part);
  eng.prewarm(*op.op_plan());

  DenseMatrix want(t.dim(0), 6);
  op.run(factors, want);

  constexpr int kJobs = 6;
  std::vector<DenseMatrix> outs(kJobs, DenseMatrix(t.dim(0), 6));
  std::vector<JobRecord> records(kJobs);
  std::vector<std::future<void>> futures;
  for (int j = 0; j < kJobs; ++j) {
    futures.push_back(eng.submit(op.request(factors, outs[static_cast<std::size_t>(j)]),
                                 &records[static_cast<std::size_t>(j)]));
  }
  for (auto& f : futures) f.get();

  bool used[2] = {false, false};
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(DenseMatrix::max_abs_diff(outs[static_cast<std::size_t>(j)], want), 0.0)
        << "job " << j;
    const int d = records[static_cast<std::size_t>(j)].device;
    ASSERT_TRUE(d == 0 || d == 1);
    used[d] = true;
    EXPECT_GE(records[static_cast<std::size_t>(j)].exec_s, 0.0);
  }
  // Round-robin admission: both devices executed jobs.
  EXPECT_TRUE(used[0] && used[1]);

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.jobs_submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.jobs_completed, static_cast<std::uint64_t>(kJobs));
  // The prewarmed replica plan was a hit for every device-1 job.
  EXPECT_GE(s.devices[1].cache.hits, 1u);
}

TEST(Engine, SubmitAcceptsShardedJobsAndRejectsBadShapes) {
  // Sharded jobs go through submit() since the scheduler gained device
  // reservation (DESIGN.md §15): the job reserves shard.num_devices devices,
  // drains their queues, and runs bitwise identical to the direct path.
  Engine eng(EngineOptions{.num_devices = 2});
  Prng rng(106);
  const CooTensor t = test::random_coo3(rng, 12, 300);
  const auto factors = test::random_factors(t, 3, 17);
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{});
  DenseMatrix out(t.dim(0), 3);

  core::UnifiedOptions sharded;
  sharded.shard.num_devices = 2;
  DenseMatrix direct(t.dim(0), 3);
  eng.run(op.request(factors, direct, sharded));
  eng.submit(op.request(factors, out, sharded)).get();
  ASSERT_EQ(out.rows(), direct.rows());
  ASSERT_EQ(out.cols(), direct.cols());
  for (index_t i = 0; i < out.rows(); ++i) {
    for (index_t j = 0; j < out.cols(); ++j) EXPECT_EQ(out(i, j), direct(i, j));
  }

  // submit() is native-only: sim-backend jobs, sharded or not, are rejected
  // (the sim oracle runs through run()).
  core::UnifiedOptions sim_sharded = sharded;
  sim_sharded.backend = core::ExecBackend::kSim;
  EXPECT_THROW((void)eng.submit(op.request(factors, out, sim_sharded)),
               core::InvalidOptions);
  core::UnifiedOptions sim;
  sim.backend = core::ExecBackend::kSim;
  EXPECT_THROW((void)eng.submit(op.request(factors, out, sim)), core::InvalidOptions);

  DenseMatrix wrong(t.dim(0), 5);  // out width != rank
  EXPECT_THROW((void)eng.submit(op.request(factors, wrong)), ContractViolation);
}

TEST(Engine, SubmitPropagatesExecutionExceptions) {
  // A capacity-limited device: the plan fits, the per-job factor staging
  // does not. The failure must surface on the job's future, not crash a
  // worker.
  Prng rng(107);
  const CooTensor t = io::generate_uniform({40, 40, 40}, 4000, 1070);
  EngineOptions opt;
  opt.props.global_mem_bytes = 1;  // nothing fits
  Engine eng(opt);
  EXPECT_THROW(
      (void)eng.plan(t, OpKind::kSpMTTKRP, 0, Partitioning{}),
      sim::DeviceOutOfMemory);

  // Streaming plans allocate no device memory at build time, so the plan
  // succeeds and the failure happens inside the submitted job.
  core::StreamingOptions stream;
  stream.enabled = true;
  const auto plan = eng.plan(t, OpKind::kSpMTTKRP, 0, Partitioning{}, stream);
  const auto factors = test::random_factors(t, 4, 19);
  DenseMatrix out(t.dim(0), 4);
  OpRequest req;
  req.plan = plan;
  for (int m = 1; m < 3; ++m) {
    const DenseMatrix& f = factors[static_cast<std::size_t>(m)];
    req.inputs.push_back({f.data(), f.rows(), f.cols()});
  }
  req.out = out.data();
  req.out_rows = out.rows();
  req.out_cols = out.cols();
  std::future<void> fut = eng.submit(std::move(req));
  EXPECT_THROW(fut.get(), sim::DeviceOutOfMemory);
}

TEST(Engine, BoundedQueueStillCompletesEveryJob) {
  EngineOptions opt;
  opt.num_devices = 2;
  opt.max_queued_jobs = 1;  // maximal back-pressure
  Engine eng(opt);
  Prng rng(108);
  const CooTensor t = test::random_coo3(rng, 16, 800);
  const auto factors = test::random_factors(t, 4, 21);
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{});
  DenseMatrix want(t.dim(0), 4);
  op.run(factors, want);

  std::vector<DenseMatrix> outs(8, DenseMatrix(t.dim(0), 4));
  std::vector<std::future<void>> futures;
  for (auto& o : outs) futures.push_back(eng.submit(op.request(factors, o)));
  for (auto& f : futures) f.get();
  for (const auto& o : outs) EXPECT_EQ(DenseMatrix::max_abs_diff(o, want), 0.0);
}

TEST(Engine, CpAlsOnEngineHitsCachesAcrossSolves) {
  Engine eng(EngineOptions{});
  Prng rng(109);
  const CooTensor t = test::random_coo3(rng, 18, 900);
  core::CpOptions opt;
  opt.rank = 4;
  opt.max_iterations = 2;
  opt.fit_tolerance = 0.0;
  opt.part = Partitioning{.threadlen = 8, .block_size = 64};
  opt.seed = 5;
  const core::CpResult cold = core::cp_als_unified(eng, t, opt);
  const std::uint64_t misses_after_cold = eng.stats().cache_total.misses;
  const core::CpResult warm = core::cp_als_unified(eng, t, opt);
  // Second solve: every per-mode plan is a hit, results bitwise identical.
  EXPECT_EQ(eng.stats().cache_total.misses, misses_after_cold);
  EXPECT_GE(eng.stats().cache_total.hits, 3u);
  ASSERT_EQ(warm.factors.size(), cold.factors.size());
  for (std::size_t m = 0; m < warm.factors.size(); ++m) {
    EXPECT_EQ(DenseMatrix::max_abs_diff(warm.factors[m], cold.factors[m]), 0.0);
  }
  EXPECT_EQ(warm.fit, cold.fit);
}

TEST(Engine, ShardedRunThroughEngineCtorMatchesSingleDevice) {
  Engine eng(EngineOptions{});
  Prng rng(110);
  const CooTensor t = test::random_coo3(rng, 24, 1500);
  const Partitioning part{.threadlen = 8, .block_size = 64};
  const auto factors = test::random_factors(t, 5, 23);
  core::UnifiedMttkrp op(eng, t, 0, part);
  const DenseMatrix want = op.run(factors, core::UnifiedOptions{.chunk_nnz = 16});
  core::UnifiedOptions sharded;
  sharded.chunk_nnz = 16;
  sharded.shard.num_devices = 3;
  shard::Report report;
  DenseMatrix got(want.rows(), want.cols());
  op.run_sharded(factors, got, sharded, &report);
  EXPECT_EQ(DenseMatrix::max_abs_diff(got, want), 0.0);
  ASSERT_EQ(report.devices.size(), 3u);
  EXPECT_EQ(eng.num_devices(), 3u);  // grew on demand
}

/// One request's plan, inputs and output width for `kind` on mode 1 of a
/// 3-order tensor: rank-5 factors (SpTTMc: 3- and 4-column factors, SpTTV:
/// single-column vectors).
struct OpCase {
  std::shared_ptr<const OpPlan> plan;
  std::vector<DenseMatrix> inputs;
  index_t out_cols = 0;

  /// Sizes `out` for the request and points the request at it.
  OpRequest request(std::vector<value_t>& out, const core::UnifiedOptions& opt) const {
    OpRequest req;
    req.plan = plan;
    for (const DenseMatrix& m : inputs) req.inputs.push_back({m.data(), m.rows(), m.cols()});
    req.out_rows = plan->out_rows();
    req.out_cols = out_cols;
    out.assign(static_cast<std::size_t>(req.out_rows) * out_cols, value_t{0});
    req.out = out.data();
    req.options = opt;
    return req;
  }
};

OpCase make_case(Engine& eng, const CooTensor& t, OpKind kind,
                 const core::StreamingOptions& stream) {
  OpCase c;
  c.plan = eng.plan(t, kind, 1, Partitioning{.threadlen = 4, .block_size = 32}, stream);
  Prng rng(7);
  for (std::size_t i = 0; i < c.plan->product_modes.size(); ++i) {
    const index_t rows = c.plan->dims[static_cast<std::size_t>(c.plan->product_modes[i])];
    const index_t cols = kind == OpKind::kSpTTV    ? 1
                         : kind == OpKind::kSpTTMc ? static_cast<index_t>(3 + i)
                                                   : 5;
    DenseMatrix m(rows, cols);
    m.fill_random(rng, -1.0f, 1.0f);
    c.inputs.push_back(std::move(m));
  }
  c.out_cols = kind == OpKind::kSpTTV ? 1 : kind == OpKind::kSpTTMc ? 12 : 5;
  return c;
}

bool same_bits(const std::vector<value_t>& a, const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

// Native runs write the caller's output in place: whatever it held before
// must not leak into the result. Every execution style gives the bits of
// its zero-prefilled run on a NaN-prefilled output, for all four ops.
TEST(Engine, NativeRunsOverwriteNanPrefilledOutputsBitwise) {
  const CooTensor t = io::generate_uniform({23, 19, 29}, 3000, 131);
  Engine eng(EngineOptions{.num_devices = 2, .max_batch = 1});
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  core::StreamingOptions stream;
  stream.enabled = true;
  stream.chunk_nnz = 64;
  core::UnifiedOptions single;
  single.chunk_nnz = 64;
  core::UnifiedOptions sharded = single;
  sharded.shard.num_devices = 2;

  for (OpKind kind : {OpKind::kSpTTM, OpKind::kSpMTTKRP, OpKind::kSpTTMc, OpKind::kSpTTV}) {
    SCOPED_TRACE(op_kind_name(kind));
    const OpCase c = make_case(eng, t, kind, {});
    const OpCase streamed = make_case(eng, t, kind, stream);
    const auto run_with = [&](const OpCase& oc, const core::UnifiedOptions& opt,
                              value_t prefill) {
      std::vector<value_t> out;
      const OpRequest req = oc.request(out, opt);
      std::fill(out.begin(), out.end(), prefill);
      eng.run(req);
      return out;
    };
    const std::vector<value_t> want = run_with(c, single, 0.0f);
    EXPECT_TRUE(same_bits(run_with(c, single, nan), want)) << "single-shot";
    const std::vector<value_t> want_streamed = run_with(streamed, {}, 0.0f);
    EXPECT_TRUE(same_bits(run_with(streamed, {}, nan), want_streamed)) << "streamed";
    EXPECT_TRUE(same_bits(want_streamed, want)) << "streamed vs single-shot";
    EXPECT_TRUE(same_bits(run_with(c, sharded, nan), run_with(c, sharded, 0.0f)))
        << "sharded";
    EXPECT_TRUE(same_bits(run_with(c, sharded, nan), want)) << "sharded vs single-shot";

    std::vector<value_t> o1, o2;
    BatchedRequest batch;
    batch.requests.push_back(c.request(o1, single));
    batch.requests.push_back(c.request(o2, single));
    std::fill(o1.begin(), o1.end(), nan);
    std::fill(o2.begin(), o2.end(), nan);
    const std::uint64_t batches = eng.stats().batches_formed;
    eng.run_batched(batch);
    EXPECT_EQ(eng.stats().batches_formed, batches + 1);
    EXPECT_TRUE(same_bits(o1, want) && same_bits(o2, want)) << "batched";

    // Replica device: submitted jobs rotate across idle devices, so one of
    // the first few lands on device 1.
    eng.prewarm(*c.plan);
    bool on_replica = false;
    for (int attempt = 0; attempt < 4 && !on_replica; ++attempt) {
      std::vector<value_t> out;
      OpRequest req = c.request(out, single);
      std::fill(out.begin(), out.end(), nan);
      JobRecord rec;
      eng.submit(std::move(req), &rec).get();
      EXPECT_TRUE(same_bits(out, want)) << "submitted to device " << rec.device;
      on_replica = rec.device == 1;
    }
    EXPECT_TRUE(on_replica);
  }
}

// Native I/O is zero-copy: a native run moves no bytes across the simulated
// bus. The sim oracle still stages its factors in and its output out.
TEST(Engine, NativeRunsTransferNothingAndSimRunsStage) {
  sim::Device dev;
  Engine eng(dev);
  const CooTensor t = io::generate_uniform({23, 19, 29}, 3000, 132);
  constexpr index_t r = 5;
  const auto factors = test::random_factors(t, r, 8);
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{});
  DenseMatrix native(t.dim(0), r), fused0(t.dim(0), r), fused1(t.dim(0), r), sim(t.dim(0), r);

  dev.reset_counters();
  op.run(factors, native);
  BatchedRequest batch;
  batch.requests.push_back(op.request(factors, fused0));
  batch.requests.push_back(op.request(factors, fused1));
  eng.run_batched(batch);
  EXPECT_EQ(dev.counters().h2d_bytes, 0u);
  EXPECT_EQ(dev.counters().d2h_bytes, 0u);
  EXPECT_EQ(dev.counters().kernel_launches, 2u);

  dev.reset_counters();
  core::UnifiedOptions sim_opt;
  sim_opt.backend = core::ExecBackend::kSim;
  op.run(factors, sim, sim_opt);
  const std::uint64_t in_bytes = static_cast<std::uint64_t>(t.dim(1) + t.dim(2)) * r * 4;
  EXPECT_EQ(dev.counters().h2d_bytes, in_bytes);
  EXPECT_EQ(dev.counters().d2h_bytes, static_cast<std::uint64_t>(t.dim(0)) * r * 4);
  EXPECT_LT(test::relative_error(sim, native), test::kUnifiedTol);
}

// Native runs zero and accumulate into `out` while reading the inputs, so an
// output overlapping any input is a contract violation on run and submit;
// adjacent ranges are fine.
TEST(Engine, RejectsOutputOverlappingAnInput) {
  Engine eng(EngineOptions{.num_devices = 1});
  const CooTensor t = io::generate_uniform({6, 7, 8}, 100, 133);
  constexpr index_t r = 4;
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{});
  // Factor 1 (7 x r) lives at rows [10, 17) of one shared buffer; the
  // output (6 x r) is placed around it.
  std::vector<value_t> buf(30 * r, 0.5f);
  const DenseMatrix f2 = test::random_matrix(8, r, 9);
  const auto request_at = [&](std::size_t out_off) {
    OpRequest req;
    req.plan = op.op_plan();
    req.inputs = {{buf.data() + 10 * r, 7, r}, {f2.data(), 8, r}};
    req.out = buf.data() + out_off;
    req.out_rows = 6;
    req.out_cols = r;
    return req;
  };
  for (std::size_t off : {std::size_t{4} * r, std::size_t{17} * r}) {
    EXPECT_NO_THROW(eng.run(request_at(off))) << "adjacent at " << off;
  }
  for (std::size_t off : {std::size_t{4} * r + 1, std::size_t{11} * r, std::size_t{17} * r - 1}) {
    EXPECT_THROW(eng.run(request_at(off)), ContractViolation) << "overlap at " << off;
    EXPECT_THROW((void)eng.submit(request_at(off)), ContractViolation) << "overlap at " << off;
  }
  // Aliasing the second input exactly is rejected too.
  OpRequest alias = request_at(0);
  alias.inputs[1] = {buf.data(), 8, r};
  EXPECT_THROW(eng.run(alias), ContractViolation);

  // A fused batch reads every input while writing every output, so across
  // its requests outputs must be disjoint from each other and from inputs.
  std::vector<value_t> o1(6 * r), o2(6 * r);
  BatchedRequest batch{{request_at(0), request_at(0)}};
  batch.requests[0].out = o1.data();
  batch.requests[1].out = o2.data();
  EXPECT_NO_THROW(eng.run_batched(batch));
  batch.requests[1].out = o1.data();
  EXPECT_THROW(eng.run_batched(batch), ContractViolation);
  std::vector<value_t> shared(8 * r, 0.25f);
  batch.requests[0].out = shared.data();
  batch.requests[1].out = o2.data();
  batch.requests[1].inputs[1] = {shared.data(), 8, r};
  EXPECT_THROW(eng.run_batched(batch), ContractViolation);
}

#if UST_OBS
std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Plan acquisition is its own traced layer, and a warm solve on an
// unchanged tensor neither hashes it nor misses a plan; the cold solve
// hashes exactly once for its three modes.
TEST(Engine, WarmCpSolveHashesNothingAndHitsEveryPlan) {
  Engine eng;
  Prng rng(134);
  const CooTensor t = test::random_coo3(rng, 20, 800);
  core::CpOptions opt;
  opt.rank = 4;
  opt.max_iterations = 2;
  const auto traced_solve = [&](std::string& json) {
    obs::reset_trace();
    obs::set_tracing(true);
    core::CpResult res = core::cp_als_unified(eng, t, opt);
    obs::set_tracing(false);
    json = obs::chrome_trace_json();
    obs::reset_trace();
    return res;
  };
  std::string cold_json, warm_json;
  const core::CpResult cold = traced_solve(cold_json);
  const core::CpResult warm = traced_solve(warm_json);

  EXPECT_EQ(count_occurrences(cold_json, "\"name\":\"engine.plan\""), 3u);
  EXPECT_EQ(count_occurrences(cold_json, "\"fingerprint_computed\":1"), 1u);
  EXPECT_EQ(count_occurrences(cold_json, "\"hit\":0"), 3u);
  EXPECT_EQ(count_occurrences(warm_json, "\"name\":\"engine.plan\""), 3u);
  EXPECT_EQ(count_occurrences(warm_json, "\"fingerprint_computed\":0"), 3u);
  EXPECT_EQ(count_occurrences(warm_json, "\"hit\":1"), 3u);
  EXPECT_EQ(warm.fit, cold.fit);

  // Plan time is part of the total and not of the dense share.
  for (const core::CpTimings& tm : {cold.timings, warm.timings}) {
    EXPECT_GT(tm.plan_seconds, 0.0);
    double mttkrp_s = 0.0;
    for (double m : tm.mttkrp_seconds) mttkrp_s += m;
    EXPECT_NEAR(tm.total_seconds, tm.plan_seconds + tm.dense_seconds + mttkrp_s, 1e-9);
  }
}
#endif

}  // namespace
}  // namespace ust::engine
