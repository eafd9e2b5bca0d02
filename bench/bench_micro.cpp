// Google-benchmark microbenchmarks for the building blocks: warp/block
// segmented scan, F-COO construction, bit-flag rank queries, COO sorting,
// thread-pool dispatch, the unified kernel at several partitionings, and the
// scaling from one pool slot to the full pool of the native chunk walk and
// of the CP-ALS dense update.
#include <benchmark/benchmark.h>

#include <string>

#include "core/spmttkrp.hpp"
#include "core/unified_kernel.hpp"
#include "io/datasets.hpp"
#include "io/generate.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/solve.hpp"
#include "sim/collectives.hpp"
#include "engine/engine.hpp"
#include "sim/device.hpp"
#include "tensor/fcoo.hpp"
#include "util/prng.hpp"

namespace {

using namespace ust;

void BM_WarpSegmentedScan(benchmark::State& state) {
  Prng rng(1);
  std::array<float, 32> vals{};
  std::array<std::uint8_t, 32> heads{};
  for (std::size_t i = 0; i < 32; ++i) {
    vals[i] = rng.next_float();
    heads[i] = rng.next_below(4) == 0;
  }
  std::array<float, 32> v{};
  std::array<std::uint8_t, 32> h{};
  for (auto _ : state) {
    v = vals;
    h = heads;
    sim::warp_segmented_scan_add(v, h);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_WarpSegmentedScan);

void BM_BlockSegmentedScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(2);
  std::vector<float> vals(n);
  std::vector<std::uint8_t> heads(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = rng.next_float();
    heads[i] = rng.next_below(4) == 0;
  }
  std::vector<float> v(n);
  std::vector<std::uint8_t> h(n);
  std::vector<float> carry(32);
  std::vector<std::uint8_t> cflag(32);
  for (auto _ : state) {
    v = vals;
    h = heads;
    core::detail::block_segmented_scan(v, h, carry, cflag);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BlockSegmentedScan)->Arg(128)->Arg(512)->Arg(1024);

void BM_FcooBuild(benchmark::State& state) {
  const auto nnz = static_cast<nnz_t>(state.range(0));
  const CooTensor t = io::generate_zipf({2000, 1500, 2500}, nnz, {0.9, 0.9, 0.9}, 3);
  const std::vector<int> index_modes{0};
  const std::vector<int> product_modes{1, 2};
  for (auto _ : state) {
    FcooTensor f = FcooTensor::build(t, index_modes, product_modes);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(BM_FcooBuild)->Arg(10000)->Arg(100000);

void BM_BitArrayRank(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  Prng rng(4);
  BitArray bits(n);
  for (std::size_t i = 0; i < n / 8; ++i) bits.set(rng.next_below(n), true);
  std::size_t q = 0;
  for (auto _ : state) {
    q = (q + 7919) % n;
    benchmark::DoNotOptimize(bits.rank(q));
  }
}
BENCHMARK(BM_BitArrayRank);

void BM_CooSort(benchmark::State& state) {
  const auto nnz = static_cast<nnz_t>(state.range(0));
  const CooTensor base = io::generate_uniform({3000, 3000, 3000}, nnz, 5);
  const std::vector<int> order{1, 2, 0};
  for (auto _ : state) {
    CooTensor t = base;
    t.sort_by_modes(order);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(nnz));
}
BENCHMARK(BM_CooSort)->Arg(100000);

void BM_PoolDispatch(benchmark::State& state) {
  ThreadPool pool;
  std::atomic<std::uint64_t> sink{0};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pool.parallel_for(n, 64, [&](std::size_t i) {
      if (i == 0) sink.fetch_add(1, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolDispatch)->Arg(1024)->Arg(65536);

void BM_UnifiedMttkrp(benchmark::State& state) {
  const auto threadlen = static_cast<unsigned>(state.range(0));
  const auto block = static_cast<unsigned>(state.range(1));
  static const CooTensor t = io::generate_zipf({3000, 2500, 3500}, 300000, {0.9, 0.9, 0.9}, 6);
  Prng rng(7);
  std::vector<DenseMatrix> factors;
  for (int m = 0; m < 3; ++m) {
    DenseMatrix f(t.dim(m), 16);
    f.fill_random(rng);
    factors.push_back(std::move(f));
  }
  sim::Device dev;
  engine::Engine eng(dev);
  core::UnifiedMttkrp op(eng, t, 0, Partitioning{.threadlen = threadlen, .block_size = block});
  DenseMatrix out(t.dim(0), 16);
  for (auto _ : state) {
    op.run(factors, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(BM_UnifiedMttkrp)->Args({8, 128})->Args({16, 256})->Args({64, 512});

// Native SpMTTKRP (rank 16, mode 1) on the nell2 replica at scale 1.0, with
// one pool slot and with the full pool (arg 0 = hardware width); the
// per_nnz counter is wall time per non-zero. A parallel per_nnz at or above
// the serial one means the workers contend for shared cache lines --
// how false sharing between neighbouring chunks' accumulators once showed
// (4 workers slower than 1).
void BM_NativeChunkWalk(benchmark::State& state) {
  static const io::DatasetSpec spec = *io::find_dataset("nell2");
  static const CooTensor t = io::make_replica(spec, 1.0);
  static const std::vector<DenseMatrix> factors = [] {
    Prng rng(8);
    std::vector<DenseMatrix> f;
    for (int m = 0; m < t.order(); ++m) {
      f.emplace_back(t.dim(m), 16);
      f.back().fill_random(rng);
    }
    return f;
  }();
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  sim::Device dev(sim::DeviceProps::titan_x(), &pool);
  engine::Engine eng(dev);
  core::UnifiedMttkrp op(eng, t, 0, spec.best_spmttkrp);
  DenseMatrix out(t.dim(0), 16);
  op.run(factors, out);  // warm: plan upload and factor staging buffers
  for (auto _ : state) {
    op.run(factors, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::to_string(pool.size() + 1) + " slots");
  state.counters["per_nnz"] = benchmark::Counter(
      static_cast<double>(t.nnz()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_NativeChunkWalk)->Arg(1)->Arg(0)->UseRealTime()->Unit(benchmark::kMillisecond);

// One CP-ALS dense update (Gram solve, normalise, Gram, fit inner product)
// on a 255k x 16 M, the nell1 replica's mode-2 shape, with one pool slot and
// with the full pool (arg 0 = hardware width); per_row is wall time per row
// of M. A parallel per_row at or above the serial one means the row-block
// dense layer has stopped scaling. Each iteration solves the previous
// iteration's normalised factor in place, so no copy of M is timed.
void BM_CpDenseUpdate(benchmark::State& state) {
  constexpr index_t kRows = 255000;
  constexpr index_t kRank = 16;
  Prng rng(9);
  DenseMatrix m(kRows, kRank);
  m.fill_random(rng, 0.1f, 1.0f);
  DenseMatrix b(3000, kRank);
  DenseMatrix c(2000, kRank);
  b.fill_random(rng, 0.1f, 1.0f);
  c.fill_random(rng, 0.1f, 1.0f);
  linalg::normalize_columns(b);
  linalg::normalize_columns(c);
  const DenseMatrix v = linalg::hadamard(linalg::gram(b), linalg::gram(c));
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  DenseMatrix a = m;
  for (auto _ : state) {
    a = linalg::solve_gram(v, std::move(a), &pool);
    const auto lambda = linalg::normalize_columns(a, &pool);
    const DenseMatrix g = linalg::gram(a, &pool);
    const double iprod = linalg::weighted_inner_product(m, a, lambda, &pool);
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(g.data());
    benchmark::DoNotOptimize(iprod);
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::to_string(pool.size() + 1) + " slots");
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(kRows),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CpDenseUpdate)->Arg(1)->Arg(0)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
