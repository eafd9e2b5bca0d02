#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "core/simd.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

/// L3 size from the deterministic cache-parameter cpuid leaves (AMD
/// 0x8000001D, Intel 4): the cache one core's threads share, which is what
/// the kernels' working sets compete for. sysconf's figure can be the whole
/// package's on virtual machines. 0 when neither leaf describes an L3.
std::uint64_t l3_from_cpuid() {
  for (unsigned leaf : {0x8000001Du, 4u}) {
    for (unsigned sub = 0; sub < 16; ++sub) {
      unsigned a = 0, b = 0, c = 0, d = 0;
      if (__get_cpuid_count(leaf, sub, &a, &b, &c, &d) == 0 || (a & 31u) == 0) break;
      if (((a >> 5) & 7u) == 3) {
        return static_cast<std::uint64_t>(((b >> 22) & 1023u) + 1) * (((b >> 12) & 1023u) + 1) *
               ((b & 4095u) + 1) * (static_cast<std::uint64_t>(c) + 1);
      }
    }
  }
  return 0;
}

}  // namespace

HostFacts host_facts() {
  HostFacts h;
  h.nproc = std::thread::hardware_concurrency();
  h.simd = ust::core::simd::level_name(ust::core::simd::active_level());
  h.l3_bytes = l3_from_cpuid();
  if (h.l3_bytes == 0) {
    const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    h.l3_bytes = l3 > 0 ? static_cast<std::uint64_t>(l3) : 0;
  }
  h.pool_width = ust::ThreadPool::global().size() + 1;
  return h;
}

double stream_triad_gbs(std::uint64_t l3_bytes) {
  // Unknown L3: size for 32 MiB, the largest last-level cache of the
  // single-socket hosts this benchmark targets.
  const std::uint64_t l3 = l3_bytes != 0 ? l3_bytes : (32ull << 20);
  const std::size_t n = static_cast<std::size_t>(4 * l3 / sizeof(double));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  ust::ThreadPool& pool = ust::ThreadPool::global();
  const std::size_t parts = 64;
  auto triad = [&](double s) {
    pool.parallel_for(parts, 1, [&](std::size_t p) {
      const std::size_t lo = n * p / parts, hi = n * (p + 1) / parts;
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
  };
  triad(0.5);  // first touch
  std::vector<double> gbs;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    triad(1.0 + rep);
    gbs.push_back(3.0 * static_cast<double>(n * sizeof(double)) / seconds_since(t0) / 1e9);
  }
  return median(gbs);
}

std::vector<std::string> format_layers(const std::vector<LayerRow>& rows, double wall_us) {
  std::vector<std::string> out;
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%-18s %9s %12s %12s %8s", "span", "count", "total_ms",
                "self_ms", "self_%");
  out.emplace_back(buf);
  for (const LayerRow& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-18s %9zu %12.3f %12.3f %8.2f", r.name.c_str(), r.count,
                  r.total_us / 1e3, r.self_us / 1e3,
                  wall_us > 0.0 ? 100.0 * r.self_us / wall_us : 0.0);
    out.emplace_back(buf);
  }
  return out;
}

}  // namespace perfbench
