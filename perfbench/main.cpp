// Repo benchmark program. Usage:
//   perfbench --workload cp_nell2|cp_nell1|serve_mixed --seed N --seconds S --trace 0|1
// Prints notes (host facts, sample counts, the per-layer self-time table),
// then, as the last line, one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Exits 1 when any correctness check failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload cp_nell2|cp_nell1|serve_mixed "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

/// JSON has no infinity; a +inf latency (a failed or refused request landed
/// on the percentile) is written as 1e300 so the result stays parseable and
/// any comparison against it reads as a regression.
std::string num(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");
  if (!(cfg.seconds > 0.0) || cfg.seconds > 120.0) return usage("--seconds must be in (0, 120]");

  const perfbench::HostFacts host = perfbench::host_facts();
  std::printf(
      "# host {\"nproc\": %u, \"simd\": \"%s\", \"l3_bytes\": %llu, \"pool_width\": %u}\n",
      host.nproc, host.simd.c_str(), static_cast<unsigned long long>(host.l3_bytes),
      host.pool_width);
  std::fflush(stdout);

  // Span rings big enough for one traced phase of any workload, sized
  // before any thread records its first span.
  if (cfg.trace) ust::obs::set_ring_capacity(std::size_t{1} << 16);

  perfbench::Result r;
  try {
    if (cfg.workload == "cp_nell2" || cfg.workload == "cp_nell1") {
      r = perfbench::run_cp(cfg, host);
    } else if (cfg.workload == "serve_mixed") {
      r = perfbench::run_serve(cfg, host);
    } else {
      return usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const auto& defs =
      cfg.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.values.find(defs[i].name);
    if (it == r.values.end()) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload.c_str(),
                   defs[i].name);
      return 1;
    }
    if (i != 0) out += ", ";
    out += std::string("\"") + defs[i].name + "\": {\"value\": " + num(it->second) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return r.correct ? 0 : 1;
}
