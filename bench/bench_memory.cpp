// Figure 9 reproduction: GPU global-memory consumption of SpMTTKRP on
// mode-1, ParTI vs Unified. Two sections:
//  (1) analytic footprints at FULL paper scale (exactly how the paper
//      computed the OOM entries "by hand" from ParTI's source), against the
//      Titan X's 12 GB;
//  (2) measured peak device usage on the replicas via the simulator's
//      allocation accounting.
#include <cstdio>

#include "baselines/parti_gpu.hpp"
#include "bench_common.hpp"
#include "core/mode_plan.hpp"
#include "core/spmttkrp.hpp"
#include "tensor/fcoo.hpp"

using namespace ust;

namespace {

/// Unified's analytic device footprint for SpMTTKRP on mode-1: F-COO arrays
/// (paper formula + per-thread segment ids + per-segment rows bounded by
/// dim(mode)) + factors + output.
std::size_t unified_required_bytes(nnz_t nnz, std::span<const index_t> dims, int mode,
                                   index_t rank, unsigned threadlen) {
  std::size_t bytes = FcooTensor::table2_formula_bytes(nnz, dims.size() - 1, threadlen);
  bytes += ceil_div<nnz_t>(nnz, threadlen) * sizeof(index_t);  // thread_first_seg
  bytes += static_cast<std::size_t>(dims[static_cast<std::size_t>(mode)]) *
           sizeof(index_t);  // seg_row (<= one entry per output row)
  for (std::size_t m = 0; m < dims.size(); ++m) {
    if (static_cast<int>(m) == mode) continue;
    bytes += static_cast<std::size_t>(dims[m]) * rank * sizeof(value_t);
  }
  bytes += static_cast<std::size_t>(dims[static_cast<std::size_t>(mode)]) * rank *
           sizeof(value_t);
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli = bench::make_bench_cli("bench_memory",
                                  "Figure 9: device memory consumption of SpMTTKRP");
  if (!cli.parse(argc, argv)) return 1;
  bench::print_platform(sim::DeviceProps::titan_x());
  const auto rank = static_cast<index_t>(cli.get_int("rank"));
  const int mode = 0;
  bench::JsonResults json("bench_memory");

  print_banner("Figure 9 (analytic, FULL paper scale): SpMTTKRP mode-1 memory (MB)");
  {
    Table t({"dataset", "ParTI-GPU (MB)", "Unified (MB)", "reduction", "fits Titan X?"});
    // A 12 GiB Titan X has ~11.5 GiB usable after the CUDA context and
    // driver-reserved memory -- the budget the paper's OOM failures hit.
    const double twelve_gb = 11.5 * 1024.0;
    for (const auto& spec : io::paper_datasets()) {
      const double parti_mb =
          static_cast<double>(baseline::PartiGpuMttkrp::required_bytes(
              spec.paper_nnz, spec.paper_dims, mode, rank)) /
          (1024.0 * 1024.0);
      const double uni_mb =
          static_cast<double>(unified_required_bytes(spec.paper_nnz, spec.paper_dims, mode,
                                                     rank, spec.best_spmttkrp.threadlen)) /
          (1024.0 * 1024.0);
      const std::string fits = parti_mb > twelve_gb ? "ParTI: NO (OOM)" : "both: yes";
      t.add_row({spec.name, Table::num(parti_mb, 0), Table::num(uni_mb, 0),
                 Table::num(100.0 * (1.0 - uni_mb / parti_mb), 1) + "%", fits});
      json.add(spec.name + ".analytic_parti_mb", parti_mb);
      json.add(spec.name + ".analytic_unified_mb", uni_mb);
    }
    t.print();
    std::printf(
        "paper reference: unified reduces memory by 68.6%% (nell1) and 88.6%% (brainq);\n"
        "ParTI runs out of the Titan X's 12 GB on nell1 and delicious.\n");
  }

  print_banner("Figure 9 (measured on replicas): peak device bytes via simulator accounting");
  {
    Table t({"dataset", "ParTI-GPU peak (MB)", "Unified peak (MB)", "reduction"});
    const auto datasets = bench::load_from_cli(cli);
    for (const auto& d : datasets) {
      const auto factors = bench::make_factors(d.tensor, rank);

      double parti_mb = 0.0;
      {
        sim::Device dev;  // fresh device per measurement for clean peaks
        baseline::PartiGpuMttkrp op(dev, d.tensor, mode);
        op.run(factors);
        parti_mb = static_cast<double>(dev.peak_bytes()) / (1024.0 * 1024.0);
      }
      double uni_mb = 0.0;
      {
        sim::Device dev;
        engine::Engine eng(dev);
        core::UnifiedMttkrp op(eng, d.tensor, mode, d.spec.best_spmttkrp);
        // The sim backend models the GPU: factors and output are staged in
        // device memory, as ParTI's are and as the analytic footprint counts
        // them. Native runs read and write host memory in place, so their
        // peak would hold the plan alone.
        core::UnifiedOptions gpu = bench::kernel_options(cli);
        gpu.backend = core::ExecBackend::kSim;
        op.run(factors, gpu);
        uni_mb = static_cast<double>(dev.peak_bytes()) / (1024.0 * 1024.0);
      }
      t.add_row({d.name, Table::num(parti_mb, 1), Table::num(uni_mb, 1),
                 Table::num(100.0 * (1.0 - uni_mb / parti_mb), 1) + "%"});
      json.add(d.name + ".measured_parti_peak_mb", parti_mb);
      json.add(d.name + ".measured_unified_peak_mb", uni_mb);
    }
    t.print();
  }
  if (!json.write(cli.get("json"))) return 1;
  return 0;
}
