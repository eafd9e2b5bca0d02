// Layer probes shared by the workloads (layers.cpp).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace perfbench {

/// One rank-`rank` factor per mode, uniform in [0.1, 1), fixed by `seed`.
std::vector<ust::DenseMatrix> random_factors(const ust::CooTensor& t, ust::index_t rank,
                                             std::uint64_t seed);

/// Durations (ms) of every span called `name`.
std::vector<double> durations_ms(const std::vector<SpanRec>& spans, const std::string& name);

/// Measures the kernel, tensor, pipeline and baseline layers on `tensor`
/// from outside and sets their per-layer metrics in `r`: cold and warm plan
/// acquisition on a fresh engine, F-COO builds, traced MTTKRP calls over
/// every mode for about `budget_s` seconds (call time, native.execute /
/// native.fold span time, engine overhead per call), the computed work of
/// one call against the measured stream bandwidth, and the SPLATT and
/// reference MTTKRP baselines. Returns the spans of the traced calls.
std::vector<SpanRec> kernel_layers(Result& r, const ust::CooTensor& tensor, ust::index_t rank,
                                   const ust::Partitioning& part,
                                   const std::vector<ust::DenseMatrix>& factors,
                                   double budget_s, const HostFacts& host);

}  // namespace perfbench
