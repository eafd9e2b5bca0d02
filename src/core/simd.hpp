// Runtime-dispatched SIMD primitives for the native backend's accumulator
// tile (DESIGN.md §13). The rank dimension is the natural vector axis: every
// unified op accumulates `acc[c] += v * f(rows..., c)` over a contiguous
// column tile, so one width-agnostic kernel per op shape (one factor row, two
// rows, N rows) covers SpTTM, SpMTTKRP and SpTTMc. Three variants -- scalar,
// AVX2 (8-wide) and AVX-512F (16-wide) -- sit behind ONE function-pointer
// table selected at runtime from CPUID.
//
// Bitwise contract: every variant performs, per column, exactly the scalar
// sequence `acc[c] += (v * a[c]) * b[c] * ...` -- separate multiply then add,
// NEVER a fused multiply-add (FMA rounds once where mul+add rounds twice, so
// fusing would change results). Columns are independent and lanes never
// interact, so vectorizing the column loop preserves the per-column operation
// order exactly; the translation unit is additionally compiled with
// -ffp-contract=off so the compiler cannot re-fuse the intrinsics' mul+add.
// Consequently scalar, AVX2 and AVX-512 runs are bitwise identical, which is
// what lets the forced-scalar fallback share the chunk-boundary carry handoff
// (native_exec.hpp) with the vector paths untouched.
//
// Dispatch override: the environment variable UST_SIMD (scalar|avx2|avx512),
// read once at first use, clamps the detected level -- CI's forced-scalar job
// uses it. Benches and tests override programmatically via set_level(), which
// also clamps to what the CPU supports.
#pragma once

#include <cstddef>
#include <string_view>

#include "util/common.hpp"

namespace ust::core::simd {

/// Kernel variant, ordered by width so levels clamp with std::min.
enum class Level : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The function-pointer table behind the op exprs' accumulate() forms, which
/// the native backend's generic walk calls once per block per non-zero
/// (single-block passes of <= 16 columns of SpTTM / 3-order SpMTTKRP run the
/// register walk in native_exec.cpp instead). All primitives accumulate into
/// acc[0, n): callers pass the accumulator tile slice and factor-row slices
/// already offset to the current rank block.
struct Ops {
  Level level = Level::kScalar;
  /// acc[c] += v * a[c]            (SpTTM; SpTTMc per source row)
  void (*axpy)(float* UST_RESTRICT acc, const float* UST_RESTRICT a, float v,
               std::size_t n);
  /// acc[c] += (v * a[c]) * b[c]   (3-order SpMTTKRP)
  void (*axpy2)(float* UST_RESTRICT acc, const float* UST_RESTRICT a,
                const float* UST_RESTRICT b, float v, std::size_t n);
  /// acc[c] += v * rows[0][c] * ... * rows[nrows-1][c]  (N-order SpMTTKRP)
  void (*axpyn)(float* UST_RESTRICT acc, const float* const* rows,
                std::size_t nrows, float v, std::size_t n);
  /// accs[j][c] += (v * a[j][ao + c]) * b[j][bo + c] for j in [0, nreq) --
  /// the batched form of axpy2 for request fusion: the native walk makes ONE
  /// dispatch per non-zero covering every fused request's tile, instead of
  /// one indirect call per request (which would leave fusion amortizing only
  /// the stream decode). The base-pointer arrays are loop-invariant per
  /// rank-block pass; only the shared row offsets (ao, bo) change per
  /// non-zero. Requests are processed in ascending j with the identical
  /// per-column sequence, so results match per-request axpy2 calls bitwise.
  void (*axpy2b)(float* const* UST_RESTRICT accs, const float* const* a, std::size_t ao,
                 const float* const* b, std::size_t bo, std::size_t nreq, float v,
                 std::size_t n);
};

/// CPUID feature probes (false on non-x86 builds).
bool cpu_has_avx2() noexcept;
bool cpu_has_avx512() noexcept;

/// Widest level this CPU supports, clamped by UST_SIMD if set (read once).
Level max_level() noexcept;

/// The level the native backend currently dispatches to. Starts at
/// max_level(); set_level() (clamped to max_level()) changes it for
/// subsequent op-expr constructions -- benches time forced-scalar vs
/// dispatched with it, tests prove bitwise agreement across levels.
Level active_level() noexcept;
void set_level(Level level) noexcept;

/// Table for an explicit level (clamped to max_level()).
const Ops& ops(Level level) noexcept;
/// Table for active_level(); op-expr makers grab this at construction so a
/// set_level() between runs takes effect per run.
inline const Ops& active_ops() noexcept { return ops(active_level()); }

const char* level_name(Level level) noexcept;
/// Parses "scalar" | "avx2" | "avx512"; returns false on anything else.
bool parse_level(std::string_view name, Level& out) noexcept;

/// RAII level override for tests/benches (restores on scope exit).
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) noexcept : prev_(active_level()) { set_level(level); }
  ~ScopedLevel() { set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level prev_;
};

}  // namespace ust::core::simd
