// Per-non-zero product expressions for the four unified operations, hoisted
// out of the op front-ends into the engine layer (DESIGN.md §11). The paper's
// central claim is that SpTTM / SpMTTKRP / SpTTMc (and the SpTTV extension)
// are ONE parallel program differing only in this expression; keeping all
// four expressions next to the single dispatch path makes that claim visible
// in the code instead of being re-stated per op file.
//
// Each expression provides the forms the two execution backends need:
//   * operator()(x, col) -> float      (sim backend: per-column evaluation)
//   * accumulate(x, v, acc)            (native backend: full accumulator tile)
//   * accumulate(x, v, acc, c0, nc)    (native backend, rank-blocked: columns
//                                       [c0, c0+nc) of the logical output row
//                                       accumulate into acc[0, nc))
//   * row_gather()                     (SpTTM and 3-order SpMTTKRP only: the
//                                       operands of the native backend's
//                                       register-resident chunk walk)
//
// The accumulate forms are the native backend's generic walk: one call per
// non-zero per column block, each an indirect call through the SIMD table
// (core/simd.hpp) the maker captured. The rank dimension is the vector axis,
// and every variant keeps the scalar per-column mul-then-add sequence, so
// results are bitwise identical across scalar/AVX2/AVX-512 and across any
// rank blocking. For a pass of at most native::kRegisterWalkCols columns,
// row_gather() instead lets the native walk resolve the SIMD level once per
// chunk pass and keep the accumulator in registers (native_exec.hpp), with
// the same per-column sequence. Makers capture the active table at
// expression-construction time, so a per-run simd::set_level() override
// takes effect on the next run.
//
// An ExprMaker binds the operation's rank parameters and produces the
// expression from (product-index pointers, factor-data pointers); the engine
// resolves those pointers per execution target (whole-tensor plan, stream
// chunk, or shard slice), so one maker serves every dispatch path.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <span>

#include "core/native_exec.hpp"
#include "core/simd.hpp"
#include "util/common.hpp"

namespace ust::engine {

/// Which unified operation a request runs. kSpTTV reuses the SpMTTKRP mode
/// split (and therefore shares its cached plans); it is a distinct kind here
/// because its expression and output width differ.
enum class OpKind { kSpTTM, kSpMTTKRP, kSpTTMc, kSpTTV };

/// Supports tensors up to order 8 (one index mode + up to 7 product modes).
constexpr std::size_t kMaxProductModes = 7;

const char* op_kind_name(OpKind kind);

namespace expr {

/// SpTTM: gather one row of the dense factor.
struct Spttm {
  const index_t* idx;
  const value_t* fac;
  index_t r;
  const core::simd::Ops* simd;

  float operator()(nnz_t x, index_t col) const {
    return fac[static_cast<std::size_t>(idx[x]) * r + col];
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc, index_t c0, index_t nc) const {
    const value_t* row = fac + static_cast<std::size_t>(idx[x]) * r;
    simd->axpy(acc, row + c0, v, nc);
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc) const {
    accumulate(x, v, acc, 0, r);
  }
  core::native::RowGather row_gather() const {
    return {idx, nullptr, fac, nullptr, r, simd->level};
  }
};

/// SpMTTKRP, 3-order fast path: Hadamard product of two factor rows.
struct Mttkrp2 {
  const index_t* idx0;
  const index_t* idx1;
  const value_t* fac0;
  const value_t* fac1;
  index_t r;
  const core::simd::Ops* simd;

  float operator()(nnz_t x, index_t col) const {
    return fac0[static_cast<std::size_t>(idx0[x]) * r + col] *
           fac1[static_cast<std::size_t>(idx1[x]) * r + col];
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc, index_t c0, index_t nc) const {
    const value_t* row0 = fac0 + static_cast<std::size_t>(idx0[x]) * r;
    const value_t* row1 = fac1 + static_cast<std::size_t>(idx1[x]) * r;
    simd->axpy2(acc, row0 + c0, row1 + c0, v, nc);
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc) const {
    accumulate(x, v, acc, 0, r);
  }
  core::native::RowGather row_gather() const {
    return {idx0, idx1, fac0, fac1, r, simd->level};
  }

  /// Pass capacity of the fused multi-request walk below; passes wider than
  /// this fall back to the generic per-block loop.
  static constexpr std::size_t kMaxFusedBlocks = 32;

  /// Fused multi-request accumulator consumed by the native walk
  /// (native_exec.hpp) when a rank-block pass covers equal-width blocks of
  /// several batched requests: ONE simd dispatch per non-zero feeds every
  /// request's tile, where the generic per-block loop would pay one indirect
  /// call per request and leave fusion amortizing only the stream decode.
  /// The accumulator/factor base pointers are hoisted here once per pass;
  /// per non-zero only the two row offsets (shared across the batch, since
  /// batched requests share one plan and therefore one set of index arrays)
  /// are recomputed. Request j's tile sees exactly the per-column
  /// mul-then-add sequence its own accumulate() call would apply, in the
  /// same ascending-block order, so fusion is bitwise neutral.
  struct PassFuser {
    float* accs[kMaxFusedBlocks];
    const float* abase[kMaxFusedBlocks];
    const float* bbase[kMaxFusedBlocks];
    std::size_t nblocks;
    std::size_t nc;
    index_t r;
    const index_t* idx0;
    const index_t* idx1;
    const core::simd::Ops* simd;

    void operator()(nnz_t x, float v) const {
      const std::size_t o0 = static_cast<std::size_t>(idx0[x]) * r;
      const std::size_t o1 = static_cast<std::size_t>(idx1[x]) * r;
      simd->axpy2b(accs, abase, o0, bbase, o1, nblocks, v, nc);
    }
  };

  /// Builds the fuser for one pass, or nullopt when the pass does not
  /// qualify (single block, too many blocks, mixed widths, or exprs that do
  /// not share index arrays / rank -- the latter never happens for batches
  /// formed by the engine's compatibility check, but is verified here so the
  /// fast path carries no implicit precondition). `acc` is the pass's
  /// accumulator tile: block b accumulates at acc + (b.acc_off -
  /// pass[0].acc_off).
  template <class Block>
  static std::optional<PassFuser> make_pass_fuser(std::span<const Mttkrp2> exprs,
                                                  std::span<const Block> pass, float* acc) {
    if (pass.size() < 2 || pass.size() > kMaxFusedBlocks) return std::nullopt;
    const Mttkrp2& e0 = exprs[pass[0].req];
    PassFuser fz;
    fz.nblocks = pass.size();
    fz.nc = static_cast<std::size_t>(pass[0].nc);
    fz.r = e0.r;
    fz.idx0 = e0.idx0;
    fz.idx1 = e0.idx1;
    fz.simd = e0.simd;
    for (std::size_t j = 0; j < pass.size(); ++j) {
      const Block& b = pass[j];
      const Mttkrp2& e = exprs[b.req];
      if (static_cast<std::size_t>(b.nc) != fz.nc || e.r != e0.r || e.idx0 != e0.idx0 ||
          e.idx1 != e0.idx1) {
        return std::nullopt;
      }
      fz.accs[j] = acc + (b.acc_off - pass[0].acc_off);
      fz.abase[j] = e.fac0 + b.c0;
      fz.bbase[j] = e.fac1 + b.c0;
    }
    return fz;
  }
};

/// SpMTTKRP, general N-order Hadamard product.
struct MttkrpN {
  std::array<const index_t*, kMaxProductModes> idx;
  std::array<const value_t*, kMaxProductModes> fac;
  std::size_t nprod;
  index_t r;
  const core::simd::Ops* simd;

  float operator()(nnz_t x, index_t col) const {
    float v = 1.0f;
    for (std::size_t p = 0; p < nprod; ++p) {
      v *= fac[p][static_cast<std::size_t>(idx[p][x]) * r + col];
    }
    return v;
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc, index_t c0, index_t nc) const {
    const value_t* rows[kMaxProductModes];
    for (std::size_t p = 0; p < nprod; ++p) {
      rows[p] = fac[p] + static_cast<std::size_t>(idx[p][x]) * r + c0;
    }
    simd->axpyn(acc, rows, nprod, v, nc);
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc) const {
    accumulate(x, v, acc, 0, r);
  }
};

/// SpTTMc: Kronecker product of two factor rows; column c of the r0*r1-wide
/// output row is U0(j, c / r1) * U1(k, c % r1). A rank block [c0, c0+nc) is
/// walked as runs of consecutive r1-columns sharing one U0 entry, each run a
/// single axpy of a U1 slice -- the per-column (v * row0[a]) * row1[b]
/// sequence is unchanged, so blocking stays bitwise neutral.
struct Ttmc {
  const index_t* idx0;
  const index_t* idx1;
  const value_t* fac0;
  const value_t* fac1;
  index_t r0;
  index_t r1;
  const core::simd::Ops* simd;

  float operator()(nnz_t x, index_t col) const {
    return fac0[static_cast<std::size_t>(idx0[x]) * r0 + col / r1] *
           fac1[static_cast<std::size_t>(idx1[x]) * r1 + col % r1];
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc, index_t c0, index_t nc) const {
    const value_t* row0 = fac0 + static_cast<std::size_t>(idx0[x]) * r0;
    const value_t* row1 = fac1 + static_cast<std::size_t>(idx1[x]) * r1;
    float* dst = acc;
    index_t c = c0;
    while (nc > 0) {
      const index_t a = c / r1;
      const index_t b = c % r1;
      const index_t w = std::min<index_t>(r1 - b, nc);
      simd->axpy(dst, row1 + b, v * row0[a], w);
      c += w;
      dst += w;
      nc -= w;
    }
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc) const {
    accumulate(x, v, acc, 0, r0 * r1);
  }
};

/// SpTTV: scalar product of the contraction vectors' entries (single output
/// column). Vectors are staged as single-column matrices, so fac[p][i] is the
/// p-th vector's i-th entry. There is no rank axis to vectorize or block.
struct Ttv {
  std::array<const index_t*, kMaxProductModes> idx;
  std::array<const value_t*, kMaxProductModes> vec;
  std::size_t nprod;

  float operator()(nnz_t x, index_t /*col*/) const {
    float v = 1.0f;
    for (std::size_t p = 0; p < nprod; ++p) v *= vec[p][idx[p][x]];
    return v;
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc) const {
    for (std::size_t p = 0; p < nprod; ++p) v *= vec[p][idx[p][x]];
    acc[0] += v;
  }
  void accumulate(nnz_t x, float v, float* UST_RESTRICT acc, index_t /*c0*/,
                  index_t /*nc*/) const {
    accumulate(x, v, acc);
  }
};

// --- Makers ----------------------------------------------------------------
// A maker carries the rank parameters and builds the expression from pointer
// arrays resolved per execution target. `pidx[p]` / `fac[p]` index the p-th
// product mode (ascending mode order). Expressions capture the active SIMD
// table here, at construction.

struct SpttmMaker {
  index_t r;
  Spttm operator()(const index_t* const* pidx, const value_t* const* fac) const {
    return Spttm{pidx[0], fac[0], r, &core::simd::active_ops()};
  }
};

struct Mttkrp2Maker {
  index_t r;
  Mttkrp2 operator()(const index_t* const* pidx, const value_t* const* fac) const {
    return Mttkrp2{pidx[0], pidx[1], fac[0], fac[1], r, &core::simd::active_ops()};
  }
};

struct MttkrpNMaker {
  std::size_t nprod;
  index_t r;
  MttkrpN operator()(const index_t* const* pidx, const value_t* const* fac) const {
    MttkrpN e{};
    e.nprod = nprod;
    e.r = r;
    e.simd = &core::simd::active_ops();
    for (std::size_t p = 0; p < nprod; ++p) {
      e.idx[p] = pidx[p];
      e.fac[p] = fac[p];
    }
    return e;
  }
};

struct TtmcMaker {
  index_t r0;
  index_t r1;
  Ttmc operator()(const index_t* const* pidx, const value_t* const* fac) const {
    return Ttmc{pidx[0], pidx[1], fac[0], fac[1], r0, r1, &core::simd::active_ops()};
  }
};

struct TtvMaker {
  std::size_t nprod;
  Ttv operator()(const index_t* const* pidx, const value_t* const* fac) const {
    Ttv e{};
    e.nprod = nprod;
    for (std::size_t p = 0; p < nprod; ++p) {
      e.idx[p] = pidx[p];
      e.vec[p] = fac[p];
    }
    return e;
  }
};

}  // namespace expr

/// Invokes `f` with the maker for `kind`; the single point where the op kind
/// selects its expression (the engine's one dispatch path is a generic lambda
/// over the maker, instantiated once per expression type). `r0`/`r1` are the
/// operation's rank parameters: the factor column count (r0) and, for SpTTMc,
/// the second factor's column count (r1).
template <class F>
decltype(auto) with_expr_maker(OpKind kind, std::size_t nprod, index_t r0, index_t r1,
                               F&& f) {
  switch (kind) {
    case OpKind::kSpTTM:
      return f(expr::SpttmMaker{r0});
    case OpKind::kSpMTTKRP:
      if (nprod == 2) return f(expr::Mttkrp2Maker{r0});
      return f(expr::MttkrpNMaker{nprod, r0});
    case OpKind::kSpTTMc:
      return f(expr::TtmcMaker{r0, r1});
    case OpKind::kSpTTV:
      return f(expr::TtvMaker{nprod});
  }
  UST_ENSURES(false);
}

}  // namespace ust::engine
