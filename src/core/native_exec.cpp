// Chunk grid, column blocking and the register-resident chunk walk of the
// native backend (native_exec.hpp).
//
// The walk keeps one single-block pass's accumulator (<= 16 columns) in
// vector registers for the whole chunk: one zmm at AVX-512, two ymm at AVX2.
// It is ONE template over a per-level column policy, instantiated once per
// level and row count. Like simd.cpp, this translation unit is compiled with
// -ffp-contract=off (CMakeLists.txt): with contraction allowed GCC fuses the
// walk's mul/add pairs into FMAs, whose single rounding breaks the bitwise
// identity with the generic walk and the scalar kernels.
#include "core/native_exec.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define UST_NATIVE_X86 1
#include <immintrin.h>
#endif

namespace ust::core::native {

std::vector<Chunk> make_chunks(nnz_t nnz, unsigned threadlen, unsigned workers,
                               nnz_t max_chunk_nnz) {
  std::vector<Chunk> chunks;
  if (nnz == 0) return chunks;
  UST_EXPECTS(threadlen >= 1);
  const nnz_t partitions = ceil_div<nnz_t>(nnz, threadlen);
  // ~4 chunks per worker: enough slack for dynamic load balancing without
  // making the serial boundary pass or the tile allocations noticeable. A
  // non-zero max_chunk_nnz raises the chunk count until every chunk fits the
  // cap -- the knob the streaming pipeline and the tuner's fourth axis share.
  nnz_t target = std::max<nnz_t>(1, static_cast<nnz_t>(workers) * 4);
  if (max_chunk_nnz != 0) {
    const nnz_t cap_partitions = std::max<nnz_t>(1, max_chunk_nnz / threadlen);
    target = std::max(target, ceil_div<nnz_t>(partitions, cap_partitions));
  }
  const nnz_t n = std::min<nnz_t>(partitions, target);
  chunks.reserve(n);
  for (nnz_t k = 0; k < n; ++k) {
    const nnz_t p0 = k * partitions / n;
    const nnz_t p1 = (k + 1) * partitions / n;
    if (p0 == p1) continue;  // more chunks requested than partitions exist
    chunks.push_back(Chunk{p0 * threadlen, std::min<nnz_t>(p1 * threadlen, nnz)});
  }
  UST_ENSURES(!chunks.empty() && chunks.front().lo == 0 && chunks.back().hi == nnz);
  return chunks;
}

std::vector<ColBlock> make_col_blocks(std::span<const index_t> widths, index_t rank_block,
                                      std::vector<std::size_t>& pass_off) {
  const index_t block = rank_block == 0 ? kAutoRankBlock : rank_block;
  std::vector<ColBlock> blocks;
  std::size_t acc_off = 0;
  for (std::size_t req = 0; req < widths.size(); ++req) {
    for (index_t c0 = 0; c0 < widths[req]; c0 += block) {
      const index_t nc = std::min<index_t>(block, widths[req] - c0);
      blocks.push_back(ColBlock{static_cast<std::uint32_t>(req), c0, nc, acc_off + c0});
    }
    acc_off += widths[req];
  }
  // Greedy pass packing: a pass accumulates at most `block` columns total, so
  // a batch of narrow requests shares one walk of the nnz stream while a
  // wide output still tiles. Splitting and packing never reorder a column's
  // per-non-zero operations, so any (rank_block, batch) combination is
  // bitwise identical to solo full-width runs.
  pass_off.clear();
  index_t pass_cols = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (pass_off.empty() || pass_cols + blocks[i].nc > block) {
      pass_off.push_back(i);
      pass_cols = 0;
    }
    pass_cols += blocks[i].nc;
  }
  pass_off.push_back(blocks.size());
  return blocks;
}

namespace {

#ifdef UST_NATIVE_X86

// Column policies: up to 16 columns of accumulator, masked lanes never touch
// memory. Every vector value crosses a function boundary by reference, never
// by value: walk_rows itself carries no target attribute, and where it is
// not inlined into its target wrapper (-O0) a by-value vector argument
// would be passed under a different ABI than the callee expects.

/// One zmm.
struct Avx512Cols {
  struct Acc {
    __m512 v;
  };
  using Mask = __mmask16;
  __attribute__((target("avx512f"))) static void mask(Mask& m, index_t nc) {
    m = static_cast<Mask>((1u << nc) - 1u);
  }
  __attribute__((target("avx512f"))) static void zero(Acc& acc) { acc.v = _mm512_setzero_ps(); }
  /// acc += (v * a) * b, or acc += v * a without b.
  template <bool kTwoRows>
  __attribute__((target("avx512f"))) static void add_product(Acc& acc, float v, const float* a,
                                                             const float* b, const Mask& m) {
    __m512 t = _mm512_mul_ps(_mm512_set1_ps(v), _mm512_maskz_loadu_ps(m, a));
    if constexpr (kTwoRows) t = _mm512_mul_ps(t, _mm512_maskz_loadu_ps(m, b));
    acc.v = _mm512_add_ps(acc.v, t);
  }
  /// dst += acc.
  __attribute__((target("avx512f"))) static void add_to(float* dst, const Acc& acc,
                                                        const Mask& m) {
    _mm512_mask_storeu_ps(dst, m, _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst), acc.v));
  }
  __attribute__((target("avx512f"))) static void store(float* dst, const Acc& acc,
                                                       const Mask& m) {
    _mm512_mask_storeu_ps(dst, m, acc.v);
  }
};

/// Two ymm: columns 0-7 and 8-15.
struct Avx2Cols {
  struct Acc {
    __m256 lo, hi;
  };
  struct Mask {
    __m256i lo, hi;
  };
  __attribute__((target("avx2"))) static void mask(Mask& m, index_t nc) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const int n = static_cast<int>(nc);
    m.lo = _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane);
    m.hi = _mm256_cmpgt_epi32(_mm256_set1_epi32(n - 8), lane);
  }
  __attribute__((target("avx2"))) static void zero(Acc& acc) {
    acc.lo = _mm256_setzero_ps();
    acc.hi = _mm256_setzero_ps();
  }
  template <bool kTwoRows>
  __attribute__((target("avx2"))) static void add_product(Acc& acc, float v, const float* a,
                                                          const float* b, const Mask& m) {
    const __m256 vv = _mm256_set1_ps(v);
    __m256 lo = _mm256_mul_ps(vv, _mm256_maskload_ps(a, m.lo));
    __m256 hi = _mm256_mul_ps(vv, _mm256_maskload_ps(a + 8, m.hi));
    if constexpr (kTwoRows) {
      lo = _mm256_mul_ps(lo, _mm256_maskload_ps(b, m.lo));
      hi = _mm256_mul_ps(hi, _mm256_maskload_ps(b + 8, m.hi));
    }
    acc.lo = _mm256_add_ps(acc.lo, lo);
    acc.hi = _mm256_add_ps(acc.hi, hi);
  }
  __attribute__((target("avx2"))) static void add_to(float* dst, const Acc& acc,
                                                     const Mask& m) {
    _mm256_maskstore_ps(dst, m.lo, _mm256_add_ps(_mm256_maskload_ps(dst, m.lo), acc.lo));
    _mm256_maskstore_ps(dst + 8, m.hi,
                        _mm256_add_ps(_mm256_maskload_ps(dst + 8, m.hi), acc.hi));
  }
  __attribute__((target("avx2"))) static void store(float* dst, const Acc& acc, const Mask& m) {
    _mm256_maskstore_ps(dst, m.lo, acc.lo);
    _mm256_maskstore_ps(dst + 8, m.hi, acc.hi);
  }
};

/// The register walk of one pass (RegisterWalkFn). Per column it performs
/// exactly the generic walk's sequence: acc += (v * row0) * row1 per
/// non-zero, dst += acc at a segment close, acc = 0 after it.
template <class V, bool kTwoRows>
index_t walk_rows(const RegisterWalk& walk) {
  // A local copy: the masked stores may alias any memory, so fields read
  // through the caller's reference would be reloaded every non-zero.
  const RegisterWalk w = walk;
  const FcooView& f = w.f;
  const RowGather& g = w.g;
  const std::size_t r = g.r;
  typename V::Mask m;
  V::mask(m, w.nc);
  typename V::Acc acc;
  V::zero(acc);
  index_t closes = 0;
  std::uint64_t bf_word = f.bf_words[w.ch.lo >> 6];
  for (nnz_t x = w.ch.lo; x < w.ch.hi; ++x) {
    if ((x & 63) == 0) bf_word = f.bf_words[x >> 6];
    if (x > w.ch.lo && ((bf_word >> (x & 63)) & 1ull)) {
      if (!w.starts_fresh && closes == 0) {
        V::store(w.head_partial, acc, m);
      } else {
        V::add_to(w.out.data +
                      static_cast<std::size_t>(f.seg_row[w.first_seg + closes]) * w.out.ld +
                      w.c0,
                  acc, m);
      }
      V::zero(acc);
      ++closes;
    }
    const value_t* a = g.fac0 + g.idx0[x] * r + w.c0;
    const value_t* b = kTwoRows ? g.fac1 + g.idx1[x] * r + w.c0 : nullptr;
    V::template add_product<kTwoRows>(acc, f.vals[x], a, b, m);
  }
  V::store(w.acc, acc, m);
  return closes;
}

// flatten inlines the template and its policy calls into each target
// function, so with optimisation on the whole walk is compiled for that
// level and the accumulator never leaves registers.
__attribute__((target("avx512f"), flatten)) index_t walk_avx512_1(const RegisterWalk& w) {
  return walk_rows<Avx512Cols, false>(w);
}
__attribute__((target("avx512f"), flatten)) index_t walk_avx512_2(const RegisterWalk& w) {
  return walk_rows<Avx512Cols, true>(w);
}
__attribute__((target("avx2"), flatten)) index_t walk_avx2_1(const RegisterWalk& w) {
  return walk_rows<Avx2Cols, false>(w);
}
__attribute__((target("avx2"), flatten)) index_t walk_avx2_2(const RegisterWalk& w) {
  return walk_rows<Avx2Cols, true>(w);
}

#endif  // UST_NATIVE_X86

}  // namespace

RegisterWalkFn register_walk(simd::Level level, bool two_rows) noexcept {
#ifdef UST_NATIVE_X86
  switch (level) {
    case simd::Level::kAvx512:
      return two_rows ? &walk_avx512_2 : &walk_avx512_1;
    case simd::Level::kAvx2:
      return two_rows ? &walk_avx2_2 : &walk_avx2_1;
    default:
      return nullptr;
  }
#else
  (void)level;
  (void)two_rows;
  return nullptr;
#endif
}

}  // namespace ust::core::native
