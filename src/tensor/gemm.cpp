#include "tensor/gemm.h"

#include <algorithm>
#include <cstddef>

#include "tensor/vectorized.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"

namespace fedsu::tensor::gemm {

namespace {

// Register micro-tile: MR rows of C held in MR vector accumulators across
// the whole KC slice. NR = 8 lanes is the tile on every ISA (8 YMM
// registers under AVX2, 16 XMM pairs under baseline SSE2; neither spills).
// On AVX-512 the column loop takes NR_WIDE = 16 lanes (8 ZMM registers)
// while 16 or more columns remain, and the 8-lane tile takes the rest.
constexpr int MR = 8;
constexpr int NR = 8;
constexpr int NR_WIDE = 16;
// Cache tiles: the packed (MC x KC) A panel (64 KiB) sits in L2, the packed
// (KC x NC) B panel (256 KiB) in L2/L3, and one KC x NR B micro-panel (8 KiB,
// 16 KiB at NR_WIDE) streams through L1 per micro-tile column.
constexpr int MC = 64;
constexpr int KC = 256;
constexpr int NC = 256;

// Below ~1M multiply-accumulates, pool dispatch costs more than it buys.
constexpr std::size_t kParallelMacThreshold = std::size_t{1} << 20;

constexpr int round_up(int v, int unit) { return (v + unit - 1) / unit * unit; }

typedef float v4sf __attribute__((vector_size(16), may_alias,
                                  aligned(alignof(float))));

// Packs an 8-row strided panel into k-major groups of 8 at a destination
// stride: dst[p * ldd + i] = src[i * ld + p] for i < 8, p < kc. Full 4x4
// blocks are transposed in registers (two rows of blocks per 4 k steps);
// the kc % 4 tail is gathered scalar. A panels (ldd = MR) and 8-wide B
// panels (ldd = NR) are one call; a 16-wide B panel is two, 8 lanes apart.
void pack_transposed8(const float* src, std::size_t ld, int kc,
                      std::size_t ldd, float* FEDSU_RESTRICT dst) {
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    for (int half = 0; half < 8; half += 4) {
      const float* s = src + static_cast<std::size_t>(half) * ld + p;
      const v4sf r0 = *reinterpret_cast<const v4sf*>(s);
      const v4sf r1 = *reinterpret_cast<const v4sf*>(s + ld);
      const v4sf r2 = *reinterpret_cast<const v4sf*>(s + 2 * ld);
      const v4sf r3 = *reinterpret_cast<const v4sf*>(s + 3 * ld);
      const v4sf lo01 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
      const v4sf hi01 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
      const v4sf lo23 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
      const v4sf hi23 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
      float* d = dst + static_cast<std::size_t>(p) * ldd + half;
      *reinterpret_cast<v4sf*>(d) =
          __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
      *reinterpret_cast<v4sf*>(d + ldd) =
          __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
      *reinterpret_cast<v4sf*>(d + 2 * ldd) =
          __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
      *reinterpret_cast<v4sf*>(d + 3 * ldd) =
          __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
    }
  }
  for (; p < kc; ++p) {
    for (int i = 0; i < 8; ++i) {
      dst[static_cast<std::size_t>(p) * ldd + i] =
          src[static_cast<std::size_t>(i) * ld + p];
    }
  }
}

// Packs rows [ic, ic+mc) x k-slice [pc, pc+kc) of op(A) into MR-tall
// micro-panels: panel `ir` holds kc groups of MR consecutive floats, one
// group per k step, rows beyond mc zero-padded. The packing absorbs the
// kTN transpose so the micro-kernel never sees a stride.
void pack_a(Variant v, const float* a, int m, int k, int ic, int mc, int pc,
            int kc, float* FEDSU_RESTRICT ap) {
  for (int ir = 0; ir < mc; ir += MR) {
    const int mr = std::min(MR, mc - ir);
    float* panel = ap + static_cast<std::size_t>(ir) * kc;
    if (v != Variant::kTN && mr == MR) {
      // kNN / kNT, A stored [m, k]: a full panel is 8 strided rows.
      pack_transposed8(a + static_cast<std::size_t>(ic + ir) * k + pc,
                       static_cast<std::size_t>(k), kc, MR, panel);
      continue;
    }
    for (int p = 0; p < kc; ++p) {
      float* dst = panel + static_cast<std::size_t>(p) * MR;
      if (v == Variant::kTN) {
        // A stored [k, m]: column ic+ir+i of op(A) is contiguous in memory.
        const float* src =
            a + static_cast<std::size_t>(pc + p) * m + (ic + ir);
        for (int i = 0; i < mr; ++i) dst[i] = src[i];
      } else {
        // A partial kNN / kNT panel: rows beyond mc stay zero.
        const float* src =
            a + static_cast<std::size_t>(ic + ir) * k + (pc + p);
        for (int i = 0; i < mr; ++i) dst[i] = src[static_cast<std::size_t>(i) * k];
      }
      for (int i = mr; i < MR; ++i) dst[i] = 0.0f;
    }
  }
}

// Width of the B micro-panel that starts `left` columns before the end of
// an NC panel: `wide_nr` lanes while that many remain, else NR (the last
// NR panel may be ragged). Packing and the macro-kernel both step by it,
// so panel jr always starts at bp + jr * kc.
constexpr int panel_width(int wide_nr, int left) {
  return left >= wide_nr ? wide_nr : NR;
}

// Packs columns [jc, jc+nc) x k-slice [pc, pc+kc) of op(B) into micro-panels
// of panel_width(wide_nr, ...) lanes (layout mirror of pack_a), absorbing
// the kNT transpose.
void pack_b(Variant v, const float* b, int n, int k, int jc, int nc, int pc,
            int kc, int wide_nr, float* FEDSU_RESTRICT bp) {
  for (int jr = 0; jr < nc; jr += panel_width(wide_nr, nc - jr)) {
    const int width = panel_width(wide_nr, nc - jr);
    const int nr = std::min(width, nc - jr);
    float* panel = bp + static_cast<std::size_t>(jr) * kc;
    if (v == Variant::kNT && nr == width) {
      // B stored [n, k]: a full panel is width / 8 runs of 8 strided rows.
      for (int j = 0; j < width; j += 8) {
        pack_transposed8(b + static_cast<std::size_t>(jc + jr + j) * k + pc,
                         static_cast<std::size_t>(k), kc,
                         static_cast<std::size_t>(width), panel + j);
      }
      continue;
    }
    for (int p = 0; p < kc; ++p) {
      float* dst = panel + static_cast<std::size_t>(p) * width;
      if (v == Variant::kNT) {
        // B stored [n, k]: row jc+jr+j supplies element (p, j).
        const float* src =
            b + static_cast<std::size_t>(jc + jr) * k + (pc + p);
        for (int j = 0; j < nr; ++j) dst[j] = src[static_cast<std::size_t>(j) * k];
      } else {
        // kNN / kTN: B stored [k, n].
        const float* src =
            b + static_cast<std::size_t>(pc + p) * n + (jc + jr);
        for (int j = 0; j < nr; ++j) dst[j] = src[j];
      }
      for (int j = nr; j < width; ++j) dst[j] = 0.0f;
    }
  }
}

// The innermost loop of everything: C[mr][nr] (+)= ap[kc][MR] x B[kc][L],
// where B's rows are ldb floats apart and L is the tile's lane count: NR
// on every ISA, NR_WIDE for the AVX-512 wide tile.
//
// The accumulators are eight vector-typed locals (GNU `vector_size`
// extension — portable across GCC and Clang, still compiler-generated code,
// no platform intrinsics). Plain `float acc[MR][L]` arrays do NOT work
// here: both GCC and Clang leave the array on the stack and turn every
// update into load+op+store, which caps the kernel at ~5 GFLOP/s. Vector
// locals make the register allocation explicit — one L-float accumulator
// per row lives in a register across the whole KC slice, and each k step is
// MR fused multiply-adds of a broadcast A element (`scalar * vector`
// broadcasts the scalar, an exact copy) against one streamed B vector.
//
// The body is compiled several times under different target attributes
// (baseline, AVX2+FMA, AVX-512VL) and selected once per process by
// `__builtin_cpu_supports` — the library itself stays a baseline x86-64
// binary. Lane-for-lane the summation order over k is identical in every
// clone and at every width: a lane computes the same FMA chain whether it
// sits in an 8- or a 16-lane register, so the tile width never moves a bit.
// Results are bitwise reproducible for a given binary on a given machine at
// any --threads; across CPU generations the FMA contraction differs, which
// §5b (DESIGN.md) explicitly scopes out.
//
// The templates take the lane count, not a vector type: a template argument
// drops a typedef's attributes, and the unaligned loads and stores below
// need `aligned(alignof(float))` to survive. LaneVec<L>::type keeps them.
template <int L>
struct LaneVec {
  typedef float type __attribute__((vector_size(4 * L), may_alias,
                                    aligned(alignof(float))));
};

template <int L, bool kOverwrite>
__attribute__((always_inline)) inline void micro_kernel_body(
    int kc, const float* FEDSU_RESTRICT ap, const float* FEDSU_RESTRICT b,
    std::size_t ldb, float* FEDSU_RESTRICT c, int ldc, int mr, int nr) {
  typedef typename LaneVec<L>::type V;
  V acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{}, acc6{}, acc7{};
  for (int p = 0; p < kc; ++p) {
    const float* FEDSU_RESTRICT av = ap + static_cast<std::size_t>(p) * MR;
    const V bv = *reinterpret_cast<const V*>(b + p * ldb);
    acc0 += av[0] * bv;
    acc1 += av[1] * bv;
    acc2 += av[2] * bv;
    acc3 += av[3] * bv;
    acc4 += av[4] * bv;
    acc5 += av[5] * bv;
    acc6 += av[6] * bv;
    acc7 += av[7] * bv;
  }
  // Whole rows store straight from the registers. Only an NR-lane tile can
  // be ragged (panel_width cuts wide panels where NR_WIDE columns remain),
  // so only it copies the accumulators to the stack: GCC's AddressSanitizer
  // fake stack frames do not keep an array of 64-byte vectors aligned.
  if (L == NR_WIDE || nr == L) {
    const auto row = [c, ldc](int i) -> V& {
      return *reinterpret_cast<V*>(c + static_cast<std::size_t>(i) * ldc);
    };
    if (mr > 0) row(0) = kOverwrite ? acc0 : row(0) + acc0;
    if (mr > 1) row(1) = kOverwrite ? acc1 : row(1) + acc1;
    if (mr > 2) row(2) = kOverwrite ? acc2 : row(2) + acc2;
    if (mr > 3) row(3) = kOverwrite ? acc3 : row(3) + acc3;
    if (mr > 4) row(4) = kOverwrite ? acc4 : row(4) + acc4;
    if (mr > 5) row(5) = kOverwrite ? acc5 : row(5) + acc5;
    if (mr > 6) row(6) = kOverwrite ? acc6 : row(6) + acc6;
    if (mr > 7) row(7) = kOverwrite ? acc7 : row(7) + acc7;
  } else {
    const V accs[MR] = {acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7};
    for (int i = 0; i < mr; ++i) {
      float* FEDSU_RESTRICT crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) {
        if (kOverwrite) crow[j] = accs[i][j];
        else crow[j] += accs[i][j];
      }
    }
  }
}

// Direct-B variant: identical FMA sequence, but B is read in place with a
// row stride instead of from a packed panel. For kNN/kTN the j-run of op(B)
// is contiguous in memory, so packing B buys nothing when the panel is
// reused by only a few row-blocks — and the per-sample conv GEMMs have
// m = out_channels of 6..32, where the pack traffic (~2*n*kc floats) costs
// more than half the kernel time. Operand values and per-lane accumulation
// order match the packed path exactly; the choice between the two paths
// depends only on (variant, m), never on the thread chunk, so §5b holds.
template <int L, bool kOverwrite>
__attribute__((always_inline)) inline void micro_kernel_direct_body(
    int kc, const float* FEDSU_RESTRICT ap, const float* FEDSU_RESTRICT bs,
    int ldb, float* FEDSU_RESTRICT c, int ldc, int mr, int nr) {
  if (nr == L) {
    micro_kernel_body<L, kOverwrite>(kc, ap, bs, static_cast<std::size_t>(ldb),
                                     c, ldc, mr, nr);
    return;
  }
  // Ragged right edge (8-lane tile only): one scalar accumulator column per
  // live lane, since a vector load would read past B's last column. Each
  // lane's p-order matches the vector path, so the edge is seam-free.
  for (int j = 0; j < nr; ++j) {
    float acc[MR] = {};
    const float* FEDSU_RESTRICT bcol = bs + j;
    for (int p = 0; p < kc; ++p) {
      const float bvj = bcol[static_cast<std::size_t>(p) * ldb];
      const float* FEDSU_RESTRICT av = ap + static_cast<std::size_t>(p) * MR;
      for (int i = 0; i < MR; ++i) acc[i] += av[i] * bvj;
    }
    for (int i = 0; i < mr; ++i) {
      float* cij = c + static_cast<std::size_t>(i) * ldc + j;
      if (kOverwrite) *cij = acc[i];
      else *cij += acc[i];
    }
  }
}

using MicroKernelFn = void (*)(int kc, const float* ap, const float* bp,
                               float* c, int ldc, int mr, int nr);
using MicroKernelDirectFn = void (*)(int kc, const float* ap,
                                     const float* bs, int ldb, float* c,
                                     int ldc, int mr, int nr);

// The clones: one packed and one direct entry point per ISA, each a
// template over the lane count and the accumulate mode.
template <int L, bool kOverwrite>
void micro_kernel_generic(int kc, const float* ap, const float* bp, float* c,
                          int ldc, int mr, int nr) {
  micro_kernel_body<L, kOverwrite>(kc, ap, bp, L, c, ldc, mr, nr);
}
template <int L, bool kOverwrite>
void micro_kernel_direct_generic(int kc, const float* ap, const float* bs,
                                 int ldb, float* c, int ldc, int mr, int nr) {
  micro_kernel_direct_body<L, kOverwrite>(kc, ap, bs, ldb, c, ldc, mr, nr);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FEDSU_GEMM_X86_DISPATCH 1
template <int L, bool kOverwrite>
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    int kc, const float* ap, const float* bp, float* c, int ldc, int mr,
    int nr) {
  micro_kernel_body<L, kOverwrite>(kc, ap, bp, L, c, ldc, mr, nr);
}
template <int L, bool kOverwrite>
__attribute__((target("avx2,fma"))) void micro_kernel_direct_avx2(
    int kc, const float* ap, const float* bs, int ldb, float* c, int ldc,
    int mr, int nr) {
  micro_kernel_direct_body<L, kOverwrite>(kc, ap, bs, ldb, c, ldc, mr, nr);
}
template <int L, bool kOverwrite>
__attribute__((target("avx512f,avx512vl,avx2,fma"))) void micro_kernel_avx512(
    int kc, const float* ap, const float* bp, float* c, int ldc, int mr,
    int nr) {
  micro_kernel_body<L, kOverwrite>(kc, ap, bp, L, c, ldc, mr, nr);
}
template <int L, bool kOverwrite>
__attribute__((target("avx512f,avx512vl,avx2,fma"))) void
micro_kernel_direct_avx512(int kc, const float* ap, const float* bs, int ldb,
                           float* c, int ldc, int mr, int nr) {
  micro_kernel_direct_body<L, kOverwrite>(kc, ap, bs, ldb, c, ldc, mr, nr);
}
#endif

// One tile width's entry points: packed or direct B, overwrite or add.
struct TileKernels {
  MicroKernelFn overwrite = nullptr;
  MicroKernelFn add = nullptr;
  MicroKernelDirectFn direct_overwrite = nullptr;
  MicroKernelDirectFn direct_add = nullptr;
};

struct MicroKernels {
  TileKernels narrow;  // MR x NR: the tile below AVX-512, the tail above it
  TileKernels wide;    // MR x NR_WIDE on AVX-512; unset elsewhere
  int wide_nr;         // NR_WIDE when `wide` is set, else NR
  const char* isa;
};

MicroKernels select_micro_kernels() {
#ifdef FEDSU_GEMM_X86_DISPATCH
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vl")) {
    return {{micro_kernel_avx512<NR, true>, micro_kernel_avx512<NR, false>,
             micro_kernel_direct_avx512<NR, true>,
             micro_kernel_direct_avx512<NR, false>},
            {micro_kernel_avx512<NR_WIDE, true>,
             micro_kernel_avx512<NR_WIDE, false>,
             micro_kernel_direct_avx512<NR_WIDE, true>,
             micro_kernel_direct_avx512<NR_WIDE, false>},
            NR_WIDE,
            "avx512vl"};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {{micro_kernel_avx2<NR, true>, micro_kernel_avx2<NR, false>,
             micro_kernel_direct_avx2<NR, true>,
             micro_kernel_direct_avx2<NR, false>},
            {},
            NR,
            "avx2-fma"};
  }
#endif
  return {{micro_kernel_generic<NR, true>, micro_kernel_generic<NR, false>,
           micro_kernel_direct_generic<NR, true>,
           micro_kernel_direct_generic<NR, false>},
          {},
          NR,
          "baseline"};
}

// Resolved once before main(); every thread reads the same table.
const MicroKernels kMicroKernels = select_micro_kernels();

// Degenerate-shape path (m or n too small for the micro-tile to pay for
// packing): straight loops with the same per-element accumulation order as
// a single-KC-block run. Selected from the full (m, n) only — never from
// the thread-chunk size — so the kernel choice, and therefore every output
// bit, is thread-count independent.
void small_gemm_rows(Variant v, int m_begin, int m_end, int m, int n, int k,
                     const float* a, const float* b, float* c,
                     Accumulate accumulate) {
  for (int i = m_begin; i < m_end; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    if (v == Variant::kNT) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      for (int j = 0; j < n; ++j) {
        const float* brow = b + static_cast<std::size_t>(j) * k;
        float acc = 0.0f;
        for (int l = 0; l < k; ++l) acc += arow[l] * brow[l];
        if (accumulate == Accumulate::kAdd) crow[j] += acc;
        else crow[j] = acc;
      }
    } else {
      if (accumulate == Accumulate::kOverwrite) vec::fill(crow, 0.0f, n);
      for (int l = 0; l < k; ++l) {
        const float av = (v == Variant::kTN)
                             ? a[static_cast<std::size_t>(l) * m + i]
                             : a[static_cast<std::size_t>(i) * k + l];
        vec::axpy(crow, av, b + static_cast<std::size_t>(l) * n, n);
      }
    }
  }
}

}  // namespace

void sgemm_rows(Variant variant, int m_begin, int m_end, int m, int n, int k,
                const float* a, const float* b, float* c,
                Accumulate accumulate) {
  if (m_begin >= m_end || n <= 0) return;
  if (k <= 0) {
    if (accumulate == Accumulate::kOverwrite) {
      vec::fill(c + static_cast<std::size_t>(m_begin) * n, 0.0f,
                static_cast<std::size_t>(m_end - m_begin) * n);
    }
    return;
  }
  if (m < 4 || n < 4) {
    small_gemm_rows(variant, m_begin, m_end, m, n, k, a, b, c, accumulate);
    return;
  }

  // For kNN/kTN, op(B)'s j-run is contiguous in memory, so when few row
  // blocks would reuse a packed panel the kernel reads B in place instead
  // (same operand values, same per-lane accumulation order). Decided from
  // the full m, not this thread's chunk, so the path — and the bits — are
  // thread-count invariant.
  const bool direct_b = (variant != Variant::kNT) && m < MC;
  const int wide_nr = kMicroKernels.wide_nr;

  util::ScratchArena& arena = util::ScratchArena::local();
  util::ScratchArena::Frame frame(arena);
  const int kc_max = std::min(KC, k);
  float* bpack = direct_b
                     ? nullptr
                     : arena.floats(static_cast<std::size_t>(round_up(
                           std::min(NC, n), NR)) * kc_max);
  float* apack = arena.floats(static_cast<std::size_t>(
      round_up(std::min(MC, m_end - m_begin), MR)) * kc_max);

  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      if (!direct_b) {
        pack_b(variant, b, n, k, jc, nc, pc, kc, wide_nr, bpack);
      }
      // The first KC block honors the caller's accumulate mode; later
      // blocks always add. Per element this is a fixed ascending-KC-block
      // order regardless of how rows were split across threads.
      const bool first_block =
          pc == 0 && accumulate == Accumulate::kOverwrite;
      for (int ic = m_begin; ic < m_end; ic += MC) {
        const int mc = std::min(MC, m_end - ic);
        pack_a(variant, a, m, k, ic, mc, pc, kc, apack);
        for (int jr = 0; jr < nc; jr += panel_width(wide_nr, nc - jr)) {
          const int width = panel_width(wide_nr, nc - jr);
          const int nr = std::min(width, nc - jr);
          const TileKernels& tile =
              width == NR ? kMicroKernels.narrow : kMicroKernels.wide;
          const MicroKernelFn kernel = first_block ? tile.overwrite : tile.add;
          const MicroKernelDirectFn direct_kernel =
              first_block ? tile.direct_overwrite : tile.direct_add;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = std::min(MR, mc - ir);
            const float* apanel = apack + static_cast<std::size_t>(ir) * kc;
            float* ctile =
                c + static_cast<std::size_t>(ic + ir) * n + (jc + jr);
            if (direct_b) {
              // op(B) is [k, n] for both kNN and kTN.
              direct_kernel(kc, apanel,
                            b + static_cast<std::size_t>(pc) * n + (jc + jr),
                            n, ctile, n, mr, nr);
            } else {
              kernel(kc, apanel, bpack + static_cast<std::size_t>(jr) * kc,
                     ctile, n, mr, nr);
            }
          }
        }
      }
    }
  }
}

void sgemm(Variant variant, int m, int n, int k, const float* a,
           const float* b, float* c, Accumulate accumulate) {
  if (m <= 0 || n <= 0) return;
  const std::size_t macs = static_cast<std::size_t>(m) * n * (k > 0 ? k : 1);
  if (m > 1 && macs >= kParallelMacThreshold) {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pool.worth_parallelizing()) {
      pool.parallel_for(
          0, static_cast<std::size_t>(m),
          [=](std::size_t row_begin, std::size_t row_end) {
            sgemm_rows(variant, static_cast<int>(row_begin),
                       static_cast<int>(row_end), m, n, k, a, b, c,
                       accumulate);
          },
          /*grain=*/MR);
      return;
    }
  }
  sgemm_rows(variant, 0, m, m, n, k, a, b, c, accumulate);
}

const char* isa_name() { return kMicroKernels.isa; }

}  // namespace fedsu::tensor::gemm
