#include "tensor/gemm.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

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
  // The same lanes as raw bits, for masks.
  typedef std::uint32_t bits __attribute__((vector_size(4 * L), may_alias,
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
// order match the packed path; full tiles also match its FMA chains, the
// ragged edge does not (below). The choice between the two paths depends
// only on (variant, m), never on the thread chunk, so §5b holds.
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
  // lane's p-order matches the vector path, but GCC vectorizes this loop
  // into unfused multiplies and adds, so on FMA clones these columns'
  // bits depend on n (DESIGN.md §5b). Fusing them would move ResNet and
  // DenseNet bits.
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

// Narrow kNT: C = A * B^T for 4 <= m <= 16. A conv layer's weight
// gradient g * cols^T has m = out channels and n = fan_in, so a packed B
// panel would be all of cols transposed, reused by a single row block.
// This path packs only A^T (k-major, L = 8 or 16 lanes, one per C row,
// lanes past the rows zero) and reads each B row in place: per k step one
// A vector and, per B row of an NB-row tile, one broadcast B element into
// that row's accumulator. Each C element is thus the packed path's FMA
// chain from zero over the KC block, whatever the tile, and the driver
// adds blocks in the same order. The tile is stored transposed: its
// accumulators, 8 lanes at a time, go through an 8x8 register transpose,
// and each C row takes NB consecutive floats.
typedef LaneVec<8>::type v8sf;

__attribute__((always_inline)) inline void transpose8x8(
    v8sf& r0, v8sf& r1, v8sf& r2, v8sf& r3, v8sf& r4, v8sf& r5, v8sf& r6,
    v8sf& r7) {
  const v8sf t0 = __builtin_shufflevector(r0, r1, 0, 8, 1, 9, 4, 12, 5, 13);
  const v8sf t1 = __builtin_shufflevector(r0, r1, 2, 10, 3, 11, 6, 14, 7, 15);
  const v8sf t2 = __builtin_shufflevector(r2, r3, 0, 8, 1, 9, 4, 12, 5, 13);
  const v8sf t3 = __builtin_shufflevector(r2, r3, 2, 10, 3, 11, 6, 14, 7, 15);
  const v8sf t4 = __builtin_shufflevector(r4, r5, 0, 8, 1, 9, 4, 12, 5, 13);
  const v8sf t5 = __builtin_shufflevector(r4, r5, 2, 10, 3, 11, 6, 14, 7, 15);
  const v8sf t6 = __builtin_shufflevector(r6, r7, 0, 8, 1, 9, 4, 12, 5, 13);
  const v8sf t7 = __builtin_shufflevector(r6, r7, 2, 10, 3, 11, 6, 14, 7, 15);
  const v8sf u0 = __builtin_shufflevector(t0, t2, 0, 1, 8, 9, 4, 5, 12, 13);
  const v8sf u1 = __builtin_shufflevector(t0, t2, 2, 3, 10, 11, 6, 7, 14, 15);
  const v8sf u2 = __builtin_shufflevector(t1, t3, 0, 1, 8, 9, 4, 5, 12, 13);
  const v8sf u3 = __builtin_shufflevector(t1, t3, 2, 3, 10, 11, 6, 7, 14, 15);
  const v8sf u4 = __builtin_shufflevector(t4, t6, 0, 1, 8, 9, 4, 5, 12, 13);
  const v8sf u5 = __builtin_shufflevector(t4, t6, 2, 3, 10, 11, 6, 7, 14, 15);
  const v8sf u6 = __builtin_shufflevector(t5, t7, 0, 1, 8, 9, 4, 5, 12, 13);
  const v8sf u7 = __builtin_shufflevector(t5, t7, 2, 3, 10, 11, 6, 7, 14, 15);
  r0 = __builtin_shufflevector(u0, u4, 0, 1, 2, 3, 8, 9, 10, 11);
  r1 = __builtin_shufflevector(u1, u5, 0, 1, 2, 3, 8, 9, 10, 11);
  r2 = __builtin_shufflevector(u2, u6, 0, 1, 2, 3, 8, 9, 10, 11);
  r3 = __builtin_shufflevector(u3, u7, 0, 1, 2, 3, 8, 9, 10, 11);
  r4 = __builtin_shufflevector(u0, u4, 4, 5, 6, 7, 12, 13, 14, 15);
  r5 = __builtin_shufflevector(u1, u5, 4, 5, 6, 7, 12, 13, 14, 15);
  r6 = __builtin_shufflevector(u2, u6, 4, 5, 6, 7, 12, 13, 14, 15);
  r7 = __builtin_shufflevector(u3, u7, 4, 5, 6, 7, 12, 13, 14, 15);
}

// C row slice [0, NB) = (or +=) lanes [0, NB) of r: one rounding per
// element either way, as the packed path's stores. (Vectors pass by
// reference: a by-value 32-byte vector changes the baseline ABI.)
template <int NB>
__attribute__((always_inline)) inline void store_nt_row(
    float* FEDSU_RESTRICT crow, const v8sf& r, bool overwrite) {
  if constexpr (NB == 8) {
    v8sf& dst = *reinterpret_cast<v8sf*>(crow);
    dst = overwrite ? r : dst + r;
  } else if constexpr (NB == 4) {
    v4sf& dst = *reinterpret_cast<v4sf*>(crow);
    const v4sf lo = __builtin_shufflevector(r, r, 0, 1, 2, 3);
    dst = overwrite ? lo : dst + lo;
  } else {
    for (int j = 0; j < NB; ++j) crow[j] = overwrite ? r[j] : crow[j] + r[j];
  }
}

// Rows [0, rows) of a tile from eight 8-lane accumulator slices (slice j
// = column j of C, lane i = row i): one 8x8 transpose, then a store per
// row.
template <int NB>
__attribute__((always_inline)) inline void store_nt_rows(
    const v8sf& a0, const v8sf& a1, const v8sf& a2, const v8sf& a3,
    const v8sf& a4, const v8sf& a5, const v8sf& a6, const v8sf& a7,
    float* FEDSU_RESTRICT c, std::size_t ldc, int rows, bool overwrite) {
  v8sf r0 = a0, r1 = a1, r2 = a2, r3 = a3, r4 = a4, r5 = a5, r6 = a6,
       r7 = a7;
  transpose8x8(r0, r1, r2, r3, r4, r5, r6, r7);
  store_nt_row<NB>(c, r0, overwrite);
  if (rows > 1) store_nt_row<NB>(c + ldc, r1, overwrite);
  if (rows > 2) store_nt_row<NB>(c + 2 * ldc, r2, overwrite);
  if (rows > 3) store_nt_row<NB>(c + 3 * ldc, r3, overwrite);
  if (rows > 4) store_nt_row<NB>(c + 4 * ldc, r4, overwrite);
  if (rows > 5) store_nt_row<NB>(c + 5 * ldc, r5, overwrite);
  if (rows > 6) store_nt_row<NB>(c + 6 * ldc, r6, overwrite);
  if (rows > 7) store_nt_row<NB>(c + 7 * ldc, r7, overwrite);
}

// One tile: C rows [0, mr) x columns [0, NB) over one KC block, B's rows
// ldb floats apart.
template <int L, int NB>
__attribute__((always_inline)) inline void narrow_nt_tile(
    int kc, const float* FEDSU_RESTRICT ap, const float* FEDSU_RESTRICT b,
    std::size_t ldb, float* FEDSU_RESTRICT c, std::size_t ldc, int mr,
    bool overwrite) {
  typedef typename LaneVec<L>::type V;
  V acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{}, acc6{}, acc7{};
  for (int p = 0; p < kc; ++p) {
    const V av =
        *reinterpret_cast<const V*>(ap + static_cast<std::size_t>(p) * L);
    const float* FEDSU_RESTRICT bp = b + p;
    acc0 += bp[0] * av;
    if constexpr (NB > 1) acc1 += bp[ldb] * av;
    if constexpr (NB > 2) {
      acc2 += bp[2 * ldb] * av;
      acc3 += bp[3 * ldb] * av;
    }
    if constexpr (NB > 4) {
      acc4 += bp[4 * ldb] * av;
      acc5 += bp[5 * ldb] * av;
      acc6 += bp[6 * ldb] * av;
      acc7 += bp[7 * ldb] * av;
    }
  }
  // The accumulators are only ever read by value: a 64-byte vector whose
  // address is taken lands, under a sanitizer's fake stack frames, in
  // memory that is not 64-byte aligned.
  if constexpr (L == 8) {
    store_nt_rows<NB>(acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7, c, ldc,
                      mr, overwrite);
  } else {
    // Rows [0, 8) are the accumulators' low halves, rows [8, 16) the high.
    store_nt_rows<NB>(
        __builtin_shufflevector(acc0, acc0, 0, 1, 2, 3, 4, 5, 6, 7),
        __builtin_shufflevector(acc1, acc1, 0, 1, 2, 3, 4, 5, 6, 7),
        __builtin_shufflevector(acc2, acc2, 0, 1, 2, 3, 4, 5, 6, 7),
        __builtin_shufflevector(acc3, acc3, 0, 1, 2, 3, 4, 5, 6, 7),
        __builtin_shufflevector(acc4, acc4, 0, 1, 2, 3, 4, 5, 6, 7),
        __builtin_shufflevector(acc5, acc5, 0, 1, 2, 3, 4, 5, 6, 7),
        __builtin_shufflevector(acc6, acc6, 0, 1, 2, 3, 4, 5, 6, 7),
        __builtin_shufflevector(acc7, acc7, 0, 1, 2, 3, 4, 5, 6, 7), c, ldc,
        std::min(mr, 8), overwrite);
    if (mr <= 8) return;
    store_nt_rows<NB>(
        __builtin_shufflevector(acc0, acc0, 8, 9, 10, 11, 12, 13, 14, 15),
        __builtin_shufflevector(acc1, acc1, 8, 9, 10, 11, 12, 13, 14, 15),
        __builtin_shufflevector(acc2, acc2, 8, 9, 10, 11, 12, 13, 14, 15),
        __builtin_shufflevector(acc3, acc3, 8, 9, 10, 11, 12, 13, 14, 15),
        __builtin_shufflevector(acc4, acc4, 8, 9, 10, 11, 12, 13, 14, 15),
        __builtin_shufflevector(acc5, acc5, 8, 9, 10, 11, 12, 13, 14, 15),
        __builtin_shufflevector(acc6, acc6, 8, 9, 10, 11, 12, 13, 14, 15),
        __builtin_shufflevector(acc7, acc7, 8, 9, 10, 11, 12, 13, 14, 15),
        c + 8 * ldc, ldc, mr - 8, overwrite);
  }
}

// The tile at C column j (B row j), then j moves past it. (No lambdas in
// the clones' bodies: a closure the compiler keeps out of line is built
// for the baseline ISA, without FMA.)
template <int L, int NB>
__attribute__((always_inline)) inline void narrow_nt_columns(
    int kc, const float* FEDSU_RESTRICT ap, const float* FEDSU_RESTRICT b,
    std::size_t ldk, float* FEDSU_RESTRICT c, int n, int mr, bool overwrite,
    int& j) {
  narrow_nt_tile<L, NB>(kc, ap, b + j * ldk, ldk, c + j,
                        static_cast<std::size_t>(n), mr, overwrite);
  j += NB;
}

// Rows [m_begin, m_end) of C over every KC block: NB-row tiles, then
// tiles of 4, 2 and 1 rows for the rest. ap holds KC x L floats.
template <int L, int NB>
__attribute__((always_inline)) inline void narrow_nt_body(
    int m_begin, int m_end, int n, int k, const float* FEDSU_RESTRICT a,
    const float* FEDSU_RESTRICT b, float* FEDSU_RESTRICT c, bool overwrite,
    float* FEDSU_RESTRICT ap) {
  const int mr = m_end - m_begin;
  const std::size_t ldk = static_cast<std::size_t>(k);
  const std::size_t ldc = static_cast<std::size_t>(n);
  float* crows = c + static_cast<std::size_t>(m_begin) * ldc;
  for (int pc = 0; pc < k; pc += KC) {
    const int kc = std::min(KC, k - pc);
    const float* arows = a + static_cast<std::size_t>(m_begin) * ldk + pc;
    // Lanes past mr stay zero: one fill per block, not per k step (GCC
    // makes a lane-zeroing loop a memset call).
    if (mr < L) vec::fill(ap, 0.0f, static_cast<std::size_t>(kc) * L);
    int i = 0;
    for (; i + 8 <= mr; i += 8) {
      pack_transposed8(arows + i * ldk, ldk, kc, L, ap + i);
    }
    for (int p = 0; p < kc; ++p) {
      float* dst = ap + static_cast<std::size_t>(p) * L;
      for (int r = i; r < mr; ++r) dst[r] = arows[r * ldk + p];
    }
    // The first KC block honours the accumulate mode; later blocks add.
    const bool first = pc == 0 && overwrite;
    const float* bblock = b + pc;
    int j = 0;
    while (n - j >= NB) {
      narrow_nt_columns<L, NB>(kc, ap, bblock, ldk, crows, n, mr, first, j);
    }
    if (NB > 4 && n - j >= 4) {
      narrow_nt_columns<L, 4>(kc, ap, bblock, ldk, crows, n, mr, first, j);
    }
    if (NB > 2 && n - j >= 2) {
      narrow_nt_columns<L, 2>(kc, ap, bblock, ldk, crows, n, mr, first, j);
    }
    if (n - j >= 1) {
      narrow_nt_columns<L, 1>(kc, ap, bblock, ldk, crows, n, mr, first, j);
    }
  }
}

// NB8 / NB16: tile rows at 8 and at 16 lanes, as many accumulators as the
// ISA's vector registers hold.
template <int NB8, int NB16>
__attribute__((always_inline)) inline void narrow_nt_lanes(
    int m_begin, int m_end, int n, int k, const float* a, const float* b,
    float* c, bool overwrite, float* ap) {
  if (m_end - m_begin <= 8) {
    narrow_nt_body<8, NB8>(m_begin, m_end, n, k, a, b, c, overwrite, ap);
  } else {
    narrow_nt_body<16, NB16>(m_begin, m_end, n, k, a, b, c, overwrite, ap);
  }
}

// ---- Convolution column moves ------------------------------------------

// Output positions o in [lo, hi) whose input index o * stride + offset
// lies in [0, size), clamped to [0, count).
struct ValidRange {
  int lo, hi;
};
ValidRange valid_range(int offset, int size, int stride, int count) {
  const int lo = std::min(offset >= 0 ? 0 : (stride - 1 - offset) / stride,
                          count);
  const int hi = offset >= size ? 0 : (size - 1 - offset) / stride + 1;
  return {lo, std::clamp(hi, lo, count)};
}

// col2im at stride 1, W pixels of an image row per register: the row
// chunk starts at +0 and, for each tap in (kr, kc) order whose output row
// is live, adds one shifted W-lane load of that tap's cols row, with the
// lanes whose output column falls outside [0, ow) forced to +0. That is
// the per-element scatter's sum bit for bit: each pixel adds the same
// values in the same order from +0, and an absent tap adds +0, the
// identity on every value such a sum can hold (a sum started at +0 is
// never -0). The chunk is stored once; the last chunk of a row ends at
// the row's end and may overlap the one before it, so no chunk reads a
// float outside cols (its loads stay between tap rows of the buffer) or
// writes one outside the image row. W = 1 is the scalar form for rows
// narrower than 4.
template <int W>
__attribute__((always_inline)) inline void col2im_rows(
    const ConvShape& s, const float* FEDSU_RESTRICT cols,
    float* FEDSU_RESTRICT image) {
  const int k = s.kernel, pad = s.padding, h = s.h, w = s.w;
  const int oh = s.out_h(), ow = s.out_w();
  const std::size_t patch = static_cast<std::size_t>(oh) * ow;
  for (int c = 0; c < s.channels; ++c) {
    const float* taps = cols + static_cast<std::size_t>(c) * k * k * patch;
    float* plane = image + static_cast<std::size_t>(c) * h * w;
    for (int y = 0; y < h; ++y) {
      // Taps kr whose output row y + pad - kr lies in [0, oh).
      const int kr_lo = std::max(0, y + pad - oh + 1);
      const int kr_hi = std::min(k, y + pad + 1);
      float* row = plane + static_cast<std::size_t>(y) * w;
      if constexpr (W == 1) {
        for (int x = 0; x < w; ++x) {
          float acc = 0.0f;
          for (int kr = kr_lo; kr < kr_hi; ++kr) {
            const float* tap = taps + static_cast<std::size_t>(kr) * k * patch +
                               static_cast<std::size_t>(y + pad - kr) * ow;
            for (int kc = 0; kc < k; ++kc) {
              const int ocol = x + pad - kc;
              if (ocol >= 0 && ocol < ow) {
                acc += tap[static_cast<std::size_t>(kc) * patch + ocol];
              }
            }
          }
          row[x] = acc;
        }
      } else {
        typedef typename LaneVec<W>::type V;
        typedef typename LaneVec<W>::bits U;
        static constexpr std::uint32_t kIota[16] = {
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
        const U lane = *reinterpret_cast<const U*>(kIota);
        const U limit = U{} + static_cast<std::uint32_t>(ow);
        for (int x0 = 0;; x0 += W) {
          x0 = std::min(x0, w - W);
          V acc{};
          for (int kr = kr_lo; kr < kr_hi; ++kr) {
            // Lane x of tap (kr, kc) reads output column x0 + x + pad - kc;
            // outside [0, ow) it wraps past `limit` as unsigned.
            const float* src = taps + static_cast<std::size_t>(kr) * k * patch +
                               static_cast<std::size_t>(y + pad - kr) * ow +
                               x0 + pad;
            U ocol = lane + static_cast<std::uint32_t>(x0 + pad);
            for (int kc = 0; kc < k; ++kc) {
              const U v = *reinterpret_cast<const U*>(src);
              acc += (V)(v & (U)(ocol < limit));
              src += patch - 1;
              ocol -= 1;
            }
          }
          *reinterpret_cast<V*>(row + x0) = acc;
          if (x0 == w - W) break;
        }
      }
    }
  }
}

// The widest register row the ISA's L lanes and the image width allow.
template <int L>
__attribute__((always_inline)) inline void col2im_body(
    const ConvShape& s, const float* FEDSU_RESTRICT cols,
    float* FEDSU_RESTRICT image) {
  if constexpr (L >= 16) {
    if (s.w >= 16) return col2im_rows<16>(s, cols, image);
  }
  if constexpr (L >= 8) {
    if (s.w >= 8) return col2im_rows<8>(s, cols, image);
  }
  if (s.w >= 4) return col2im_rows<4>(s, cols, image);
  col2im_rows<1>(s, cols, image);
}

using MicroKernelFn = void (*)(int kc, const float* ap, const float* bp,
                               float* c, int ldc, int mr, int nr);
using MicroKernelDirectFn = void (*)(int kc, const float* ap,
                                     const float* bs, int ldb, float* c,
                                     int ldc, int mr, int nr);

using NarrowNtFn = void (*)(int m_begin, int m_end, int n, int k,
                            const float* a, const float* b, float* c,
                            bool overwrite, float* ap);
using Col2imFn = void (*)(const ConvShape& s, const float* cols,
                         float* image);

// The clones: one packed and one direct entry point per ISA, each a
// template over the lane count and the accumulate mode; then per ISA the
// narrow kNT driver and the stride-1 col2im.
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

void narrow_nt_generic(int m_begin, int m_end, int n, int k, const float* a,
                       const float* b, float* c, bool overwrite, float* ap) {
  narrow_nt_lanes<4, 2>(m_begin, m_end, n, k, a, b, c, overwrite, ap);
}
void col2im_generic(const ConvShape& s, const float* cols, float* image) {
  col2im_body<4>(s, cols, image);
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
__attribute__((target("avx2,fma"))) void narrow_nt_avx2(
    int m_begin, int m_end, int n, int k, const float* a, const float* b,
    float* c, bool overwrite, float* ap) {
  narrow_nt_lanes<8, 4>(m_begin, m_end, n, k, a, b, c, overwrite, ap);
}
__attribute__((target("avx2,fma"))) void col2im_avx2(const ConvShape& s,
                                                     const float* cols,
                                                     float* image) {
  col2im_body<8>(s, cols, image);
}
__attribute__((target("avx512f,avx512vl,avx2,fma"))) void narrow_nt_avx512(
    int m_begin, int m_end, int n, int k, const float* a, const float* b,
    float* c, bool overwrite, float* ap) {
  narrow_nt_lanes<8, 8>(m_begin, m_end, n, k, a, b, c, overwrite, ap);
}
__attribute__((target("avx512f,avx512vl,avx2,fma"))) void col2im_avx512(
    const ConvShape& s, const float* cols, float* image) {
  col2im_body<16>(s, cols, image);
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
  NarrowNtFn narrow_nt;
  Col2imFn col2im;  // stride 1
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
            narrow_nt_avx512,
            col2im_avx512,
            "avx512vl"};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {{micro_kernel_avx2<NR, true>, micro_kernel_avx2<NR, false>,
             micro_kernel_direct_avx2<NR, true>,
             micro_kernel_direct_avx2<NR, false>},
            {},
            NR,
            narrow_nt_avx2,
            col2im_avx2,
            "avx2-fma"};
  }
#endif
  return {{micro_kernel_generic<NR, true>, micro_kernel_generic<NR, false>,
           micro_kernel_direct_generic<NR, true>,
           micro_kernel_direct_generic<NR, false>},
          {},
          NR,
          narrow_nt_generic,
          col2im_generic,
          "baseline"};
}

// Resolved once before main(); every thread reads the same table.
const MicroKernels kMicroKernels = select_micro_kernels();

// Degenerate-shape path (m or n too small for the micro-tile to pay for
// packing): straight loops with the same per-element accumulation order as
// a single-KC-block run, built for the baseline ISA and so unfused.
// Selected from the full (m, n) only — never from the thread-chunk size —
// so the kernel choice, and therefore every output bit, is thread-count
// independent.
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

  util::ScratchArena& arena = util::ScratchArena::local();
  util::ScratchArena::Frame frame(arena);
  const int kc_max = std::min(KC, k);
  if (variant == Variant::kNT && m <= 16) {
    float* apack = arena.floats(static_cast<std::size_t>(kc_max) * 16);
    kMicroKernels.narrow_nt(m_begin, m_end, n, k, a, b, c,
                            accumulate == Accumulate::kOverwrite, apack);
    return;
  }

  // For kNN/kTN, op(B)'s j-run is contiguous in memory, so when few row
  // blocks would reuse a packed panel the kernel reads B in place instead
  // (same operand values, same per-lane accumulation order). Decided from
  // the full m, not this thread's chunk, so the path — and the bits — are
  // thread-count invariant.
  const bool direct_b = (variant != Variant::kNT) && m < MC;
  const int wide_nr = kMicroKernels.wide_nr;
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

void im2col(const ConvShape& s, const float* image, float* cols) {
  const int oh = s.out_h(), ow = s.out_w();
  const std::size_t patch = static_cast<std::size_t>(oh) * ow;
  // The staged plane of one (c, kc): row t holds input row t - padding
  // sampled at columns ocol * stride + kc - padding (+0 outside the
  // image), so row (c, kr, kc) of cols is staged rows kr, kr + stride, ...
  // — one contiguous block of oh rows when stride is 1.
  const int span = (oh - 1) * s.stride + s.kernel;
  util::ScratchArena& arena = util::ScratchArena::local();
  util::ScratchArena::Frame frame(arena);
  float* staged = arena.floats(static_cast<std::size_t>(span) * ow);
  const ValidRange rows = valid_range(-s.padding, s.h, 1, span);
  for (int c = 0; c < s.channels; ++c) {
    const float* plane = image + static_cast<std::size_t>(c) * s.h * s.w;
    for (int kc = 0; kc < s.kernel; ++kc) {
      const int offset = kc - s.padding;
      const ValidRange in = valid_range(offset, s.w, s.stride, ow);
      // A tap that misses every input column stages an all-zero plane.
      const ValidRange live = in.lo < in.hi ? rows : ValidRange{0, 0};
      vec::fill(staged, 0.0f, static_cast<std::size_t>(live.lo) * ow);
      for (int t = live.lo; t < live.hi; ++t) {
        float* dst = staged + static_cast<std::size_t>(t) * ow;
        const float* src = plane +
                           static_cast<std::size_t>(t - s.padding) * s.w +
                           (in.lo * s.stride + offset);
        vec::fill(dst, 0.0f, static_cast<std::size_t>(in.lo));
        if (s.stride == 1) {
          std::memcpy(dst + in.lo, src, sizeof(float) * (in.hi - in.lo));
        } else {
          for (int o = in.lo; o < in.hi; ++o) {
            dst[o] = src[static_cast<std::size_t>(o - in.lo) * s.stride];
          }
        }
        vec::fill(dst + in.hi, 0.0f, static_cast<std::size_t>(ow - in.hi));
      }
      vec::fill(staged + static_cast<std::size_t>(live.hi) * ow, 0.0f,
                static_cast<std::size_t>(span - live.hi) * ow);
      for (int kr = 0; kr < s.kernel; ++kr) {
        float* block =
            cols + (static_cast<std::size_t>(c) * s.kernel * s.kernel +
                    static_cast<std::size_t>(kr) * s.kernel + kc) *
                       patch;
        if (s.stride == 1) {
          std::memcpy(block, staged + static_cast<std::size_t>(kr) * ow,
                      sizeof(float) * patch);
          continue;
        }
        for (int orow = 0; orow < oh; ++orow) {
          std::memcpy(
              block + static_cast<std::size_t>(orow) * ow,
              staged + (static_cast<std::size_t>(orow) * s.stride + kr) * ow,
              sizeof(float) * ow);
        }
      }
    }
  }
}


void col2im(const ConvShape& s, const float* cols, float* image) {
  if (s.stride == 1) {
    kMicroKernels.col2im(s, cols, image);
    return;
  }
  // Strided: zero the image and scatter-add the clipped runs, in the same
  // (c, kr, kc, orow) order, so each pixel still sums its taps in
  // ascending (kr, kc) order from +0.
  const int oh = s.out_h(), ow = s.out_w();
  const std::size_t patch = static_cast<std::size_t>(oh) * ow;
  std::memset(image, 0,
              sizeof(float) * static_cast<std::size_t>(s.channels) * s.h * s.w);
  for (int c = 0; c < s.channels; ++c) {
    float* plane = image + static_cast<std::size_t>(c) * s.h * s.w;
    for (int kr = 0; kr < s.kernel; ++kr) {
      const ValidRange out_rows =
          valid_range(kr - s.padding, s.h, s.stride, oh);
      for (int kc = 0; kc < s.kernel; ++kc) {
        const int offset = kc - s.padding;
        const ValidRange in = valid_range(offset, s.w, s.stride, ow);
        const float* row =
            cols + (static_cast<std::size_t>(c) * s.kernel * s.kernel +
                    static_cast<std::size_t>(kr) * s.kernel + kc) *
                       patch;
        for (int orow = out_rows.lo; orow < out_rows.hi; ++orow) {
          float* dst = plane +
                       static_cast<std::size_t>(orow * s.stride + kr -
                                                s.padding) * s.w +
                       (in.lo * s.stride + offset);
          const float* src = row + static_cast<std::size_t>(orow) * ow + in.lo;
          for (int o = 0; o < in.hi - in.lo; ++o) {
            dst[static_cast<std::size_t>(o) * s.stride] += src[o];
          }
        }
      }
    }
  }
}

}  // namespace fedsu::tensor::gemm
