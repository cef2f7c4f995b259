// Cache-blocked, register-tiled single-precision GEMM.
//
// One kernel serves the whole training hot path: nn::Linear and every
// Conv2d im2col GEMM route here. Design (DESIGN.md §9):
//
//   * Three-level blocking: NC panels of B columns (outer), KC slices of
//     the reduction dimension, MC panels of C rows — each (KC x NC) B
//     panel and (MC x KC) A panel is packed once into contiguous
//     micro-panels and reused across the whole macro-kernel.
//   * Register micro-tile, 8 rows by 8 or 16 lanes: the micro-kernel holds
//     eight vector-typed accumulators (GNU vector_size extension —
//     compiler codegen, no platform intrinsics) in registers across the
//     whole KC slice; each k step is eight fused multiply-adds against one
//     streamed B vector. AVX-512 hosts take 8x16 tiles (zmm) while 16 or
//     more columns remain and 8x8 tiles for the rest; other hosts take
//     8x8 tiles throughout.
//   * Runtime ISA dispatch: the same micro-kernel body, a template over
//     the lane count, is compiled under baseline, AVX2+FMA, and AVX-512VL
//     target attributes, and __builtin_cpu_supports picks the widest clone
//     once per process. The library binary itself stays baseline x86-64
//     (FEDSU_NATIVE=ON instead retunes the whole build for the host).
//   * Packing absorbs all transposes: the kTN / kNT variants differ only
//     in how panels are gathered, never in the micro-kernel. A full panel
//     that is 8 strided rows in memory (A for kNN/kNT, B for kNT) moves
//     through 4x4 register transposes (GNU vector extension,
//     __builtin_shufflevector); a 16-wide B panel is two such runs, and
//     partial edge panels are gathered scalar.
//     When op(B)'s j-run is contiguous in memory (kNN/kTN) and m is small
//     enough that a packed panel would see little reuse, the kernel reads
//     B in place — same operands, same accumulation order, none of the
//     pack traffic.
//   * Pack buffers come from the calling thread's util::ScratchArena —
//     zero heap allocations after the first call on a thread.
//
// Determinism (DESIGN.md §5b): every C element accumulates its k products
// in an order fixed by the KC blocking alone — ascending KC block, then
// ascending k within the block — and threading only splits C rows across
// workers. A row's result does not depend on which worker computes it or
// where micro-tile boundaries land, so output bits are identical for any
// thread count; nor on the tile's width, since a lane runs the same FMA
// chain in an 8- or a 16-lane register. Results may legitimately differ
// from the pre-blocked scalar kernel (a different but equally valid
// accumulation order) within normal float tolerance, and across CPU
// generations (the dispatched clone determines whether multiplies and adds
// are fused) — determinism is per binary per machine, not across kernel
// generations or ISAs.
#pragma once

namespace fedsu::tensor::gemm {

// Operand layout. A and B are dense row-major with no padding:
//   kNN: C[m,n] = A[m,k] * B[k,n]
//   kTN: C[m,n] = A[k,m]^T * B[k,n]   (A stored k-major, e.g. dW = dY^T X)
//   kNT: C[m,n] = A[m,k] * B[n,k]^T   (e.g. Linear forward: X W^T)
enum class Variant { kNN, kTN, kNT };

// kOverwrite: C = A*B (C need not be initialized).
// kAdd:       C += A*B (accumulate into existing C, e.g. gradient sums).
enum class Accumulate { kOverwrite, kAdd };

// Computes C (see Variant) with the blocked kernel. Fans the M dimension
// out on util::ThreadPool::global() when the product is large enough and
// the caller is not already a pool worker; bitwise identical results
// either way.
void sgemm(Variant variant, int m, int n, int k, const float* a,
           const float* b, float* c, Accumulate accumulate);

// Computes rows [m_begin, m_end) of C on the calling thread only. `m` is
// still the full logical row count (the stored stride of A in the kTN
// layout). This is the per-worker body of sgemm and the single-threaded
// reference entry point used by tests and bench_gemm.
void sgemm_rows(Variant variant, int m_begin, int m_end, int m, int n, int k,
                const float* a, const float* b, float* c,
                Accumulate accumulate);

// The micro-kernel clone the process-wide dispatch resolved to:
// "avx512vl" | "avx2-fma" | "baseline". Recorded in run manifests so a
// result file names the kernel generation that produced it (§5b scopes
// determinism per ISA).
const char* isa_name();

}  // namespace fedsu::tensor::gemm
