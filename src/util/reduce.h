// Fixed-shape blocked reductions for server-side aggregation.
//
// Design notes (DESIGN.md §5b + §13): the aggregation passes fold N client
// state rows into per-parameter double accumulators. Folding is not
// associative in floating point, so a reduction whose shape depended on the
// thread count would violate the §5b bitwise-determinism contract. Instead
// the shape here is fixed by N alone:
//
//   * rows are split into contiguous blocks of kReduceClientBlock rows;
//   * each block accumulates its rows row-major into a private double
//     panel (one accumulator per column);
//   * panels are combined per column in ascending block order.
//
// Both stages have disjoint outputs per index (per block, then per column),
// so chunking them over a ThreadPool is bitwise identical for every pool
// size, including 1. With N <= kReduceClientBlock there is a single block
// and the fold degenerates to the plain serial chain
//   acc = 0; acc += row_0[j]; acc += row_1[j]; ...
// i.e. exactly the pre-existing serial aggregation loops — every artifact
// and test produced at cohort sizes up to the block survives bit-for-bit.
// Larger cohorts get a deterministic two-level tree (the point: the panels
// parallelize and the row-major traversal is cache-friendly either way).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fedsu::util {

class ThreadPool;

// Rows per reduction block. Chosen so every historical cohort (benches and
// tests run 8-client populations; the §5b suites go up to 8 threads x a
// handful of participants) falls into the single-block regime.
inline constexpr std::size_t kReduceClientBlock = 32;

// sums[j] = sum_i rows[i][j], accumulated in double with the fixed block
// shape above. Every row must have exactly sums.size() elements (the caller
// validates; out-of-range access is UB as with any span). `pool` may be
// null — the blocks then run inline on the caller, producing the identical
// bits.
void column_sums(const std::vector<std::span<const float>>& rows,
                 std::span<double> sums, ThreadPool* pool);

// column_sums restricted to listed columns: sums[k] = sum_i rows[i][cols[k]],
// folded in the same block shape (it depends on rows.size() alone), so each
// listed column gets exactly the bits column_sums gives it. The work is
// rows.size() * cols.size(), not rows.size() * row length — FedSuManager
// averages only its unpredictable columns this way, and FedSU-v1/v2 their
// unmasked ones. Throws std::invalid_argument unless sums.size() ==
// cols.size() and every row is longer than the largest listed column.
void listed_column_sums(const std::vector<std::span<const float>>& rows,
                        std::span<const std::size_t> cols,
                        std::span<double> sums, ThreadPool* pool);

// out[j] = float(sums[j] / rows.size()): the positional mean every
// aggregation path stores back into float32 state.
void column_means(const std::vector<std::span<const float>>& rows,
                  std::span<float> out, ThreadPool* pool);

// The block shape of one column, fed a value at a time: after add() of
// v_0, v_1, ... v_{m-1}, result() equals column_sums over m width-1 rows
// holding those values. Blocks are counted by position in the added
// sequence, so a column whose rows are filtered folds exactly as the
// filtered values gathered into their own column would. A pass that folds
// many filtered columns row by row keeps one BlockedSum per column in an
// array it owns and adds rows in ascending order (FedSuManager pass 2).
struct BlockedSum {
  double total = 0.0;  // completed blocks, combined in ascending order
  double block = 0.0;  // the open block's partial
  std::size_t count = 0;

  void add(float v) {
    block += v;
    if (++count % kReduceClientBlock == 0) {
      // Block 0's partial seeds the total (no leading zero), as in the
      // column_sums combine.
      total = count == kReduceClientBlock ? block : total + block;
      block = 0.0;
    }
  }
  double result() const {
    if (count % kReduceClientBlock == 0) return total;
    return count < kReduceClientBlock ? block : total + block;
  }
};

// BlockedSum over a gathered column.
double blocked_sum(std::span<const float> values);

}  // namespace fedsu::util
