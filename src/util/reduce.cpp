#include "util/reduce.h"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.h"

namespace fedsu::util {

namespace {

// Columns per parallel_for grain in the combine stage; coarse enough that
// a chunk amortizes the dispatch, fine enough that wide models spread.
constexpr std::size_t kColumnGrain = 4096;

// Accumulates rows [row_begin, row_end) row-major into acc[k] for k in
// [k0, k1), reading column col(k) of each row. The caller zeroed acc.
template <class ColumnOf>
void accumulate_rows(const std::vector<std::span<const float>>& rows,
                     std::size_t row_begin, std::size_t row_end,
                     std::size_t k0, std::size_t k1, double* __restrict acc,
                     ColumnOf col) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* __restrict row = rows[i].data();
    for (std::size_t k = k0; k < k1; ++k) acc[k] += row[col(k)];
  }
}

// sums[k] = the blocked fold of column col(k) over every row; the one
// definition of the block tree that column_sums and listed_column_sums
// share.
template <class ColumnOf>
void fold_columns(const std::vector<std::span<const float>>& rows,
                  std::span<double> sums, ThreadPool* pool, ColumnOf col) {
  const std::size_t n = rows.size();
  const std::size_t m = sums.size();
  std::fill(sums.begin(), sums.end(), 0.0);
  if (n == 0 || m == 0) return;
  const std::size_t blocks = (n + kReduceClientBlock - 1) / kReduceClientBlock;
  if (blocks == 1) {
    // Single block: the fold IS the serial chain. Columns have disjoint
    // accumulators, so chunking them keeps every chain intact.
    if (pool != nullptr) {
      pool->parallel_for(
          0, m,
          [&](std::size_t k0, std::size_t k1) {
            accumulate_rows(rows, 0, n, k0, k1, sums.data(), col);
          },
          kColumnGrain);
    } else {
      accumulate_rows(rows, 0, n, 0, m, sums.data(), col);
    }
    return;
  }

  // Two-level tree: per-block panels (parallel over blocks), then a
  // per-column combine in ascending block order (parallel over columns).
  std::vector<double> panels(blocks * m, 0.0);
  auto fill_blocks = [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t row_begin = b * kReduceClientBlock;
      const std::size_t row_end = std::min(n, row_begin + kReduceClientBlock);
      accumulate_rows(rows, row_begin, row_end, 0, m, panels.data() + b * m,
                      col);
    }
  };
  auto combine = [&](std::size_t k0, std::size_t k1) {
    for (std::size_t k = k0; k < k1; ++k) {
      double acc = panels[k];
      for (std::size_t b = 1; b < blocks; ++b) acc += panels[b * m + k];
      sums[k] = acc;
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, blocks, fill_blocks);
    pool->parallel_for(0, m, combine, kColumnGrain);
  } else {
    fill_blocks(0, blocks);
    combine(0, m);
  }
}

}  // namespace

void column_sums(const std::vector<std::span<const float>>& rows,
                 std::span<double> sums, ThreadPool* pool) {
  for (const auto& row : rows) {
    if (!sums.empty() && row.size() != sums.size()) {
      throw std::invalid_argument("column_sums: row size mismatch");
    }
  }
  fold_columns(rows, sums, pool, [](std::size_t j) { return j; });
}

void listed_column_sums(const std::vector<std::span<const float>>& rows,
                        std::span<const std::size_t> cols,
                        std::span<double> sums, ThreadPool* pool) {
  if (cols.size() != sums.size()) {
    throw std::invalid_argument("listed_column_sums: cols/sums size mismatch");
  }
  if (!cols.empty()) {
    const std::size_t last = *std::max_element(cols.begin(), cols.end());
    for (const auto& row : rows) {
      if (row.size() <= last) {
        throw std::invalid_argument("listed_column_sums: column out of range");
      }
    }
  }
  fold_columns(rows, sums, pool, [cols](std::size_t k) { return cols[k]; });
}

void column_means(const std::vector<std::span<const float>>& rows,
                  std::span<float> out, ThreadPool* pool) {
  if (rows.empty()) {
    throw std::invalid_argument("column_means: no rows");
  }
  std::vector<double> sums(out.size(), 0.0);
  column_sums(rows, sums, pool);
  const double inv_n = 1.0 / static_cast<double>(rows.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = static_cast<float>(sums[j] * inv_n);
  }
}

double blocked_sum(std::span<const float> values) {
  BlockedSum fold;
  for (float v : values) fold.add(v);
  return fold.result();
}

}  // namespace fedsu::util
