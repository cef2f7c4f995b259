// Shuffling mini-batch loader over a DatasetView.
#pragma once

#include <array>
#include <vector>

#include "data/dataset.h"
#include "io/serialize.h"
#include "util/rng.h"

namespace fedsu::data {

class BatchLoader {
 public:
  // `view` must outlive the loader (it is held by reference; the view's own
  // shared_ptr keeps the parent dataset alive). Batches wrap around epoch
  // boundaries (reshuffling each epoch) so callers can just ask for the
  // next batch.
  BatchLoader(const DatasetView& view, int batch_size, util::Rng rng);

  // Fills `batch`/`labels` with the next mini-batch, reusing their
  // capacity. The final batch of an epoch may be smaller when the dataset
  // size is not divisible.
  void next(tensor::Tensor& batch, std::vector<int>& labels);

  int batch_size() const { return batch_size_; }
  std::size_t epochs_completed() const { return epochs_; }

  // Checkpoint support. The epoch permutation cannot be re-derived from the
  // seed alone — the constructor shuffles immediately and every epoch
  // boundary consumes RNG draws mid-stream — so serialize() captures the
  // RNG words, the current `order_`, the cursor, and the epoch count. The
  // view itself is rebuilt by the caller (the shard partition is
  // seed-deterministic). parse() reads one record and checks it against
  // this loader's shard without changing the loader; restore() commits it
  // and cannot fail, so a caller can validate every loader before it
  // commits any.
  struct Snapshot {
    std::array<std::uint64_t, util::Rng::kStateWords> rng_words{};
    std::vector<std::size_t> order;
    std::size_t cursor = 0;
    std::size_t epochs = 0;
  };
  void serialize(io::BinaryWriter& writer) const;
  Snapshot parse(io::BinaryReader& reader) const;
  void restore(Snapshot snapshot);

 private:
  void reshuffle();

  const DatasetView& view_;
  int batch_size_;
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> scratch_indices_;  // reused across next() calls
  std::size_t cursor_ = 0;
  std::size_t epochs_ = 0;
};

}  // namespace fedsu::data
