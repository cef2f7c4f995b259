#include "data/loader.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace fedsu::data {

BatchLoader::BatchLoader(const DatasetView& view, int batch_size, util::Rng rng)
    : view_(view), batch_size_(batch_size), rng_(rng) {
  if (batch_size <= 0) throw std::invalid_argument("BatchLoader: batch <= 0");
  if (view.empty()) throw std::invalid_argument("BatchLoader: empty dataset");
  reshuffle();
}

void BatchLoader::reshuffle() {
  order_ = rng_.permutation(view_.size());
  cursor_ = 0;
}

void BatchLoader::serialize(io::BinaryWriter& writer) const {
  const auto words = rng_.state_words();
  for (const std::uint64_t w : words) writer.write_u64(w);
  writer.write_vector(order_);
  writer.write_u64(cursor_);
  writer.write_u64(epochs_);
}

BatchLoader::Snapshot BatchLoader::parse(io::BinaryReader& reader) const {
  Snapshot snapshot;
  for (auto& w : snapshot.rng_words) w = reader.read_u64();
  snapshot.order = reader.read_vector<std::size_t>(view_.size());
  const std::uint64_t cursor = reader.read_u64();
  snapshot.epochs = static_cast<std::size_t>(reader.read_u64());
  if (cursor > snapshot.order.size()) {
    throw std::runtime_error(
        "BatchLoader: snapshot does not match this shard");
  }
  snapshot.cursor = static_cast<std::size_t>(cursor);
  return snapshot;
}

void BatchLoader::restore(Snapshot snapshot) {
  rng_.restore_state_words(snapshot.rng_words);
  order_ = std::move(snapshot.order);
  cursor_ = snapshot.cursor;
  epochs_ = snapshot.epochs;
}

void BatchLoader::next(tensor::Tensor& batch, std::vector<int>& labels) {
  if (cursor_ >= order_.size()) {
    ++epochs_;
    reshuffle();
  }
  const std::size_t take =
      std::min(static_cast<std::size_t>(batch_size_), order_.size() - cursor_);
  scratch_indices_.assign(order_.begin() + cursor_,
                          order_.begin() + cursor_ + take);
  cursor_ += take;
  view_.gather(scratch_indices_, batch, labels);
}

}  // namespace fedsu::data
