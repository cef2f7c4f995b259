#include "data/dataset.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fedsu::data {

Dataset::Dataset(tensor::Tensor images, std::vector<int> labels)
    : images_(std::move(images)), labels_(std::move(labels)) {
  if (images_.rank() != 4) {
    throw std::invalid_argument("Dataset: images must be [N, C, H, W]");
  }
  if (static_cast<std::size_t>(images_.dim(0)) != labels_.size()) {
    throw std::invalid_argument("Dataset: image/label count mismatch");
  }
  for (int y : labels_) {
    if (y < 0) throw std::invalid_argument("Dataset: negative label");
    num_classes_ = std::max(num_classes_, y + 1);
  }
}

void Dataset::gather(const std::vector<std::size_t>& indices,
                     tensor::Tensor& batch, std::vector<int>& labels) const {
  const std::size_t sample =
      static_cast<std::size_t>(channels()) * height() * width();
  // resize() keeps the heap buffer when capacity suffices, so the training
  // loop's per-iteration gather stops reallocating after the first batch;
  // every element is overwritten below, so stale survivors cannot leak.
  batch.resize(
      {static_cast<int>(indices.size()), channels(), height(), width()});
  labels.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t src = indices[i];
    if (src >= size()) throw std::out_of_range("Dataset::gather: bad index");
    std::memcpy(batch.data() + i * sample, images_.data() + src * sample,
                sizeof(float) * sample);
    labels[i] = labels_[src];
  }
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  tensor::Tensor batch;
  std::vector<int> labels;
  gather(indices, batch, labels);
  return Dataset(std::move(batch), std::move(labels));
}

std::vector<int> Dataset::class_histogram() const {
  std::vector<int> hist(static_cast<std::size_t>(num_classes_), 0);
  for (int y : labels_) ++hist[static_cast<std::size_t>(y)];
  return hist;
}

DatasetView::DatasetView(std::shared_ptr<const Dataset> parent,
                         std::vector<std::size_t> rows)
    : parent_(std::move(parent)), rows_(std::move(rows)) {
  if (!parent_) throw std::invalid_argument("DatasetView: null parent");
  for (std::size_t row : rows_) {
    if (row >= parent_->size()) {
      throw std::out_of_range("DatasetView: row index out of range");
    }
  }
}

DatasetView DatasetView::all_of(std::shared_ptr<const Dataset> parent) {
  if (!parent) throw std::invalid_argument("DatasetView: null parent");
  std::vector<std::size_t> rows(parent->size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return DatasetView(std::move(parent), std::move(rows));
}

DatasetView DatasetView::own(Dataset dataset) {
  return all_of(std::make_shared<const Dataset>(std::move(dataset)));
}

void DatasetView::gather(const std::vector<std::size_t>& indices,
                         tensor::Tensor& batch,
                         std::vector<int>& labels) const {
  const std::size_t sample =
      static_cast<std::size_t>(channels()) * height() * width();
  const tensor::Tensor& images = parent_->images();
  const std::vector<int>& parent_labels = parent_->labels();
  batch.resize(
      {static_cast<int>(indices.size()), channels(), height(), width()});
  labels.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= rows_.size()) {
      throw std::out_of_range("DatasetView::gather: bad index");
    }
    const std::size_t src = rows_[indices[i]];
    std::memcpy(batch.data() + i * sample, images.data() + src * sample,
                sizeof(float) * sample);
    labels[i] = parent_labels[src];
  }
}

}  // namespace fedsu::data
