// In-memory labeled image dataset (NCHW) and zero-copy views over it.
#pragma once

#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace fedsu::data {

class Dataset {
 public:
  Dataset() = default;
  // images: [N, C, H, W]; labels: N entries.
  Dataset(tensor::Tensor images, std::vector<int> labels);

  std::size_t size() const { return labels_.size(); }
  int channels() const { return images_.empty() ? 0 : images_.dim(1); }
  int height() const { return images_.empty() ? 0 : images_.dim(2); }
  int width() const { return images_.empty() ? 0 : images_.dim(3); }
  int num_classes() const { return num_classes_; }

  const tensor::Tensor& images() const { return images_; }
  const std::vector<int>& labels() const { return labels_; }

  // Copies the selected samples into a batch tensor + label vector.
  void gather(const std::vector<std::size_t>& indices, tensor::Tensor& batch,
              std::vector<int>& labels) const;

  // New dataset containing only the given samples.
  Dataset subset(const std::vector<std::size_t>& indices) const;

  // Per-class sample counts (length num_classes()).
  std::vector<int> class_histogram() const;

 private:
  tensor::Tensor images_;
  std::vector<int> labels_;
  int num_classes_ = 0;
};

// Zero-copy shard view: a shared immutable parent dataset plus the row
// indices this shard covers (DESIGN.md §13). An N-client simulation builds
// one DatasetView per client over the single training dataset, so the
// images exist exactly once in memory regardless of N; per-shard cost is
// the index list (8 bytes/sample) instead of a full sample copy.
//
// Views never mutate the parent, and the shared_ptr keeps it alive for as
// long as any view (and any BatchLoader over one) exists. gather() copies
// the exact bytes Dataset::gather would copy from an equivalent subset()
// dataset, so view-backed training is bit-identical to the legacy
// copy-per-client path (tests/test_scale.cpp).
class DatasetView {
 public:
  DatasetView() = default;
  // A view of `rows` (parent row indices, any order, duplicates allowed).
  DatasetView(std::shared_ptr<const Dataset> parent,
              std::vector<std::size_t> rows);
  // The whole parent in row order.
  static DatasetView all_of(std::shared_ptr<const Dataset> parent);
  // Adopts a standalone dataset (the legacy copy path): the view owns the
  // data and covers every row. Used by add_client()-style entry points that
  // hand over a materialized shard.
  static DatasetView own(Dataset dataset);

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  int channels() const { return parent_ ? parent_->channels() : 0; }
  int height() const { return parent_ ? parent_->height() : 0; }
  int width() const { return parent_ ? parent_->width() : 0; }

  // Copies the selected view samples into a batch tensor + label vector,
  // reusing the destination buffers' capacity (see Dataset::gather).
  void gather(const std::vector<std::size_t>& indices, tensor::Tensor& batch,
              std::vector<int>& labels) const;

 private:
  std::shared_ptr<const Dataset> parent_;
  std::vector<std::size_t> rows_;
};

}  // namespace fedsu::data
