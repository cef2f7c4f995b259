// FL client: local SGD over a private shard.
//
// Clients do not own model replicas; the simulation lends each client a
// model for its local iterations (load global state -> train -> extract
// state) — the single scratch model when running sequentially, a per-worker
// replica when rounds train in parallel. Because the lent model is fully
// overwritten from the global state first, both are numerically identical
// to per-client replicas. A Client is only ever driven by one thread at a
// time; its batch-loader RNG is part of its private state.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/sgd.h"
#include "util/rng.h"

namespace fedsu::fl {

struct LocalTrainOptions {
  int iterations = 10;  // F_s in Algorithm 1 (paper runs 50)
  int batch_size = 16;
  float learning_rate = 0.01f;
  float weight_decay = 1e-3f;
  float momentum = 0.0f;
  // FedProx proximal coefficient mu (Li et al., MLSys'20): adds
  // mu * (x - x_global) to each local gradient, damping client drift under
  // non-IID data. 0 disables. The paper notes FedSU composes with such
  // accuracy-oriented methods (§VI-A footnote 3).
  float proximal_mu = 0.0f;
};

class Client {
 public:
  // `shard` is a zero-copy view of the shared training dataset: the client
  // stores only its row indices, not a copy of the images (DESIGN.md §13).
  Client(int id, data::DatasetView shard, int batch_size, util::Rng rng);
  // Legacy copy path: adopts a standalone dataset as the private shard.
  // Training over it is bit-identical to the view over the same rows.
  Client(int id, data::Dataset shard, int batch_size, util::Rng rng);

  int id() const { return id_; }
  std::size_t dataset_size() const { return shard_.size(); }
  const data::DatasetView& shard() const { return shard_; }

  // Runs `options.iterations` local SGD steps on `model`, which must
  // already hold the current global state. Returns the mean training loss.
  float train_round(nn::Model& model, const LocalTrainOptions& options);

  // Checkpoint support: the client's only mutable state is its batch
  // loader (shuffle RNG + epoch permutation + cursor). See
  // data::BatchLoader for the parse-then-restore split.
  void serialize(io::BinaryWriter& writer) const { loader_.serialize(writer); }
  data::BatchLoader::Snapshot parse_loader(io::BinaryReader& reader) const {
    return loader_.parse(reader);
  }
  void restore_loader(data::BatchLoader::Snapshot snapshot) {
    loader_.restore(std::move(snapshot));
  }

 private:
  void apply_proximal_term(nn::Model& model,
                           const std::vector<float>& anchor,
                           float mu) const;

 private:
  int id_;
  data::DatasetView shard_;  // must precede loader_ (it holds a reference)
  data::BatchLoader loader_;
};

}  // namespace fedsu::fl
