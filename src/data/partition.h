// Non-IID data partitioning across FL clients.
//
// Implements the Dirichlet label-skew scheme of Hsu et al. (arXiv:1909.06335)
// used by the paper (§VI-A, alpha = 1): each client draws a class-mixture
// vector from Dir(alpha); every sample of class c is assigned to a client
// with probability proportional to the clients' weight on c.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace fedsu::data {

struct PartitionOptions {
  int num_clients = 8;
  double alpha = 1.0;        // Dirichlet concentration; large => IID
  int min_samples = 2;       // re-deal clients that end up starved
  std::uint64_t seed = 11;
};

// Returns per-client index lists into `dataset`. Every index appears exactly
// once; each client receives at least `min_samples` samples (the sampler
// retries with fresh mixtures a bounded number of times, then tops up
// starved clients by stealing from the largest ones).
std::vector<std::vector<std::size_t>> dirichlet_partition(
    const Dataset& dataset, const PartitionOptions& options);

}  // namespace fedsu::data
