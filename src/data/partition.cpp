#include "data/partition.h"

#include <algorithm>
#include <stdexcept>

namespace fedsu::data {

namespace {

std::vector<std::vector<std::size_t>> try_dirichlet(
    const Dataset& dataset, const PartitionOptions& options, util::Rng& rng) {
  const int k = dataset.num_classes();
  const int n = options.num_clients;
  // Client mixtures over classes.
  std::vector<std::vector<double>> mixture(static_cast<std::size_t>(n));
  for (auto& m : mixture) m = rng.dirichlet(options.alpha, k);

  std::vector<std::vector<std::size_t>> shards(static_cast<std::size_t>(n));
  // Per class, the categorical over clients is proportional to their weight
  // on that class.
  std::vector<double> class_weight(static_cast<std::size_t>(n));
  for (int c = 0; c < k; ++c) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      class_weight[static_cast<std::size_t>(i)] =
          mixture[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
      total += class_weight[static_cast<std::size_t>(i)];
    }
    if (total <= 0.0) total = 1.0;
    for (std::size_t s = 0; s < dataset.size(); ++s) {
      if (dataset.labels()[s] != c) continue;
      double u = rng.uniform() * total;
      int chosen = n - 1;
      for (int i = 0; i < n; ++i) {
        u -= class_weight[static_cast<std::size_t>(i)];
        if (u <= 0.0) {
          chosen = i;
          break;
        }
      }
      shards[static_cast<std::size_t>(chosen)].push_back(s);
    }
  }
  return shards;
}

}  // namespace

std::vector<std::vector<std::size_t>> dirichlet_partition(
    const Dataset& dataset, const PartitionOptions& options) {
  if (options.num_clients <= 0) {
    throw std::invalid_argument("dirichlet_partition: num_clients <= 0");
  }
  if (dataset.size() <
      static_cast<std::size_t>(options.num_clients * options.min_samples)) {
    throw std::invalid_argument(
        "dirichlet_partition: dataset too small for client count");
  }
  util::Rng rng(options.seed);
  std::vector<std::vector<std::size_t>> shards;
  constexpr int kMaxAttempts = 20;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    shards = try_dirichlet(dataset, options, rng);
    const bool ok = std::all_of(shards.begin(), shards.end(), [&](const auto& s) {
      return s.size() >= static_cast<std::size_t>(options.min_samples);
    });
    if (ok) return shards;
  }
  // Top up starved clients from the largest shards so the invariant holds
  // even for extreme (tiny-alpha) draws.
  for (auto& shard : shards) {
    while (shard.size() < static_cast<std::size_t>(options.min_samples)) {
      auto donor = std::max_element(
          shards.begin(), shards.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      if (donor->size() <= static_cast<std::size_t>(options.min_samples)) break;
      shard.push_back(donor->back());
      donor->pop_back();
    }
  }
  return shards;
}

}  // namespace fedsu::data
