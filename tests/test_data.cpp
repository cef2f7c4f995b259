#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/loader.h"
#include "data/partition.h"
#include "data/synthetic.h"

namespace fedsu::data {
namespace {

TEST(Dataset, BasicAccessors) {
  tensor::Tensor images({4, 1, 2, 2});
  Dataset ds(std::move(images), {0, 1, 2, 1});
  EXPECT_EQ(ds.size(), 4u);
  EXPECT_EQ(ds.num_classes(), 3);
  EXPECT_EQ(ds.channels(), 1);
  const auto hist = ds.class_histogram();
  EXPECT_EQ(hist[1], 2);
}

TEST(Dataset, RejectsMismatchedLabels) {
  tensor::Tensor images({4, 1, 2, 2});
  EXPECT_THROW(Dataset(std::move(images), {0, 1}), std::invalid_argument);
}

TEST(Dataset, RejectsNegativeLabel) {
  tensor::Tensor images({1, 1, 2, 2});
  EXPECT_THROW(Dataset(std::move(images), {-2}), std::invalid_argument);
}

TEST(Dataset, GatherCopiesSamples) {
  tensor::Tensor images({3, 1, 1, 2});
  for (std::size_t i = 0; i < images.size(); ++i) {
    images[i] = static_cast<float>(i);
  }
  Dataset ds(std::move(images), {0, 1, 2});
  tensor::Tensor batch;
  std::vector<int> labels;
  ds.gather({2, 0}, batch, labels);
  EXPECT_EQ(batch.shape(), (std::vector<int>{2, 1, 1, 2}));
  EXPECT_FLOAT_EQ(batch[0], 4.0f);
  EXPECT_FLOAT_EQ(batch[2], 0.0f);
  EXPECT_EQ(labels, (std::vector<int>{2, 0}));
  EXPECT_THROW(ds.gather({5}, batch, labels), std::out_of_range);
}

TEST(Dataset, SubsetPreservesContent) {
  tensor::Tensor images({3, 1, 1, 1}, {10, 20, 30});
  Dataset ds(std::move(images), {0, 1, 2});
  const Dataset sub = ds.subset({1, 2});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_FLOAT_EQ(sub.images()[0], 20.0f);
  EXPECT_EQ(sub.labels()[1], 2);
}

TEST(Synthetic, PresetsMatchPaperDatasets) {
  EXPECT_EQ(synthetic_preset("emnist").channels, 1);
  EXPECT_EQ(synthetic_preset("emnist").image_size, 28);
  EXPECT_EQ(synthetic_preset("cifar").channels, 3);
  EXPECT_EQ(synthetic_preset("cifar").image_size, 32);
  EXPECT_THROW(synthetic_preset("svhn"), std::invalid_argument);
}

TEST(Synthetic, GeneratesRequestedCounts) {
  SyntheticSpec spec;
  spec.train_count = 100;
  spec.test_count = 40;
  spec.image_size = 8;
  const auto data = generate_synthetic(spec);
  EXPECT_EQ(data.train.size(), 100u);
  EXPECT_EQ(data.test.size(), 40u);
  EXPECT_EQ(data.train.height(), 8);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.train_count = 50;
  spec.test_count = 10;
  spec.image_size = 6;
  const auto a = generate_synthetic(spec);
  const auto b = generate_synthetic(spec);
  EXPECT_EQ(a.train.images().vec(), b.train.images().vec());
  EXPECT_EQ(a.train.labels(), b.train.labels());
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec a_spec, b_spec;
  a_spec.train_count = b_spec.train_count = 50;
  a_spec.test_count = b_spec.test_count = 10;
  a_spec.image_size = b_spec.image_size = 6;
  b_spec.seed = a_spec.seed + 1;
  const auto a = generate_synthetic(a_spec);
  const auto b = generate_synthetic(b_spec);
  EXPECT_NE(a.train.images().vec(), b.train.images().vec());
}

TEST(Synthetic, AllClassesPresent) {
  SyntheticSpec spec;
  spec.train_count = 500;
  spec.test_count = 100;
  spec.image_size = 6;
  const auto data = generate_synthetic(spec);
  const auto hist = data.train.class_histogram();
  EXPECT_EQ(hist.size(), 10u);
  for (int count : hist) EXPECT_GT(count, 10);
}

TEST(Synthetic, ClassesAreSeparable) {
  // Nearest-prototype classification on noiseless means should beat chance
  // by a wide margin; verify via per-class image means being distinct.
  SyntheticSpec spec;
  spec.train_count = 800;
  spec.test_count = 10;
  spec.image_size = 8;
  spec.num_classes = 4;
  const auto data = generate_synthetic(spec);
  const std::size_t dim = 64;
  std::vector<std::vector<double>> mean(4, std::vector<double>(dim, 0.0));
  std::vector<int> count(4, 0);
  for (std::size_t i = 0; i < data.train.size(); ++i) {
    const int y = data.train.labels()[i];
    ++count[y];
    for (std::size_t d = 0; d < dim; ++d) {
      mean[y][d] += data.train.images()[i * dim + d];
    }
  }
  for (int c = 0; c < 4; ++c) {
    for (auto& v : mean[c]) v /= count[c];
  }
  // Distinct prototypes: pairwise distance well above zero.
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        d2 += (mean[a][d] - mean[b][d]) * (mean[a][d] - mean[b][d]);
      }
      EXPECT_GT(std::sqrt(d2), 1.0) << "classes " << a << "," << b;
    }
  }
}

TEST(Synthetic, RejectsBadSpec) {
  SyntheticSpec spec;
  spec.num_classes = 1;
  EXPECT_THROW(generate_synthetic(spec), std::invalid_argument);
}

TEST(Partition, DirichletCoversAllSamplesOnce) {
  SyntheticSpec spec;
  spec.train_count = 300;
  spec.test_count = 10;
  spec.image_size = 4;
  const auto data = generate_synthetic(spec);
  PartitionOptions options;
  options.num_clients = 6;
  const auto shards = dirichlet_partition(data.train, options);
  ASSERT_EQ(shards.size(), 6u);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& shard : shards) {
    EXPECT_GE(shard.size(), static_cast<std::size_t>(options.min_samples));
    total += shard.size();
    seen.insert(shard.begin(), shard.end());
  }
  EXPECT_EQ(total, data.train.size());
  EXPECT_EQ(seen.size(), data.train.size());
}

TEST(Partition, SmallAlphaIsMoreSkewedThanLarge) {
  SyntheticSpec spec;
  spec.train_count = 1000;
  spec.test_count = 10;
  spec.image_size = 4;
  const auto data = generate_synthetic(spec);

  auto label_entropy = [&](const std::vector<std::vector<std::size_t>>& shards) {
    double total_entropy = 0.0;
    for (const auto& shard : shards) {
      std::vector<int> hist(10, 0);
      for (auto idx : shard) ++hist[data.train.labels()[idx]];
      double h = 0.0;
      for (int c : hist) {
        if (c == 0) continue;
        const double p = static_cast<double>(c) / shard.size();
        h -= p * std::log(p);
      }
      total_entropy += h;
    }
    return total_entropy / shards.size();
  };

  PartitionOptions skewed;
  skewed.num_clients = 8;
  skewed.alpha = 0.1;
  PartitionOptions flat;
  flat.num_clients = 8;
  flat.alpha = 100.0;
  EXPECT_LT(label_entropy(dirichlet_partition(data.train, skewed)),
            label_entropy(dirichlet_partition(data.train, flat)) - 0.2);
}

TEST(Partition, RejectsTooManyClients) {
  SyntheticSpec spec;
  spec.train_count = 10;
  spec.test_count = 5;
  spec.image_size = 4;
  const auto data = generate_synthetic(spec);
  PartitionOptions options;
  options.num_clients = 100;
  EXPECT_THROW(dirichlet_partition(data.train, options), std::invalid_argument);
}

TEST(Loader, BatchesHaveRequestedSize) {
  SyntheticSpec spec;
  spec.train_count = 64;
  spec.test_count = 10;
  spec.image_size = 4;
  const auto data = generate_synthetic(spec);
  const DatasetView view = DatasetView::own(data.train);
  BatchLoader loader(view, 16, util::Rng(1));
  tensor::Tensor batch;
  std::vector<int> labels;
  loader.next(batch, labels);
  EXPECT_EQ(batch.dim(0), 16);
  EXPECT_EQ(labels.size(), 16u);
}

TEST(Loader, EpochCoversEverySample) {
  SyntheticSpec spec;
  spec.train_count = 30;
  spec.test_count = 10;
  spec.image_size = 4;
  const auto data = generate_synthetic(spec);
  const DatasetView view = DatasetView::own(data.train);
  BatchLoader loader(view, 7, util::Rng(2));
  tensor::Tensor batch;
  std::vector<int> labels;
  std::multiset<float> seen;
  int fetched = 0;
  while (fetched < 30) {
    loader.next(batch, labels);
    fetched += batch.dim(0);
    for (int i = 0; i < batch.dim(0); ++i) {
      seen.insert(batch[static_cast<std::size_t>(i) * 16]);  // first pixel id
    }
  }
  EXPECT_EQ(fetched, 30);  // 7+7+7+7+2: partial tail batch
  EXPECT_EQ(loader.epochs_completed(), 0u);
  loader.next(batch, labels);  // wraps into epoch 2
  EXPECT_EQ(loader.epochs_completed(), 1u);
}

TEST(Loader, RejectsBadArguments) {
  SyntheticSpec spec;
  spec.train_count = 10;
  spec.test_count = 5;
  spec.image_size = 4;
  const auto data = generate_synthetic(spec);
  const DatasetView view = DatasetView::own(data.train);
  EXPECT_THROW(BatchLoader(view, 0, util::Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace fedsu::data
