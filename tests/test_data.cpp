#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>

#include "data/loader.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "util/thread_pool.h"

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

TEST(Synthetic, PooledSynthesisIsByteIdenticalToSerial) {
  // The pool fills each sample's pixels from the generator state a serial
  // pass recorded for it. A 1x5x5 image has an odd pixel count, so every
  // other sample starts its noise on a cached Box-Muller value.
  std::vector<SyntheticSpec> specs;
  for (const char* preset : {"emnist", "fmnist", "cifar"}) {
    SyntheticSpec spec = synthetic_preset(preset);
    spec.train_count = 150;
    spec.test_count = 37;
    specs.push_back(spec);
  }
  SyntheticSpec odd;
  odd.name = "odd";
  odd.image_size = 5;
  odd.train_count = 101;
  odd.test_count = 13;
  specs.push_back(odd);
  SyntheticSpec noisy = synthetic_preset("emnist");
  noisy.label_noise = 0.3f;
  noisy.train_count = 120;
  noisy.test_count = 30;
  specs.push_back(noisy);

  util::ThreadPool pool(4);
  for (const SyntheticSpec& spec : specs) {
    const TrainTest serial = generate_synthetic(spec);
    const TrainTest pooled = generate_synthetic(spec, &pool);
    for (const auto& [a, b] : {std::pair{&serial.train, &pooled.train},
                               std::pair{&serial.test, &pooled.test}}) {
      ASSERT_EQ(a->images().shape(), b->images().shape()) << spec.name;
      EXPECT_EQ(std::memcmp(a->images().data(), b->images().data(),
                            a->images().size() * sizeof(float)),
                0)
          << spec.name;
      EXPECT_EQ(a->labels(), b->labels()) << spec.name;
    }
  }
}

TEST(Synthetic, PixelNoiseFollowsEachSampleHeaderInOneStream) {
  // A split is one stream, Rng(seed).fork(1) for train and fork(2) for
  // test, drawn per sample as class, label noise, shift (2), contrast,
  // brightness, then one normal per pixel. Replayed here draw by draw; a
  // pixel's noise is its value at noise 1 minus its value at noise 0. The
  // 1x5x5 image has an odd pixel count, so half the samples start their
  // noise on a cached Box-Muller value.
  SyntheticSpec spec;
  spec.image_size = 5;
  spec.train_count = 40;
  spec.test_count = 9;
  spec.label_noise = 0.3f;
  spec.noise = 1.0f;
  SyntheticSpec quiet = spec;
  quiet.noise = 0.0f;
  util::ThreadPool pool(4);
  const TrainTest noisy = generate_synthetic(spec, &pool);
  const TrainTest clean = generate_synthetic(quiet);
  constexpr std::size_t kPixels = 25;
  for (const int split : {1, 2}) {
    const Dataset& a = split == 1 ? noisy.train : noisy.test;
    const Dataset& b = split == 1 ? clean.train : clean.test;
    util::Rng rng = util::Rng(spec.seed).fork(split);
    for (std::size_t i = 0; i < a.size(); ++i) {
      int label = static_cast<int>(rng.uniform_index(10));
      if (rng.bernoulli(spec.label_noise)) {
        label = static_cast<int>(rng.uniform_index(10));
      }
      EXPECT_EQ(a.labels()[i], label) << "split " << split << " sample " << i;
      for (int draw = 0; draw < 4; ++draw) rng.uniform();
      for (std::size_t px = 0; px < kPixels; ++px) {
        const std::size_t at = i * kPixels + px;
        EXPECT_NEAR(a.images()[at] - b.images()[at], rng.normal(), 1e-4)
            << "split " << split << " sample " << i << " pixel " << px;
      }
    }
  }
}

// FNV-1a over each split's image bytes, then its labels, train first.
std::uint64_t synthetic_hash(const TrainTest& data) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const void* bytes, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const Dataset* split : {&data.train, &data.test}) {
    mix(split->images().data(), split->images().size() * sizeof(float));
    mix(split->labels().data(), split->labels().size() * sizeof(int));
  }
  return h;
}

TEST(Synthetic, BytesArePinned) {
  // The synthesized bytes, recorded from the plain GCC build of the commit
  // before pixels were filled on a pool, so a faster generator must keep
  // them: with and without a pool, for a grey and a colour preset, an odd
  // pixel count with label noise, and shifts large enough to clamp taps at
  // both edges. Builds that compile float code differently
  // (FEDSU_NN_UNPINNED, tests/CMakeLists.txt) skip it.
#ifdef FEDSU_NN_UNPINNED
  GTEST_SKIP() << "synthesis bytes are pinned for the plain GCC build only";
#else
  SyntheticSpec grey = synthetic_preset("emnist");
  grey.train_count = 300;
  grey.test_count = 40;
  grey.seed = 1;
  SyntheticSpec colour = synthetic_preset("cifar");
  colour.train_count = 200;
  colour.test_count = 30;
  colour.seed = 7;
  SyntheticSpec odd;
  odd.image_size = 5;
  odd.train_count = 101;
  odd.test_count = 13;
  odd.label_noise = 0.3f;
  SyntheticSpec wide = synthetic_preset("emnist");
  wide.shift_fraction = 0.6f;
  wide.train_count = 200;
  wide.test_count = 20;
  wide.seed = 3;
  const std::pair<SyntheticSpec, std::uint64_t> cases[] = {
      {grey, 0xa89b606b0f697946ULL},
      {colour, 0x0ec3b30fa35546d4ULL},
      {odd, 0xecbb65d02e7f67a7ULL},
      {wide, 0xf8cd902dcd28748cULL},
  };
  util::ThreadPool pool(3);
  for (const auto& [spec, pin] : cases) {
    EXPECT_EQ(synthetic_hash(generate_synthetic(spec)), pin)
        << spec.name << " seed " << spec.seed << " size " << spec.image_size;
    EXPECT_EQ(synthetic_hash(generate_synthetic(spec, &pool)), pin)
        << spec.name << " seed " << spec.seed << " pooled";
  }
#endif
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
