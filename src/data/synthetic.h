// Synthetic stand-ins for EMNIST / FMNIST / CIFAR-10 (see DESIGN.md §3).
//
// Each class gets a smooth random prototype image (a mixture of low-frequency
// cosine fields and Gaussian blobs); samples are the prototype plus jitter
// (shift, contrast, additive noise) with optional label noise. The task is
// non-trivially learnable — a linear model reaches moderate accuracy, conv
// nets do better — and the SGD trajectories reproduce the early-rapid /
// late-linear phases FedSU exploits. No external data is required.
#pragma once

#include <string>

#include "data/dataset.h"
#include "util/rng.h"

namespace fedsu::util {
class ThreadPool;
}

namespace fedsu::data {

struct SyntheticSpec {
  std::string name = "emnist";  // emnist | fmnist | cifar (presets) or custom
  int num_classes = 10;
  int channels = 1;
  int image_size = 28;
  int train_count = 2000;
  int test_count = 500;
  float noise = 0.45f;          // additive Gaussian noise stddev
  float shift_fraction = 0.1f;  // max translation as a fraction of image size
  float label_noise = 0.01f;    // probability a label is resampled uniformly
  std::uint64_t seed = 7;
};

// Preset matching the paper's dataset keyword; counts stay caller-tunable.
SyntheticSpec synthetic_preset(const std::string& dataset);

// Generated train/test pair drawn from the same class prototypes.
struct TrainTest {
  Dataset train;
  Dataset test;
};

// With a pool the pixels fill in parallel; the bytes are the same without.
TrainTest generate_synthetic(const SyntheticSpec& spec,
                             util::ThreadPool* pool = nullptr);

}  // namespace fedsu::data
