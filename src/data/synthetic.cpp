#include "data/synthetic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace fedsu::data {

SyntheticSpec synthetic_preset(const std::string& dataset) {
  SyntheticSpec spec;
  spec.name = dataset;
  if (dataset == "emnist" || dataset == "fmnist") {
    spec.channels = 1;
    spec.image_size = 28;
  } else if (dataset == "cifar") {
    spec.channels = 3;
    spec.image_size = 32;
    spec.noise = 0.55f;
  } else {
    throw std::invalid_argument("synthetic_preset: unknown dataset '" +
                                dataset + "'");
  }
  return spec;
}

namespace {

// A class prototype: per channel, a sum of low-frequency cosine waves plus a
// few Gaussian blobs. Smoothness matters: it makes small translations a
// "benign" augmentation rather than label-destroying noise.
std::vector<float> make_prototype(const SyntheticSpec& spec, util::Rng& rng) {
  const int s = spec.image_size;
  const int c = spec.channels;
  std::vector<float> proto(static_cast<std::size_t>(c) * s * s, 0.0f);
  for (int ch = 0; ch < c; ++ch) {
    float* plane = proto.data() + static_cast<std::size_t>(ch) * s * s;
    // Low-frequency cosine mixture.
    const int waves = 3;
    for (int wv = 0; wv < waves; ++wv) {
      const double fx = rng.uniform(0.5, 2.5) * 2.0 * std::numbers::pi / s;
      const double fy = rng.uniform(0.5, 2.5) * 2.0 * std::numbers::pi / s;
      const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double amp = rng.uniform(0.4, 1.0);
      for (int r = 0; r < s; ++r) {
        for (int col = 0; col < s; ++col) {
          plane[static_cast<std::size_t>(r) * s + col] +=
              static_cast<float>(amp * std::cos(fx * col + fy * r + phase));
        }
      }
    }
    // Gaussian blobs.
    const int blobs = 2;
    for (int b = 0; b < blobs; ++b) {
      const double cx = rng.uniform(0.2, 0.8) * s;
      const double cy = rng.uniform(0.2, 0.8) * s;
      const double sigma = rng.uniform(0.1, 0.25) * s;
      const double amp = rng.uniform(-1.5, 1.5);
      for (int r = 0; r < s; ++r) {
        for (int col = 0; col < s; ++col) {
          const double d2 = (col - cx) * (col - cx) + (r - cy) * (r - cy);
          plane[static_cast<std::size_t>(r) * s + col] +=
              static_cast<float>(amp * std::exp(-d2 / (2.0 * sigma * sigma)));
        }
      }
    }
  }
  return proto;
}

// One axis of a bilinear sample with sub-pixel translation: the two taps
// either side of the shifted coordinate, clamped to the image, and the
// weight of the second. A sample shifts every row by one amount and every
// column by another, so its taps are worked out once per row and column.
struct Tap {
  std::size_t lo = 0, hi = 0;
  double frac = 0.0;
};

Tap shifted_tap(int s, double x) {
  const int x0 = static_cast<int>(std::floor(x));
  return {static_cast<std::size_t>(std::clamp(x0, 0, s - 1)),
          static_cast<std::size_t>(std::clamp(x0 + 1, 0, s - 1)), x - x0};
}

// What a sample draws before its pixel noise, plus the generator state at
// which that noise starts.
struct SampleHeader {
  int cls = 0;
  double dr = 0.0, dc = 0.0;
  double contrast = 1.0, brightness = 0.0;
  std::array<std::uint64_t, util::Rng::kStateWords> noise_state{};
};

// The split's draw order is per sample: class, label noise, shift,
// contrast, brightness, then one normal per pixel. One serial pass draws
// the headers and skips the noise; the pixels, which no later draw depends
// on, then fill in parallel from each sample's recorded state, so the
// bytes are the same with or without a pool.
Dataset generate_split(const SyntheticSpec& spec,
                       const std::vector<std::vector<float>>& prototypes,
                       int count, util::Rng& rng, util::ThreadPool* pool) {
  const int s = spec.image_size;
  const int c = spec.channels;
  const std::size_t pixels = static_cast<std::size_t>(c) * s * s;
  tensor::Tensor images({count, c, s, s});
  std::vector<int> labels(static_cast<std::size_t>(count));
  std::vector<SampleHeader> headers(static_cast<std::size_t>(count));
  const double max_shift = spec.shift_fraction * s;
  for (int i = 0; i < count; ++i) {
    SampleHeader& h = headers[static_cast<std::size_t>(i)];
    h.cls = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(spec.num_classes)));
    int label = h.cls;
    if (spec.label_noise > 0.0f && rng.bernoulli(spec.label_noise)) {
      label = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(spec.num_classes)));
    }
    labels[static_cast<std::size_t>(i)] = label;
    h.dr = rng.uniform(-max_shift, max_shift);
    h.dc = rng.uniform(-max_shift, max_shift);
    h.contrast = rng.uniform(0.85, 1.15);
    h.brightness = rng.uniform(-0.1, 0.1);
    h.noise_state = rng.state_words();
    rng.skip_normals(pixels);
  }
  auto fill = [&](std::size_t begin, std::size_t end) {
    util::Rng noise;
    std::vector<Tap> rows(static_cast<std::size_t>(s));
    std::vector<Tap> cols(static_cast<std::size_t>(s));
    for (std::size_t i = begin; i < end; ++i) {
      const SampleHeader& h = headers[i];
      noise.restore_state_words(h.noise_state);
      for (int k = 0; k < s; ++k) {
        rows[static_cast<std::size_t>(k)] = shifted_tap(s, k + h.dr);
        cols[static_cast<std::size_t>(k)] = shifted_tap(s, k + h.dc);
      }
      const std::vector<float>& proto =
          prototypes[static_cast<std::size_t>(h.cls)];
      float* out = images.data() + i * pixels;
      for (int ch = 0; ch < c; ++ch) {
        const float* plane =
            proto.data() + static_cast<std::size_t>(ch) * s * s;
        for (const Tap& row : rows) {
          const float* top = plane + row.lo * static_cast<std::size_t>(s);
          const float* bottom = plane + row.hi * static_cast<std::size_t>(s);
          const double fr = row.frac;
          for (const Tap& col : cols) {
            const double fc = col.frac;
            const float base = static_cast<float>(
                (1 - fr) * ((1 - fc) * top[col.lo] + fc * top[col.hi]) +
                fr * ((1 - fc) * bottom[col.lo] + fc * bottom[col.hi]));
            *out++ = static_cast<float>(h.contrast * base + h.brightness +
                                        spec.noise * noise.normal());
          }
        }
      }
    }
  };
  if (pool) {
    pool->parallel_for(0, headers.size(), fill);
  } else {
    fill(0, headers.size());
  }
  return Dataset(std::move(images), std::move(labels));
}

}  // namespace

TrainTest generate_synthetic(const SyntheticSpec& spec,
                             util::ThreadPool* pool) {
  if (spec.num_classes <= 1 || spec.image_size <= 0 || spec.channels <= 0 ||
      spec.train_count <= 0 || spec.test_count <= 0) {
    throw std::invalid_argument("generate_synthetic: bad spec");
  }
  util::Rng proto_rng(spec.seed);
  std::vector<std::vector<float>> prototypes;
  prototypes.reserve(static_cast<std::size_t>(spec.num_classes));
  for (int i = 0; i < spec.num_classes; ++i) {
    prototypes.push_back(make_prototype(spec, proto_rng));
  }
  util::Rng train_rng = proto_rng.fork(1);
  util::Rng test_rng = proto_rng.fork(2);
  TrainTest out{
      generate_split(spec, prototypes, spec.train_count, train_rng, pool),
      generate_split(spec, prototypes, spec.test_count, test_rng, pool)};
  return out;
}

}  // namespace fedsu::data
