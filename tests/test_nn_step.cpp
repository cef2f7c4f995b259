// The local SGD step's two contracts.
//
// Bits: every nn module and every zoo architecture is pinned to FNV-1a
// hashes of its forward outputs, input gradients, parameter grads and
// state on seeded inputs. Each module case runs two training steps at
// different batch sizes, so the second step reads buffers a larger batch
// left behind; each architecture case interleaves momentum-SGD steps with
// eval-mode forwards at 1 and 4 threads. A changed bit anywhere fails.
//
// Heap: after warm-up, a training step (forward, loss, backward, SGD) and
// an eval-mode forward make no heap allocation and do not grow the scratch
// arena, for every architecture. Sanitizer builds replace the allocator
// themselves, so the operator-new interposer is compiled out there and
// those builds check the arena only.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "gradcheck.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/sgd.h"
#include "nn/zoo.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FEDSU_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FEDSU_SANITIZED 1
#endif
#endif
#ifndef FEDSU_SANITIZED
#define FEDSU_COUNT_ALLOCS 1
#endif

#ifdef FEDSU_COUNT_ALLOCS
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // FEDSU_COUNT_ALLOCS

namespace fedsu::nn {
namespace {

using fedsu::testing::random_tensor;

// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const tensor::Tensor& t) {
    add(t.shape().data(), t.shape().size() * sizeof(int));
    add(t.data(), t.size() * sizeof(float));
  }
  void add(const std::vector<float>& v) {
    add(v.data(), v.size() * sizeof(float));
  }
  void add(float v) { add(&v, sizeof v); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Index of the recorded pin column for this build, or -1. Bits are per
// binary and per ISA (DESIGN.md §5b): the hashes were recorded from plain
// GCC builds (no sanitizer, coverage or -march=native; tests/CMakeLists.txt
// defines FEDSU_NN_UNPINNED otherwise) on hosts whose GEMM dispatches to
// the avx512vl or the avx2-fma micro-kernel. Other builds check
// thread-count invariance only.
int pin_column() {
#if !defined(FEDSU_NN_UNPINNED) && !defined(__FMA__)
  const std::string isa = tensor::gemm::isa_name();
  if (isa == "avx512vl") return 0;
  if (isa == "avx2-fma") return 1;
#endif
  return -1;
}

std::vector<int> batch_shape(int batch, const std::vector<int>& sample) {
  std::vector<int> shape{batch};
  shape.insert(shape.end(), sample.begin(), sample.end());
  return shape;
}

// Two training steps (batch 3, then batch 2), each hashing the output,
// dL/dinput and every parameter's value and grad, then an eval-mode
// forward at each batch size.
std::uint64_t module_hash(Module& module, const std::vector<int>& sample,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Param*> params;
  module.collect_params(params);
  Fnv1a hash;
  for (const int batch : {3, 2}) {
    const tensor::Tensor x = random_tensor(batch_shape(batch, sample), rng);
    zero_grads(params);
    const tensor::Tensor& y = module.forward(x, /*train=*/true);
    hash.add(y);
    const tensor::Tensor g = random_tensor(y.shape(), rng);
    const tensor::Tensor& dx = module.backward(g);
    hash.add(dx);
    for (const Param* p : params) {
      hash.add(p->value);
      hash.add(p->grad);
    }
  }
  for (const int batch : {3, 2}) {
    hash.add(module.forward(random_tensor(batch_shape(batch, sample), rng),
                            /*train=*/false));
  }
  return hash.value();
}

struct ModuleCase {
  const char* name;
  std::function<ModulePtr(util::Rng&)> make;
  std::vector<int> sample;  // input shape without the batch dimension
  std::array<std::uint64_t, 2> pinned;  // avx512vl, avx2-fma
};

TEST(NnGolden, EveryModuleIsBitwisePinned) {
  const std::vector<ModuleCase> cases = {
      {"Conv2d",
       [](util::Rng& r) { return std::make_unique<Conv2d>(3, 4, 3, r); },
       {3, 6, 6},
       {0xe2fc2b8eb9da6347ULL, 0xe2fc2b8eb9da6347ULL}},
      {"Conv2dNoBias",
       [](util::Rng& r) {
         return std::make_unique<Conv2d>(3, 4, 3, r, 1, 0, /*bias=*/false);
       },
       {3, 6, 6},
       {0xf03e411fdd98f235ULL, 0xf03e411fdd98f235ULL}},
      {"Conv2dStride2Pad1",
       [](util::Rng& r) { return std::make_unique<Conv2d>(3, 4, 3, r, 2, 1); },
       {3, 7, 7},
       {0x10d1502e6f8f4999ULL, 0x10d1502e6f8f4999ULL}},
      {"Linear",
       [](util::Rng& r) { return std::make_unique<Linear>(6, 4, r); },
       {6},
       {0x17fdae7d69ce78fbULL, 0x17fdae7d69ce78fbULL}},
      {"ReLU",
       [](util::Rng&) { return std::make_unique<ReLU>(); },
       {4, 5},
       {0xe725f6c47d42b805ULL, 0xe725f6c47d42b805ULL}},
      {"Flatten",
       [](util::Rng&) { return std::make_unique<Flatten>(); },
       {3, 4, 4},
       {0x667fb9557b3450d6ULL, 0x667fb9557b3450d6ULL}},
      {"MaxPool2d",
       [](util::Rng&) { return std::make_unique<MaxPool2d>(2); },
       {3, 5, 7},
       {0xa5c47867ab578856ULL, 0xa5c47867ab578856ULL}},
      {"MaxPool2dOverlapping",
       [](util::Rng&) { return std::make_unique<MaxPool2d>(3, 2); },
       {2, 7, 7},
       {0xbbe540a23f8ba3feULL, 0xbbe540a23f8ba3feULL}},
      {"AvgPool2d",
       [](util::Rng&) { return std::make_unique<AvgPool2d>(2); },
       {3, 5, 7},
       {0x0cf76f522a7dbf6bULL, 0x0cf76f522a7dbf6bULL}},
      {"GlobalAvgPool",
       [](util::Rng&) { return std::make_unique<GlobalAvgPool>(); },
       {3, 4, 5},
       {0x4f181ac9bdbd92ddULL, 0x4f181ac9bdbd92ddULL}},
      {"BatchNorm2d",
       [](util::Rng&) { return std::make_unique<BatchNorm2d>(3); },
       {3, 4, 4},
       {0x4b37c99e5f6317eaULL, 0x4b37c99e5f6317eaULL}},
      {"ResidualBlockIdentity",
       [](util::Rng& r) { return std::make_unique<ResidualBlock>(3, 3, 1, r); },
       {3, 6, 6},
       {0xf39e4d01c6878b06ULL, 0xf39e4d01c6878b06ULL}},
      {"ResidualBlockProjection",
       [](util::Rng& r) { return std::make_unique<ResidualBlock>(3, 4, 2, r); },
       {3, 6, 6},
       {0x9ffbc604d01bcf3bULL, 0x8a15c0abf5c440bfULL}},
      {"DenseLayer",
       [](util::Rng& r) { return std::make_unique<DenseLayer>(3, 2, r); },
       {3, 5, 5},
       {0x5669add2e6dfd51aULL, 0x5669add2e6dfd51aULL}},
      {"TransitionLayer",
       [](util::Rng& r) { return std::make_unique<TransitionLayer>(4, 2, r); },
       {4, 6, 6},
       {0x23fb0dd3431c7b08ULL, 0x23fb0dd3431c7b08ULL}},
      // Conv2d staging branches: a full 8-row GEMM panel, both edges
      // clipped, a group of 8 output channels plus 3, a stride that skips
      // input, and a single output pixel.
      {"Conv2dStride1Pad1Out8",
       [](util::Rng& r) { return std::make_unique<Conv2d>(3, 8, 3, r, 1, 1); },
       {3, 6, 6},
       {0xc1b35d6237fff3c9ULL, 0xc1b35d6237fff3c9ULL}},
      {"Conv2dK5Pad2",
       [](util::Rng& r) { return std::make_unique<Conv2d>(2, 4, 5, r, 1, 2); },
       {2, 7, 7},
       {0xe637f9f47b7f962eULL, 0x2595f415bf368292ULL}},
      {"Conv2dOut11",
       [](util::Rng& r) { return std::make_unique<Conv2d>(3, 11, 3, r); },
       {3, 7, 5},
       {0x1c02a9a61510930dULL, 0x1c02a9a61510930dULL}},
      {"Conv2dStride3",
       [](util::Rng& r) { return std::make_unique<Conv2d>(2, 4, 2, r, 3, 1); },
       {2, 8, 7},
       {0xce7ef22a229653b3ULL, 0xe080c84f1630da17ULL}},
      {"Conv2dOneByOneOutput",
       [](util::Rng& r) { return std::make_unique<Conv2d>(2, 5, 5, r, 1, 1); },
       {2, 3, 3},
       {0xc5b6f97cc0a9082fULL, 0xc5b6f97cc0a9082fULL}},
      // MaxPool2d's 2x2 vector step: pooled width 11 is two 4-wide steps
      // plus a 3-wide tail; width 9 pools to 4 and drops its last column.
      {"MaxPool2dWidth11",
       [](util::Rng&) { return std::make_unique<MaxPool2d>(2); },
       {2, 6, 22},
       {0x4a1b6298809b0a03ULL, 0x4a1b6298809b0a03ULL}},
      {"MaxPool2dOddWidth",
       [](util::Rng&) { return std::make_unique<MaxPool2d>(2); },
       {1, 4, 9},
       {0x7df2ad343898ab9fULL, 0x7df2ad343898ab9fULL}},
  };
  const int column = pin_column();
  if (column < 0) GTEST_SKIP() << "no pins for this compiler, flags or ISA";
  std::uint64_t seed = 100;
  for (const ModuleCase& c : cases) {
    util::Rng init(seed);
    const ModulePtr module = c.make(init);
    const std::uint64_t got = module_hash(*module, c.sample, seed + 1);
    EXPECT_EQ(got, c.pinned[static_cast<std::size_t>(column)])
        << c.name << ": 0x" << std::hex << got;
    seed += 2;
  }
}

// ReLU is bitwise the clamp x < 0 ? 0 : x, and its gate passes the
// gradient exactly where that clamp's output is positive or NaN.
TEST(NnGolden, ReluEdgeLanes) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> lanes = {-0.0f, 0.0f, nan,  inf,   -inf,
                                    1.5f,  -2.5f, 1e-40f, -1e-40f};
  util::Rng rng(41);
  ReLU relu;
  for (const int batch : {3, 2}) {
    tensor::Tensor x = random_tensor({batch, 13}, rng);
    for (int b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        x.at(b, static_cast<int>(i) + b) = lanes[i];
      }
    }
    const tensor::Tensor g = random_tensor({batch, 13}, rng);
    const tensor::Tensor y = relu.forward(x, /*train=*/true);
    const tensor::Tensor& dx = relu.backward(g);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float want_y = x[i] < 0.0f ? 0.0f : x[i];
      const float want_dx = x[i] <= 0.0f ? 0.0f : g[i];
      EXPECT_EQ(std::memcmp(y.data() + i, &want_y, sizeof(float)), 0)
          << "forward lane " << i << " input " << x[i];
      EXPECT_EQ(std::memcmp(dx.data() + i, &want_dx, sizeof(float)), 0)
          << "backward lane " << i << " input " << x[i];
    }
  }
}

// Six momentum-SGD steps at varying batch sizes, each followed by an
// eval-mode forward, hashing the loss, the grads, the state and the eval
// logits. The batches are large enough that conv layers fan out over a
// 4-thread pool.
std::uint64_t architecture_hash(const std::string& arch) {
  ModelSpec spec;
  spec.arch = arch;
  spec.in_channels = 2;
  spec.image_size = 20;
  spec.num_classes = 10;
  Model model = build_model(spec, util::Rng(7));
  SgdOptions options;
  options.learning_rate = 0.02f;
  options.momentum = 0.9f;
  options.weight_decay = 1e-3f;
  Sgd sgd(model.parameters(), options);
  SoftmaxCrossEntropy loss;
  util::Rng rng(11);
  Fnv1a hash;
  for (const int batch : {16, 16, 9, 16, 5, 16}) {
    const tensor::Tensor x = random_tensor({batch, 2, 20, 20}, rng);
    std::vector<int> labels(static_cast<std::size_t>(batch));
    for (int& y : labels) y = static_cast<int>(rng.uniform_index(10));
    model.zero_grads();
    const tensor::Tensor& logits = model.forward(x, /*train=*/true);
    hash.add(loss.forward(logits, labels));
    model.backward(loss.backward());
    hash.add(model.grad_vector());
    sgd.step();
    hash.add(model.state_vector());
    hash.add(
        model.forward(random_tensor({4, 2, 20, 20}, rng), /*train=*/false));
  }
  return hash.value();
}

TEST(NnGolden, EveryArchitectureIsBitwisePinned) {
  struct ArchCase {
    std::string arch;
    std::array<std::uint64_t, 2> pinned;  // avx512vl, avx2-fma
  };
  const std::vector<ArchCase> cases = {
      {"cnn", {0x0f6600d76fa97389ULL, 0x0f6600d76fa97389ULL}},
      {"resnet", {0x86c6e66ae3c45fabULL, 0x86c6e66ae3c45fabULL}},
      {"densenet", {0xdbc12102444c9495ULL, 0x87b24bfa18d8a313ULL}},
      {"mlp", {0xba2f0a2fa299fd84ULL, 0xba2f0a2fa299fd84ULL}},
      {"logistic", {0xec04c3beefa499e7ULL, 0xec04c3beefa499e7ULL}}};
  ASSERT_EQ(cases.size(), known_architectures().size());
  const int column = pin_column();
  for (const ArchCase& c : cases) {
    util::ThreadPool::set_global_threads(1);
    const std::uint64_t one = architecture_hash(c.arch);
    util::ThreadPool::set_global_threads(4);
    const std::uint64_t four = architecture_hash(c.arch);
    EXPECT_EQ(one, four) << c.arch << ": thread count moved a bit";
    if (column >= 0) {
      EXPECT_EQ(one, c.pinned[static_cast<std::size_t>(column)])
          << c.arch << ": 0x" << std::hex << one;
    }
  }
  util::ThreadPool::set_global_threads(1);
}

// Heap use of one call: operator-new calls it made (always 0 where the
// interposer is compiled out) and whether it grew this thread's arena.
struct HeapUse {
  std::size_t allocs = 0;
  bool arena_grew = false;
};

template <typename F>
HeapUse heap_use(F&& call) {
  util::ScratchArena& arena = util::ScratchArena::local();
  const std::size_t blocks = arena.grow_count();
  const std::size_t bytes = arena.capacity_bytes();
  HeapUse use;
#ifdef FEDSU_COUNT_ALLOCS
  const std::size_t base = g_alloc_count.load();
  call();
  use.allocs = g_alloc_count.load() - base;
#else
  call();
#endif
  use.arena_grew =
      arena.grow_count() != blocks || arena.capacity_bytes() != bytes;
  return use;
}

TEST(ScratchPath, ConvTrainingStepIsAllocationFreeAfterWarmup) {
  util::Rng rng(5);
  // Small enough that neither the batch loop nor the GEMMs fan out, so the
  // whole step runs on this thread and its arena.
  Conv2d conv(3, 8, 3, rng, /*stride=*/1, /*padding=*/1);
  const tensor::Tensor input = random_tensor({2, 3, 12, 12}, rng);
  const tensor::Tensor grad = random_tensor({2, 8, 12, 12}, rng);
  auto step = [&] {
    const tensor::Tensor& out = conv.forward(input, /*train=*/true);
    const tensor::Tensor& dx = conv.backward(grad);
    return out[0] + dx[0];
  };
  step();  // warm-up: sizes the layer's buffers and the arena
  for (int i = 0; i < 2; ++i) {
    const HeapUse use = heap_use(step);
    EXPECT_EQ(use.allocs, 0u) << "step " << i;
    EXPECT_FALSE(use.arena_grew) << "step " << i;
  }
}

// Local training runs one client per pool worker, where kernels never fan
// out. A one-thread pool gives this thread the same inline path; a fan-out
// would add the pool's own per-region bookkeeping to the count.
class StepAllocs : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_ = util::ThreadPool::global().size();
    util::ThreadPool::set_global_threads(1);
  }
  void TearDown() override { util::ThreadPool::set_global_threads(threads_); }

  // An EMNIST-shaped synthetic training set of `count` samples.
  static std::shared_ptr<const data::Dataset> train_set(int count) {
    data::SyntheticSpec spec = data::synthetic_preset("emnist");
    spec.train_count = count;
    spec.test_count = 1;
    return std::make_shared<const data::Dataset>(
        data::generate_synthetic(spec).train);
  }

  static Model emnist_model(const std::string& arch) {
    ModelSpec spec = paper_spec("emnist");
    spec.arch = arch;
    return build_model(spec, util::Rng(3));
  }

 private:
  int threads_ = 1;
};

TEST_F(StepAllocs, TrainingStepOfEveryArchitecture) {
  // 6 batches of 16: the 5 steps below never reach the reshuffle that
  // starts a new epoch (it allocates a permutation).
  const data::DatasetView view = data::DatasetView::all_of(train_set(96));
  for (const std::string& arch : known_architectures()) {
    Model model = emnist_model(arch);
    data::BatchLoader loader(view, 16, util::Rng(4));
    SgdOptions options;
    options.momentum = 0.9f;
    options.weight_decay = 1e-3f;
    Sgd sgd(model.parameters(), options);
    SoftmaxCrossEntropy loss;
    tensor::Tensor batch;
    std::vector<int> labels;
    // fl::Client::train_round's loop body.
    auto step = [&] {
      loader.next(batch, labels);
      model.zero_grads();
      const tensor::Tensor& logits = model.forward(batch, /*train=*/true);
      (void)loss.forward(logits, labels);
      model.backward(loss.backward());
      sgd.step();
    };
    step();
    step();
    for (int i = 0; i < 3; ++i) {
      const HeapUse use = heap_use(step);
      EXPECT_EQ(use.allocs, 0u) << arch << " step " << i;
      EXPECT_FALSE(use.arena_grew) << arch << " step " << i;
    }
  }
}

TEST_F(StepAllocs, EvalForwardOfEveryArchitecture) {
  util::Rng rng(8);
  const tensor::Tensor x = random_tensor({16, 1, 28, 28}, rng);
  for (const std::string& arch : known_architectures()) {
    Model model = emnist_model(arch);
    auto eval = [&] { (void)model.forward(x, /*train=*/false); };
    eval();
    for (int i = 0; i < 2; ++i) {
      const HeapUse use = heap_use(eval);
      EXPECT_EQ(use.allocs, 0u) << arch << " forward " << i;
      EXPECT_FALSE(use.arena_grew) << arch << " forward " << i;
    }
  }
}

// A round's heap use is per round (optimizer, loss), never per step.
TEST_F(StepAllocs, TrainRoundCostDoesNotGrowWithIterations) {
  Model model = emnist_model("cnn");
  // 40 batches of 16: the 2 + 10 + 20 iterations below stay in one epoch.
  fl::Client client(0, data::DatasetView::all_of(train_set(640)), 16,
                    util::Rng(6));
  fl::LocalTrainOptions options;
  options.momentum = 0.9f;
  options.iterations = 2;
  (void)client.train_round(model, options);  // warm-up
  options.iterations = 10;
  const HeapUse ten =
      heap_use([&] { (void)client.train_round(model, options); });
  options.iterations = 20;
  const HeapUse twenty =
      heap_use([&] { (void)client.train_round(model, options); });
  EXPECT_EQ(ten.allocs, twenty.allocs);
  EXPECT_FALSE(ten.arena_grew);
  EXPECT_FALSE(twenty.arena_grew);
}

}  // namespace
}  // namespace fedsu::nn
