// GEMM micro-benchmark: naive scalar triple-loop (the pre-blocking kernel)
// vs the cache-blocked, register-tiled kernel in tensor/gemm.h, across the
// im2col / fully-connected layer shapes of the model zoo (CNN, ResNet-style,
// DenseNet-style — DESIGN.md §4) plus square reference shapes. Single
// thread, so the numbers isolate kernel quality from pool fan-out.
//
// Every shape is correctness-checked (blocked vs naive, tolerance scaled by
// k) before it is timed; a mismatch exits non-zero, which is what the CI
// smoke step keys on. Results land in a JSON file (default BENCH_gemm.json,
// self-reparsed through obs::json_parse as a schema check, naming the CPU,
// its core count and the dispatched micro-kernel) so the kernel perf
// trajectory is tracked across PRs.
//
// Usage: bench_gemm [--out BENCH_gemm.json] [--min-time-ms 200] [--smoke]
// A bad flag prints one line to stderr and exits 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "tensor/gemm.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using fedsu::tensor::gemm::Accumulate;
using fedsu::tensor::gemm::Variant;

struct Shape {
  std::string name;  // model.layer the shape comes from
  Variant variant;
  int m, n, k;
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kNN: return "nn";
    case Variant::kTN: return "tn";
    case Variant::kNT: return "nt";
  }
  return "?";
}

// The im2col GEMM of a conv layer is [outC, inC*k*k] x [inC*k*k, oh*ow];
// shapes below instantiate that for the zoo's layers at the paper's image
// sizes (28 EMNIST/FMNIST, 32 CIFAR — nn/zoo.cpp), plus the FC layers'
// batch-16 x-W^T products and square peak-rate references. The CNN rows
// cover every GEMM of its training step: per sample, each conv's forward
// (NN), weight gradient g * cols^T (NT) and, past the first layer, input
// gradient W^T * g (TN); per batch of 16, each Linear's forward X * W^T
// (NT), weight gradient dY^T * X (TN) and input gradient dY * W (NN). The
// ResNet and DenseNet rows pair each conv's forward with its weight
// gradient, m = out channels.
std::vector<Shape> benchmark_shapes() {
  return {
      // CNN (EMNIST 28x28): conv5x5 stack + FC head, fc1 = Linear(256, 64),
      // fc2 = Linear(64, 10).
      {"cnn.conv1", Variant::kNN, 8, 576, 25},
      {"cnn.conv1.wgrad", Variant::kNT, 8, 25, 576},
      {"cnn.conv2", Variant::kNN, 16, 64, 200},
      {"cnn.conv2.wgrad", Variant::kNT, 16, 200, 64},
      {"cnn.conv2.dgrad", Variant::kTN, 200, 64, 16},
      {"cnn.fc1", Variant::kNT, 16, 64, 256},
      {"cnn.fc1.wgrad", Variant::kTN, 64, 256, 16},
      {"cnn.fc1.dgrad", Variant::kNN, 16, 256, 64},
      {"cnn.fc2", Variant::kNT, 16, 10, 64},
      {"cnn.fc2.wgrad", Variant::kTN, 10, 64, 16},
      {"cnn.fc2.dgrad", Variant::kNN, 16, 64, 10},
      // ResNet-style (FMNIST 28x28, base width 8): stem + three stages,
      // each conv's forward and per-sample weight gradient.
      {"resnet.stem", Variant::kNN, 8, 784, 9},
      {"resnet.stem.wgrad", Variant::kNT, 8, 9, 784},
      {"resnet.stage1", Variant::kNN, 8, 784, 72},
      {"resnet.stage1.wgrad", Variant::kNT, 8, 72, 784},
      {"resnet.stage2a", Variant::kNN, 16, 196, 72},
      {"resnet.stage2a.wgrad", Variant::kNT, 16, 72, 196},
      {"resnet.stage2b", Variant::kNN, 16, 196, 144},
      {"resnet.stage2b.wgrad", Variant::kNT, 16, 144, 196},
      {"resnet.stage3a", Variant::kNN, 32, 49, 144},
      {"resnet.stage3a.wgrad", Variant::kNT, 32, 144, 49},
      {"resnet.stage3b", Variant::kNN, 32, 49, 288},
      {"resnet.stage3b.wgrad", Variant::kNT, 32, 288, 49},
      // DenseNet-style (CIFAR 32x32, growth 6): dense layer + transition,
      // forward and per-sample weight gradient.
      {"densenet.dense1", Variant::kNN, 6, 1024, 72},
      {"densenet.dense1.wgrad", Variant::kNT, 6, 72, 1024},
      {"densenet.trans1", Variant::kNN, 13, 1024, 26},
      {"densenet.trans1.wgrad", Variant::kNT, 13, 26, 1024},
      {"densenet.dense2", Variant::kNN, 6, 256, 117},
      {"densenet.dense2.wgrad", Variant::kNT, 6, 117, 256},
      // Square references: where the kernel's peak rate shows.
      {"square.128", Variant::kNN, 128, 128, 128},
      {"square.256", Variant::kNN, 256, 256, 256},
  };
}

// The pre-PR kernel: scalar i/l/j loops, accumulator row in C. (The old
// `if (av == 0) continue;` guard is omitted — on the random dense operands
// benchmarked here it never fired, and it is gone from the tree.)
void naive_gemm(Variant v, int m, int n, int k, const float* a,
                const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    if (v == Variant::kNT) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      for (int j = 0; j < n; ++j) {
        const float* brow = b + static_cast<std::size_t>(j) * k;
        float acc = 0.0f;
        for (int l = 0; l < k; ++l) acc += arow[l] * brow[l];
        crow[j] = acc;
      }
      continue;
    }
    for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int l = 0; l < k; ++l) {
      const float av = (v == Variant::kTN)
                           ? a[static_cast<std::size_t>(l) * m + i]
                           : a[static_cast<std::size_t>(i) * k + l];
      const float* brow = b + static_cast<std::size_t>(l) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// The CPU model named in /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    const std::size_t value = line.find_first_not_of(" \t", colon + 1);
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

std::vector<float> random_buffer(std::size_t n, fedsu::util::Rng& rng) {
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

// Repeats fn until it has run for at least min_ms, returns GFLOP/s.
template <typename Fn>
double time_gflops(double flops_per_call, double min_ms, const Fn& fn) {
  // Warm-up (page in buffers, settle turbo).
  fn();
  int reps = 1;
  for (;;) {
    fedsu::util::Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    const double ms = sw.elapsed_ms();
    if (ms >= min_ms) {
      return flops_per_call * reps / (ms * 1e-3) * 1e-9;
    }
    reps = (ms <= 0.01) ? reps * 16 : static_cast<int>(reps * (min_ms / ms) + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  fedsu::util::Flags flags;
  flags.add_string("out", "BENCH_gemm.json", "output JSON path")
      .add_double("min-time-ms", 200.0, "minimum measured time per kernel")
      .add_bool("smoke", false,
                "CI mode: tiny timing budget, correctness + schema only");
  try {
    if (!flags.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    const std::string what = e.what();  // an unknown flag appends the usage
    std::fprintf(stderr, "bench_gemm: %s (see --help)\n",
                 what.substr(0, what.find('\n')).c_str());
    return 2;
  }
  const double min_ms =
      flags.get_bool("smoke") ? 5.0 : flags.get_double("min-time-ms");

  fedsu::util::Rng rng(42);
  std::ostringstream shapes_json;
  bool all_ok = true;
  double speedup_log_sum = 0.0;
  int speedup_count = 0;

  std::printf("%-18s %-3s %5s %5s %5s  %10s %10s %8s\n", "shape", "op", "m",
              "n", "k", "naive", "blocked", "speedup");
  for (const Shape& s : benchmark_shapes()) {
    const std::size_t c_size = static_cast<std::size_t>(s.m) * s.n;
    const std::vector<float> a =
        random_buffer(static_cast<std::size_t>(s.m) * s.k, rng);
    const std::vector<float> b =
        random_buffer(static_cast<std::size_t>(s.n) * s.k, rng);
    std::vector<float> c_naive(c_size), c_blocked(c_size);

    naive_gemm(s.variant, s.m, s.n, s.k, a.data(), b.data(), c_naive.data());
    fedsu::tensor::gemm::sgemm_rows(s.variant, 0, s.m, s.m, s.n, s.k,
                                    a.data(), b.data(), c_blocked.data(),
                                    Accumulate::kOverwrite);
    // The two kernels accumulate in different orders; tolerance scales
    // with the reduction length.
    const double tol = 1e-6 * s.k + 1e-5;
    for (std::size_t i = 0; i < c_size; ++i) {
      if (std::fabs(static_cast<double>(c_naive[i]) - c_blocked[i]) > tol) {
        std::fprintf(stderr,
                     "FAIL %s: blocked[%zu]=%g vs naive=%g (tol %g)\n",
                     s.name.c_str(), i, c_blocked[i], c_naive[i], tol);
        all_ok = false;
        break;
      }
    }

    const double flops = 2.0 * s.m * s.n * s.k;
    const double gflops_naive = time_gflops(flops, min_ms, [&] {
      naive_gemm(s.variant, s.m, s.n, s.k, a.data(), b.data(),
                 c_naive.data());
    });
    const double gflops_blocked = time_gflops(flops, min_ms, [&] {
      fedsu::tensor::gemm::sgemm_rows(s.variant, 0, s.m, s.m, s.n, s.k,
                                      a.data(), b.data(), c_blocked.data(),
                                      Accumulate::kOverwrite);
    });
    const double speedup = gflops_blocked / gflops_naive;
    speedup_log_sum += std::log(speedup);
    ++speedup_count;
    std::printf("%-18s %-3s %5d %5d %5d  %10.2f %10.2f %7.2fx\n",
                s.name.c_str(), variant_name(s.variant), s.m, s.n, s.k,
                gflops_naive, gflops_blocked, speedup);

    shapes_json << (speedup_count > 1 ? ",\n" : "\n")
                << "    {\"name\": " << fedsu::obs::json_quote(s.name)
                << ", \"variant\": \""
                << variant_name(s.variant) << "\", \"m\": " << s.m
                << ", \"n\": " << s.n << ", \"k\": " << s.k
                << ", \"gflops_naive\": "
                << fedsu::obs::json_number(gflops_naive)
                << ", \"gflops_blocked\": "
                << fedsu::obs::json_number(gflops_blocked)
                << ", \"speedup\": " << fedsu::obs::json_number(speedup)
                << "}";
  }

  const double geomean =
      speedup_count > 0 ? std::exp(speedup_log_sum / speedup_count) : 0.0;
  std::printf("%-18s %45s %7.2fx\n", "geomean", "", geomean);

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"gemm\",\n  \"threads\": 1,\n"
      << "  \"host\": {\"cpu\": " << fedsu::obs::json_quote(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": "
      << fedsu::obs::json_quote(fedsu::tensor::gemm::isa_name()) << "},\n"
      << "  \"flops_model\": \"2*m*n*k\",\n  \"smoke\": "
      << (flags.get_bool("smoke") ? "true" : "false") << ",\n"
      << "  \"shapes\": [" << shapes_json.str() << "\n  ],\n"
      << "  \"geomean_speedup\": " << fedsu::obs::json_number(geomean)
      << "\n}\n";

  // Schema self-check: the emitted document must parse and carry the keys
  // downstream tooling reads. Run before writing so a broken emitter never
  // overwrites a good checked-in file.
  try {
    const fedsu::obs::JsonValue parsed = fedsu::obs::json_parse(doc.str());
    const auto& shapes = parsed.at("shapes").as_array();
    if (shapes.empty()) throw std::runtime_error("no shapes");
    for (const auto& sh : shapes) {
      sh.at("name").as_string();
      sh.at("gflops_naive").as_number();
      sh.at("gflops_blocked").as_number();
      sh.at("speedup").as_number();
    }
    parsed.at("geomean_speedup").as_number();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: emitted JSON failed schema check: %s\n",
                 e.what());
    return 1;
  }

  const std::string out_path = flags.get_string("out");
  std::ofstream out(out_path);
  out << doc.str();
  if (!out) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: blocked kernel diverged from naive\n");
    return 1;
  }
  return 0;
}
