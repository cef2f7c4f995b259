// GEMM micro-benchmark: naive scalar triple-loop (the pre-blocking kernel)
// vs the cache-blocked, register-tiled kernel in tensor/gemm.h, across the
// im2col / fully-connected layer shapes of the model zoo (CNN, ResNet-style,
// DenseNet-style — DESIGN.md §4) plus square reference shapes. Single
// thread, so the numbers isolate kernel quality from pool fan-out.
//
// Every shape is correctness-checked (blocked vs naive, tolerance scaled by
// k) before it is timed; a mismatch exits non-zero, which is what the CI
// smoke step keys on. Each kernel is timed by bench::measure: per shape the
// blocked kernel's median and MAD per call, GFLOP/s from the medians. Results
// land in a JSON file (default BENCH_gemm.json, written through
// bench::write_json, naming the CPU, its core count and the dispatched
// micro-kernel) so the kernel perf trajectory is tracked across PRs.
//
// Usage: bench_gemm [--out BENCH_gemm.json] [--smoke]
// --smoke shortens every sample: correctness and schema only.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/json.h"
#include "tensor/gemm.h"
#include "util/flags.h"
#include "util/rng.h"

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

}  // namespace

int run(int argc, char** argv) {
  fedsu::util::Flags flags;
  flags.add_string("out", "BENCH_gemm.json", "output JSON path")
      .add_bool("smoke", false,
                "CI mode: short samples, correctness + schema only");
  if (!flags.parse(argc, argv)) return 0;
  const bool smoke = flags.get_bool("smoke");

  // Operands of every shape stay alive so bench::measure can sample all
  // kernels round-robin.
  struct Operands {
    std::vector<float> a, b, c_naive, c_blocked;
  };
  const std::vector<Shape> shapes = benchmark_shapes();
  std::vector<Operands> operands(shapes.size());
  std::vector<std::function<void()>> kernels;  // naive, blocked per shape
  fedsu::util::Rng rng(42);
  bool all_ok = true;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    Operands& o = operands[i];
    const std::size_t c_size = static_cast<std::size_t>(s.m) * s.n;
    o = {random_buffer(static_cast<std::size_t>(s.m) * s.k, rng),
         random_buffer(static_cast<std::size_t>(s.n) * s.k, rng),
         std::vector<float>(c_size), std::vector<float>(c_size)};
    kernels.push_back([&s, &o] {
      naive_gemm(s.variant, s.m, s.n, s.k, o.a.data(), o.b.data(),
                 o.c_naive.data());
    });
    kernels.push_back([&s, &o] {
      fedsu::tensor::gemm::sgemm_rows(s.variant, 0, s.m, s.m, s.n, s.k,
                                      o.a.data(), o.b.data(),
                                      o.c_blocked.data(),
                                      Accumulate::kOverwrite);
    });
    kernels[2 * i]();
    kernels[2 * i + 1]();
    // The two kernels accumulate in different orders; tolerance scales
    // with the reduction length.
    const double tol = 1e-6 * s.k + 1e-5;
    for (std::size_t j = 0; j < c_size; ++j) {
      if (std::fabs(static_cast<double>(o.c_naive[j]) - o.c_blocked[j]) >
          tol) {
        std::fprintf(stderr,
                     "FAIL %s: blocked[%zu]=%g vs naive=%g (tol %g)\n",
                     s.name.c_str(), j, o.c_blocked[j], o.c_naive[j], tol);
        all_ok = false;
        break;
      }
    }
  }
  const std::vector<fedsu::bench::Stats> times =
      fedsu::bench::measure(kernels, smoke);

  std::printf("%-21s %-3s %5s %5s %5s  %10s %10s %7s %8s\n", "shape", "op",
              "m", "n", "k", "naive", "blocked", "MAD", "speedup");
  std::ostringstream shapes_json;
  double speedup_log_sum = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    const fedsu::bench::Stats& naive = times[2 * i];
    const fedsu::bench::Stats& blocked = times[2 * i + 1];
    const double flops = 2.0 * s.m * s.n * s.k;
    const double gflops_naive = flops / naive.median * 1e-9;
    const double gflops_blocked = flops / blocked.median * 1e-9;
    const double speedup = naive.median / blocked.median;
    speedup_log_sum += std::log(speedup);
    std::printf("%-21s %-3s %5d %5d %5d  %10.2f %10.2f %6.1f%% %7.2fx\n",
                s.name.c_str(), variant_name(s.variant), s.m, s.n, s.k,
                gflops_naive, gflops_blocked,
                100.0 * blocked.mad / blocked.median, speedup);

    shapes_json << (i > 0 ? ",\n" : "\n")
                << "    {\"name\": " << fedsu::obs::json_quote(s.name)
                << ", \"variant\": \""
                << variant_name(s.variant) << "\", \"m\": " << s.m
                << ", \"n\": " << s.n << ", \"k\": " << s.k
                << ", \"blocked_us\": "
                << fedsu::obs::json_number(blocked.median * 1e6)
                << ", \"blocked_mad_us\": "
                << fedsu::obs::json_number(blocked.mad * 1e6)
                << ", \"gflops_naive\": "
                << fedsu::obs::json_number(gflops_naive)
                << ", \"gflops_blocked\": "
                << fedsu::obs::json_number(gflops_blocked)
                << ", \"speedup\": " << fedsu::obs::json_number(speedup)
                << "}";
  }

  const double geomean =
      std::exp(speedup_log_sum / static_cast<double>(shapes.size()));
  std::printf("%-21s %56s %7.2fx\n", "geomean", "", geomean);

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"gemm\",\n  \"threads\": 1,\n"
      << "  \"host\": {\"cpu\": " << fedsu::obs::json_quote(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": "
      << fedsu::obs::json_quote(fedsu::tensor::gemm::isa_name()) << "},\n"
      << "  \"flops_model\": \"2*m*n*k\",\n  \"samples\": "
      << fedsu::bench::kSamples << ",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n"
      << "  \"shapes\": [" << shapes_json.str() << "\n  ],\n"
      << "  \"geomean_speedup\": " << fedsu::obs::json_number(geomean)
      << "\n}\n";

  fedsu::bench::write_json(
      doc.str(), flags.get_string("out"),
      [](const fedsu::obs::JsonValue& parsed) {
        const auto& shapes = parsed.at("shapes").as_array();
        if (shapes.empty()) throw std::runtime_error("no shapes");
        for (const auto& sh : shapes) {
          sh.at("name").as_string();
          sh.at("blocked_us").as_number();
          sh.at("blocked_mad_us").as_number();
          sh.at("gflops_naive").as_number();
          sh.at("gflops_blocked").as_number();
          sh.at("speedup").as_number();
        }
        parsed.at("geomean_speedup").as_number();
      });

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: blocked kernel diverged from naive\n");
    return 1;
  }
  return 0;
}
