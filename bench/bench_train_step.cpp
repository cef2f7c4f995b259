// Per-layer timing of one local SGD step: the paper CNN at batch 16 and 8,
// and ResNet and DenseNet at batch 16, each at its paper input
// (nn::paper_spec). For every top-level layer it reports the forward and
// backward median and MAD over repeated steps and the layer's share of
// the step; for each Conv2d also its GFLOP/s next to the GEMM kernel's on
// the same three shapes (forward kNN, weight gradient kNT and, past the
// first layer, input gradient kTN), timed here the way bench_gemm times
// them.
//
// The steps run as a real pool task on one thread, as a training worker's
// do: inside the task worth_parallelizing() is false, so Conv2d and the
// GEMM never fan out. Every case first checks that the layer-by-layer walk
// computes the same logits, loss and gradients, bit for bit, as
// Model::forward / Model::backward on a replica; a mismatch exits 1.
// Results land in a JSON file (default BENCH_train.json) that is reparsed
// as a schema check before it is written.
//
// Usage: bench_train_step [--out BENCH_train.json] [--smoke]
// Each case times 200 steps; --smoke runs 3: correctness and schema only
// (CI, no timing gate). A bad flag prints one line to stderr and exits 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/loss.h"
#include "nn/model.h"
#include "nn/sequential.h"
#include "nn/sgd.h"
#include "nn/zoo.h"
#include "obs/json.h"
#include "tensor/gemm.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using fedsu::tensor::Tensor;
using fedsu::tensor::gemm::Accumulate;
using fedsu::tensor::gemm::Variant;
namespace nn = fedsu::nn;

struct Case {
  const char* dataset;  // nn::paper_spec key
  int batch;
};

constexpr int kWarmupSteps = 10;

// Median and median absolute deviation, in the samples' unit.
struct Spread {
  double median = 0.0, mad = 0.0;
};
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}
Spread spread(const std::vector<double>& v) {
  Spread s;
  s.median = median_of(v);
  std::vector<double> dev(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    dev[i] = std::fabs(v[i] - s.median);
  }
  s.mad = median_of(dev);
  return s;
}

// GFLOP/s of one single-threaded GEMM shape, repeated for min_ms.
double gemm_gflops(Variant v, int m, int n, int k, double min_ms) {
  fedsu::util::Rng rng(0x7e57);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(n) * k);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto run = [&] {
    fedsu::tensor::gemm::sgemm_rows(v, 0, m, m, n, k, a.data(), b.data(),
                                    c.data(), Accumulate::kOverwrite);
  };
  run();
  for (int reps = 1;;) {
    fedsu::util::Stopwatch sw;
    for (int r = 0; r < reps; ++r) run();
    const double ms = sw.elapsed_ms();
    if (ms >= min_ms) return 2.0 * m * n * k * reps / (ms * 1e6);
    reps = ms <= 0.01 ? reps * 16 : static_cast<int>(reps * (min_ms / ms) + 1);
  }
}

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Per-step samples of one model, in microseconds.
struct Timings {
  std::vector<std::vector<double>> fwd, bwd;  // [layer][step]
  std::vector<double> loss, sgd, step;
  std::vector<Tensor> outputs;  // if sized: each layer's output
  float last_loss = 0.0f;
};

// One step as Sequential::forward and Model::backward run it, one layer at
// a time: the first layer gets backward_params.
void timed_step(nn::Sequential& seq, const Tensor& input,
                const std::vector<int>& labels, nn::SoftmaxCrossEntropy& loss,
                nn::Model& model, nn::Sgd& sgd, Timings* t) {
  const auto& layers = seq.modules();
  fedsu::util::Stopwatch sw;
  model.zero_grads();
  const Tensor* x = &input;
  std::vector<double> fwd(layers.size()), bwd(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    sw.lap();
    x = &layers[i]->forward(*x, /*train=*/true);
    fwd[i] = sw.lap() * 1e6;
    if (t && !t->outputs.empty()) t->outputs[i] = *x;
  }
  const float value = loss.forward(*x, labels);
  const Tensor* g = &loss.backward();
  const double loss_us = sw.lap() * 1e6;
  for (std::size_t i = layers.size(); i-- > 0;) {
    sw.lap();
    if (i == 0) {
      layers[i]->backward_params(*g);
    } else {
      g = &layers[i]->backward(*g);
    }
    bwd[i] = sw.lap() * 1e6;
  }
  sgd.step();
  const double sgd_us = sw.lap() * 1e6;
  if (!std::isfinite(value)) throw std::runtime_error("loss diverged");
  if (!t) return;
  t->last_loss = value;
  double step_us = loss_us + sgd_us;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    t->fwd[i].push_back(fwd[i]);
    t->bwd[i].push_back(bwd[i]);
    step_us += fwd[i] + bwd[i];
  }
  t->loss.push_back(loss_us);
  t->sgd.push_back(sgd_us);
  t->step.push_back(step_us);
}

std::string num(double v) { return fedsu::obs::json_number(v); }

// Runs one case on the calling thread and appends its JSON object.
// Returns false when the layer walk and Model disagree on a bit.
bool run_case(const Case& c, int steps, double gemm_ms, std::ostream& json) {
  nn::ModelSpec spec = nn::paper_spec(c.dataset);
  nn::Model model = nn::build_model(spec, fedsu::util::Rng(17));
  nn::ModelSpec replica_spec = spec;
  nn::Model replica = nn::build_model(replica_spec, fedsu::util::Rng(17));
  auto& seq = dynamic_cast<nn::Sequential&>(model.root());
  nn::SgdOptions options;
  options.learning_rate = 0.01f;
  options.weight_decay = 1e-3f;
  nn::Sgd sgd(model.parameters(), options);
  nn::SoftmaxCrossEntropy loss, replica_loss;

  fedsu::util::Rng rng(29);
  Tensor input({c.batch, spec.in_channels, spec.image_size, spec.image_size});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(rng.normal());
  }
  std::vector<int> labels(static_cast<std::size_t>(c.batch));
  for (int& l : labels) {
    l = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(spec.num_classes)));
  }

  // Correctness: the first step against Model's own forward and backward.
  const std::size_t count = seq.modules().size();
  Timings t;
  t.fwd.resize(count);
  t.bwd.resize(count);
  t.outputs.resize(count);
  timed_step(seq, input, labels, loss, model, sgd, &t);
  replica.zero_grads();
  const Tensor& logits = replica.forward(input, /*train=*/true);
  const float replica_value = replica_loss.forward(logits, labels);
  replica.backward(replica_loss.backward());
  const std::vector<float> grads = model.grad_vector();
  const std::vector<float> replica_grads = replica.grad_vector();
  const bool ok =
      same_bits(t.outputs.back(), logits) && t.last_loss == replica_value &&
      std::memcmp(grads.data(), replica_grads.data(),
                  grads.size() * sizeof(float)) == 0;
  if (!ok) {
    std::fprintf(stderr, "FAIL %s batch %d: layer walk != Model step\n",
                 spec.arch.c_str(), c.batch);
  }

  for (int s = 1; s < kWarmupSteps; ++s) {
    timed_step(seq, input, labels, loss, model, sgd, nullptr);
  }
  const std::vector<Tensor> outputs = std::move(t.outputs);
  t = Timings{};
  t.fwd.resize(count);
  t.bwd.resize(count);
  for (int s = 0; s < steps; ++s) {
    timed_step(seq, input, labels, loss, model, sgd, &t);
  }

  const Spread step = spread(t.step);
  std::printf("%s batch %d: step %.1f us (MAD %.1f)\n", spec.arch.c_str(),
              c.batch, step.median, step.mad);
  json << "    {\"arch\": " << fedsu::obs::json_quote(spec.arch)
       << ", \"batch\": " << c.batch << ", \"input\": [" << spec.in_channels
       << ", " << spec.image_size << ", " << spec.image_size
       << "], \"step_us\": " << num(step.median)
       << ", \"step_mad_us\": " << num(step.mad) << ",\n     \"layers\": [";
  const auto row = [&](bool first, const std::string& name, const Spread& f,
                       const Spread& b, const std::string& extra) {
    json << (first ? "\n" : ",\n") << "      {\"name\": "
         << fedsu::obs::json_quote(name) << ", \"fwd_us\": " << num(f.median)
         << ", \"fwd_mad_us\": " << num(f.mad) << ", \"bwd_us\": "
         << num(b.median) << ", \"bwd_mad_us\": " << num(b.mad)
         << ", \"share\": "
         << num(step.median > 0 ? (f.median + b.median) / step.median : 0)
         << extra << "}";
    std::printf("  %-18s fwd %9.1f  bwd %9.1f us  %5.1f%%\n", name.c_str(),
                f.median, b.median,
                step.median > 0 ? 100.0 * (f.median + b.median) / step.median
                                : 0.0);
  };
  for (std::size_t i = 0; i < count; ++i) {
    nn::Module& layer = *seq.modules()[i];
    const Spread f = spread(t.fwd[i]), b = spread(t.bwd[i]);
    std::string extra;
    if (layer.name() == "Conv2d") {
      std::vector<nn::Param*> params;
      layer.collect_params(params);
      const int out_c = params[0]->value.dim(0);
      const int fan_in = params[0]->value.dim(1);
      const Tensor& y = outputs[i];
      const int patch = y.dim(2) * y.dim(3);
      const double gemm_flops = 2.0 * c.batch * out_c * fan_in * patch;
      const bool dx = i > 0;
      std::ostringstream e;
      e << ", \"gemm\": {\"m\": " << out_c << ", \"fan_in\": " << fan_in
        << ", \"patch\": " << patch << "}, \"fwd_gflops\": "
        << num(gemm_flops / (f.median * 1e3)) << ", \"bwd_gflops\": "
        << num((dx ? 2 : 1) * gemm_flops / (b.median * 1e3))
        << ", \"gemm_fwd_gflops\": "
        << num(gemm_gflops(Variant::kNN, out_c, patch, fan_in, gemm_ms))
        << ", \"gemm_wgrad_gflops\": "
        << num(gemm_gflops(Variant::kNT, out_c, fan_in, patch, gemm_ms));
      if (dx) {
        e << ", \"gemm_dgrad_gflops\": "
          << num(gemm_gflops(Variant::kTN, fan_in, patch, out_c, gemm_ms));
      }
      extra = e.str();
    }
    row(i == 0, std::to_string(i) + "." + layer.name(), f, b, extra);
  }
  row(false, "loss", spread(t.loss), Spread{}, "");
  row(false, "sgd", spread(t.sgd), Spread{}, "");
  json << "\n     ]}";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  fedsu::util::Flags flags;
  flags.add_string("out", "BENCH_train.json", "output JSON path")
      .add_bool("smoke", false,
                "CI mode: a few steps, correctness + schema only");
  try {
    if (!flags.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    const std::string what = e.what();  // an unknown flag appends the usage
    std::fprintf(stderr, "bench_train_step: %s (see --help)\n",
                 what.substr(0, what.find('\n')).c_str());
    return 2;
  }
  const bool smoke = flags.get_bool("smoke");
  const int steps = smoke ? 3 : 200;
  const double gemm_ms = smoke ? 1.0 : 50.0;
  const Case cases[] = {
      {"emnist", 16}, {"emnist", 8}, {"fmnist", 16}, {"cifar", 16}};

  std::ostringstream models;
  bool ok = true;
  std::string error;
  // Two chunks: chunk 0 runs on this thread flagged as a pool task (the
  // other chunk is empty), so nothing inside it fans out.
  fedsu::util::ThreadPool::global().parallel_for(
      0, 2,
      [&](std::size_t begin, std::size_t) {
        if (begin != 0) return;
        try {
          for (const Case& c : cases) {
            if (&c != cases) models << ",\n";
            ok = run_case(c, steps, gemm_ms, models) && ok;
          }
        } catch (const std::exception& e) {
          error = e.what();
        }
      },
      1);
  if (!error.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    return 1;
  }

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"train_step\",\n  \"threads\": 1,\n"
      << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": "
      << fedsu::obs::json_quote(fedsu::tensor::gemm::isa_name()) << "},\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"steps\": " << steps << ",\n"
      << "  \"time_unit\": \"us\",\n"
      << "  \"models\": [\n" << models.str() << "\n  ]\n}\n";

  // Schema self-check before anything is written.
  try {
    const fedsu::obs::JsonValue parsed = fedsu::obs::json_parse(doc.str());
    const auto& list = parsed.at("models").as_array();
    if (list.size() != std::size(cases)) throw std::runtime_error("models");
    for (const auto& m : list) {
      m.at("arch").as_string();
      m.at("step_us").as_number();
      for (const auto& layer : m.at("layers").as_array()) {
        layer.at("name").as_string();
        for (const char* key : {"fwd_us", "fwd_mad_us", "bwd_us",
                                "bwd_mad_us", "share"}) {
          if (!std::isfinite(layer.at(key).as_number())) {
            throw std::runtime_error(std::string("non-finite ") + key);
          }
        }
      }
    }
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
  return ok ? 0 : 1;
}
