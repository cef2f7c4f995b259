// Table II: computation and memory overheads of FedSU.
//
// Computation inflation: wall time of FedSU's synchronize() bookkeeping
// (linearity diagnosis + error feedback) compared against plain FedAvg
// aggregation over the same state, and against the round's local-training
// compute. Memory inflation: FedSuManager state vs model size.
//
// Timing comes from the obs scoped-span tracer: the protocols' own
// "core.fedsu.sync" / "compress.fedavg.sync" spans (plus FedSU's per-pass
// sub-spans for the breakdown), so the bench measures exactly what a traced
// production run would report instead of keeping bespoke stopwatch code.
//
// Paper shape to reproduce: both inflations are small — computation time
// inflation in the low single-digit percents of a round, memory inflation
// bounded by a few copies of the model (the paper reports <= 2.15% compute
// and <= 8.27% memory on its workloads).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "compress/fedavg.h"
#include "core/fedsu_manager.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "nn/zoo.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/rng.h"

using namespace fedsu;

namespace {

struct ModelCase {
  const char* name;
  const char* dataset;
  int scaled_image;
};

constexpr ModelCase kCases[] = {
    {"cnn", "emnist", 28},
    {"resnet", "fmnist", 14},
    {"densenet", "cifar", 16},
};

std::size_t state_size_of(const ModelCase& c) {
  nn::ModelSpec spec = nn::paper_spec(c.dataset);
  spec.image_size = c.scaled_image;
  nn::Model model = nn::build_model(spec, util::Rng(1));
  return model.state_size();
}

// Total wall time the tracer recorded under `name` since the last reset.
double span_total_ms(const char* name) {
  for (const obs::PhaseTotal& t : obs::Tracer::global().aggregate()) {
    if (t.name == name) return t.total_ms;
  }
  return 0.0;
}

// Drives `proto` through synthetic rounds of the given state size.
template <typename Proto>
void run_sync_rounds(benchmark::State& state, Proto& proto, std::size_t p,
                     int clients) {
  std::vector<float> global(p, 0.0f);
  proto.initialize(global);
  util::Rng rng(7);
  std::vector<std::vector<float>> states(
      static_cast<std::size_t>(clients), std::vector<float>(p));
  compress::RoundContext ctx;
  for (int i = 0; i < clients; ++i) ctx.participants.push_back(i);
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& s : states) {
      for (std::size_t j = 0; j < p; ++j) {
        s[j] = global[j] + 0.01f + 0.001f * static_cast<float>(rng.normal());
      }
    }
    std::vector<std::span<const float>> views(states.begin(), states.end());
    ctx.round = round++;
    ctx.global = global;
    state.ResumeTiming();
    auto result = proto.synchronize(ctx, views);
    benchmark::DoNotOptimize(result.new_global.data());
    state.PauseTiming();
    global = std::move(result.new_global);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(p));
}

void BM_FedAvgSync(benchmark::State& state) {
  const ModelCase& c = kCases[state.range(0)];
  const std::size_t p = state_size_of(c);
  compress::FedAvg proto;
  run_sync_rounds(state, proto, p, 8);
  state.SetLabel(c.name);
}
BENCHMARK(BM_FedAvgSync)->Arg(0)->Arg(1)->Arg(2);

void BM_FedSuSync(benchmark::State& state) {
  const ModelCase& c = kCases[state.range(0)];
  const std::size_t p = state_size_of(c);
  core::FedSuManager proto(8);
  run_sync_rounds(state, proto, p, 8);
  state.SetLabel(c.name);
}
BENCHMARK(BM_FedSuSync)->Arg(0)->Arg(1)->Arg(2);

void print_overhead_table() {
  // The table reads every duration from the span tracer.
  obs::set_level(obs::Level::kTrace);
  std::printf("\n=== Table II: FedSU computation & memory overheads ===\n");
  std::printf("%-10s %16s %16s %14s %16s %14s\n", "Model", "FedAvg sync (ms)",
              "FedSU sync (ms)", "Inflation (ms)", "vs round compute",
              "Memory infl.");
  for (const auto& c : kCases) {
    const std::size_t p = state_size_of(c);
    const int clients = 8;
    // Best-of-7 span totals; each rep resets the tracer so its aggregate
    // holds exactly one synchronize() call.
    auto time_proto = [&](compress::SyncProtocol& proto,
                          const char* span_name) {
      std::vector<float> global(p, 0.0f);
      proto.initialize(global);
      util::Rng rng(7);
      std::vector<std::vector<float>> states(
          static_cast<std::size_t>(clients), std::vector<float>(p));
      compress::RoundContext ctx;
      for (int i = 0; i < clients; ++i) ctx.participants.push_back(i);
      double best = 1e18;
      for (int rep = 0; rep < 7; ++rep) {
        for (auto& s : states) {
          for (std::size_t j = 0; j < p; ++j) {
            s[j] = global[j] + 0.01f +
                   0.001f * static_cast<float>(rng.normal());
          }
        }
        std::vector<std::span<const float>> views(states.begin(), states.end());
        ctx.round = rep;
        ctx.global = global;
        obs::Tracer::global().reset();
        auto result = proto.synchronize(ctx, views);
        best = std::min(best, span_total_ms(span_name));
        global = std::move(result.new_global);
      }
      return best;
    };
    compress::FedAvg fedavg;
    core::FedSuManager fedsu(clients);
    const double fedavg_ms = time_proto(fedavg, "compress.fedavg.sync");
    const double fedsu_ms = time_proto(fedsu, "core.fedsu.sync");
    // The last FedSU rep's sub-spans are still in the tracer: the per-pass
    // split of one synchronize() call.
    const double speculate_ms = span_total_ms("core.fedsu.speculate");
    const double feedback_ms = span_total_ms("core.fedsu.feedback");
    const double diagnosis_ms = span_total_ms("core.fedsu.diagnosis");
    const double inflation_ms = std::max(0.0, fedsu_ms - fedavg_ms);

    // Round compute reference: host wall time of one client's local round
    // (10 iterations x batch 16) — the same tracer clock the sync inflation
    // was measured on, so the ratio is apples-to-apples.
    nn::ModelSpec spec = nn::paper_spec(c.dataset);
    spec.image_size = c.scaled_image;
    nn::Model model = nn::build_model(spec, util::Rng(1));
    nn::Sgd sgd(model.parameters(), {.learning_rate = 0.01f});
    nn::SoftmaxCrossEntropy loss;
    util::Rng data_rng(5);
    tensor::Tensor batch({16, spec.in_channels, spec.image_size,
                          spec.image_size});
    for (std::size_t j = 0; j < batch.size(); ++j) {
      batch[j] = static_cast<float>(data_rng.normal());
    }
    std::vector<int> labels(16);
    for (auto& y : labels) {
      y = static_cast<int>(data_rng.uniform_index(10));
    }
    obs::Tracer::global().reset();
    {
      OBS_SPAN("bench.local_train");
      for (int it = 0; it < 10; ++it) {
        model.zero_grads();
        loss.forward(model.forward(batch, true), labels);
        model.backward(loss.backward());
        sgd.step();
      }
    }
    const double round_compute_ms = span_total_ms("bench.local_train");
    const double compute_inflation = inflation_ms / round_compute_ms * 100.0;

    std::vector<float> global(p, 0.0f);
    core::FedSuManager fresh(clients);
    fresh.initialize(global);
    const double model_bytes = static_cast<double>(p) * sizeof(float);
    const double memory_inflation =
        static_cast<double>(fresh.state_bytes()) / model_bytes;

    std::printf("%-10s %16.3f %16.3f %14.3f %15.2f%% %13.2fx\n", c.name,
                fedavg_ms, fedsu_ms, inflation_ms, compute_inflation,
                memory_inflation);
    std::printf("%-10s   per-pass split: speculate %.3f ms, feedback %.3f ms, "
                "diagnosis %.3f ms\n", "", speculate_ms, feedback_ms,
                diagnosis_ms);
  }
  std::printf("(memory inflation is FedSU manager state relative to one model "
              "copy; the model itself is a small share of device memory)\n");
  obs::set_level(obs::Level::kOff);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_overhead_table();
  return 0;
}
