// Workload runner of the repository benchmark (perfbench/README.md).
//
// Drives one named workload through the public API for a wall-clock budget
// and prints one JSON document of raw samples on stdout: per pass, its
// set-up time and every round's host time, simulated quantities and (in
// traced passes) span totals. perfbench/run.py turns the document into
// metrics and runs the output checks; this file measures and nothing else.
//
// Closed loop: a pass builds the system, runs `warmup` untimed rounds, then
// `timed` rounds, each starting when the previous one returned. Passes
// repeat until the budget is spent, so every pass replays the identical
// deterministic trajectory and only host times differ between them.
//
// Usage: perfbench_runner --workload NAME --seed N --budget-s S
//                         [--trace 0|1] [--threads T] [--quick 0|1]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "compress/protocol.h"
#include "compress/wire.h"
#include "core/fedsu_manager.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "net/network_model.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "nn/zoo.h"
#include "obs/memory.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

// --- operator-new counter (nn.allocs_per_step) -----------------------------
// Counting is switched on only around the replayed training steps, so every
// other allocation pays one relaxed load.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc();
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

namespace {

using namespace fedsu;

// --- JSON emission ----------------------------------------------------------
class JsonWriter {
 public:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  JsonWriter& key(std::string_view k) {
    comma();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  JsonWriter& num(double v) {
    comma();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  JsonWriter& boolean(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& str(std::string_view s) {
    comma();
    out_ += '"';
    out_ += s;
    out_ += '"';
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// --- workloads ----------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double budget_s = 10.0;
  bool trace = false;
  int threads = 4;
  bool quick = false;  // one pass per mode, no sample-count floor
};

enum class Kind { kSimulation, kProtocolOnly };

struct Workload {
  const char* name;
  Kind kind;
  int warmup;           // untimed rounds, charged to set-up
  int timed;            // rounds in the timed window
  int snapshot_every;   // Simulation::snapshot_state() cadence (0 = never)
  int probe_batch;      // batch of the replayed training step
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"train-cnn16", Kind::kSimulation, 5, 40, 0, 16},
    {"sync-fedsu256", Kind::kProtocolOnly, 30, 60, 0, 16},
    {"async-churn128", Kind::kSimulation, 10, 30, 10, 8},
};

// Timed rounds a full run pools at least per mode, so that the p90 has ten
// samples beyond it.
constexpr int kMinSamples = 100;

// FedSU at the bench defaults (EXPERIMENTS.md "Threshold scaling").
fl::ProtocolConfig protocol_config(const std::string& name, int clients) {
  fl::ProtocolConfig pc;
  pc.name = name;
  pc.num_clients = clients;
  pc.fedsu.t_r = 0.05;
  pc.fedsu.t_s = 2.0;
  pc.fedsu.initial_no_check = 2;
  return pc;
}

// The paper CNN on synthetic EMNIST with the bench network (0.1 Mbps links).
fl::SimulationOptions simulation_options(const Workload& w,
                                         const Options& o) {
  fl::SimulationOptions s;
  s.model = nn::paper_spec("emnist");
  s.dataset = data::synthetic_preset("emnist");
  s.dataset.noise = 1.0f;
  s.dataset.label_noise = 0.05f;
  s.dataset.seed = o.seed ^ 0x51ed;
  s.dirichlet_alpha = 1.0;
  s.local.learning_rate = 0.03f;
  s.local.weight_decay = 1e-3f;
  s.network.client_bandwidth_bps = 0.1e6;
  s.network.seed = o.seed ^ 0xbeef;
  s.seed = o.seed;
  s.threads = o.threads;
  if (std::string_view(w.name) == "train-cnn16") {
    s.num_clients = 16;
    // ~300 samples per client keep partial batches, and so the work per
    // round, nearly independent of the seed's partition.
    s.dataset.train_count = 4800;
    s.dataset.test_count = 400;
    s.local.iterations = 10;
    s.local.batch_size = 16;
    s.participation_fraction = 0.7;
    s.timing = fl::TimingModel::kCoarse;
    s.eval_every = 5;
  } else {
    s.num_clients = 128;
    s.dataset.train_count = 6400;
    s.dataset.test_count = 400;
    s.local.iterations = 2;
    s.local.batch_size = 8;
    s.eval_every = 0;
    s.async.enabled = true;
    s.async.buffer_k = 64;
    s.async.staleness_alpha = 0.5;
    s.faults.crash_probability = 0.05;
    s.faults.crash_rounds_max = 2;
    s.faults.straggler_probability = 0.15;
    s.faults.straggler_compute_factor = 3.0;
    s.faults.straggler_comm_factor = 3.0;
    s.faults.upload_loss_probability = 0.15;
    s.faults.max_retries = 1;
    s.faults.corruption_probability = 0.03;
  }
  return s;
}

// Training samples behind one client update (0: no training in the loop).
int samples_per_update(const Workload& w, const Options& o) {
  if (w.kind != Kind::kSimulation) return 0;
  const fl::SimulationOptions s = simulation_options(w, o);
  return s.local.iterations * s.local.batch_size;
}

std::uint32_t crc_of(std::span<const float> v) {
  return compress::wire::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes()));
}

// Span totals recorded since the last call, then cleared: one round's worth.
void write_spans(JsonWriter& j) {
  obs::Tracer& tracer = obs::Tracer::global();
  const std::vector<obs::PhaseTotal> totals = tracer.aggregate();
  tracer.reset();
  j.key("spans").open('{');
  for (const obs::PhaseTotal& t : totals) {
    j.key(t.name).open('[').num(t.total_ms).num(
        static_cast<double>(t.count)).close(']');
  }
  j.close('}');
}

void write_diagnostics(JsonWriter& j, const core::FedSuManager& fedsu) {
  const auto& d = fedsu.last_round_diagnostics();
  j.key("diag").open('{')
      .key("promotions").num(static_cast<double>(d.promotions))
      .key("demotions").num(static_cast<double>(d.demotions))
      .key("expiring").num(static_cast<double>(d.expiring))
      .key("unpredictable").num(static_cast<double>(d.unpredictable))
      .close('}');
}

void write_record(JsonWriter& j, const fl::RoundRecord& r) {
  j.key("participants").num(r.num_participants)
      .key("bytes_up").num(static_cast<double>(r.bytes_up))
      .key("bytes_down").num(static_cast<double>(r.bytes_down))
      .key("sim_s").num(r.round_time_s)
      .key("elapsed_s").num(r.elapsed_time_s)
      .key("spec").num(r.speculated_fraction)
      .key("loss").num(r.train_loss)
      .key("lost").num(r.uploads_lost);
  if (r.test_accuracy) j.key("acc").num(*r.test_accuracy);
  if (r.faults) {
    const auto& f = *r.faults;
    j.key("faults").open('{')
        .key("selected").num(f.selected)
        .key("crashed").num(f.crashed)
        .key("rejoined").num(f.rejoined)
        .key("corrupt").num(f.corrupt)
        .key("deadline_missed").num(f.deadline_missed)
        .key("unused").num(f.unused)
        .key("quorum_met").boolean(f.quorum_met)
        .close('}');
  }
  if (r.async) {
    j.key("async").open('{')
        .key("consumed").num(r.async->consumed)
        .key("inflight").num(r.async->inflight)
        .key("mean_staleness").num(r.async->mean_staleness)
        .close('}');
  }
}

void write_error_store(JsonWriter& j, const core::FedSuManager& fedsu) {
  j.key("error_store_bytes")
      .num(static_cast<double>(fedsu.error_store().resident_bytes()))
      .key("error_slabs")
      .num(static_cast<double>(fedsu.error_store().allocated_slabs()));
}

// One pass of a workload driven by fl::Simulation.
void simulation_pass(const Workload& w, const Options& o, bool traced,
                     JsonWriter& j) {
  obs::Tracer::global().reset();
  util::Stopwatch setup;
  fl::SimulationOptions options = simulation_options(w, o);
  auto protocol =
      fl::make_protocol(protocol_config("fedsu", options.num_clients));
  const auto* fedsu = dynamic_cast<const core::FedSuManager*>(protocol.get());
  if (!fedsu) throw std::logic_error("fedsu protocol is not a FedSuManager");
  fl::Simulation sim(std::move(options), std::move(protocol));

  j.key("rounds").open('[');
  double setup_s = 0.0;
  std::string error;
  for (int r = 0; r < w.warmup + w.timed; ++r) {
    const bool timed = r >= w.warmup;
    if (r == w.warmup) {
      setup_s = setup.elapsed_seconds();
      obs::Tracer::global().reset();
    }
    fl::RoundRecord rec;
    double step_ms = 0.0, snapshot_ms = 0.0, snapshot_bytes = 0.0;
    util::Stopwatch wall;
    try {
      rec = sim.step();
      step_ms = wall.elapsed_ms();
      if (w.snapshot_every > 0 &&
          sim.rounds_completed() % w.snapshot_every == 0) {
        util::Stopwatch snap;
        snapshot_bytes = static_cast<double>(sim.snapshot_state().size());
        snapshot_ms = snap.elapsed_ms();
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double wall_ms = wall.elapsed_ms();
    j.open('{').key("timed").boolean(timed).key("wall_ms").num(wall_ms)
        .key("step_ms").num(step_ms);
    if (!error.empty()) {
      j.key("threw").boolean(true).close('}');
      break;
    }
    write_record(j, rec);
    if (snapshot_bytes > 0) {
      j.key("snapshot_ms").num(snapshot_ms)
          .key("snapshot_bytes").num(snapshot_bytes);
    }
    write_diagnostics(j, *fedsu);
    if (traced && timed) write_spans(j);
    j.close('}');
  }
  j.close(']');
  if (!error.empty()) {
    j.key("error").str("step threw");
    std::fprintf(stderr, "runner: %s round threw: %s\n", w.name, error.c_str());
  }
  j.key("setup_s").num(setup_s)
      .key("crc32").num(crc_of(sim.global_state()))
      .key("final_accuracy").num(sim.evaluate());
  write_error_store(j, *fedsu);
}

// One pass of the protocol-only workload: a synthetic cohort of CNN-sized
// states (per-parameter linear drift plus per-(round, client) noise, the
// bench_comm generator) synchronized by FedSU and, on the identical cohort,
// by the FedAvg reference. Cohort generation stays outside the timers.
void protocol_pass(const Workload& w, const Options& o, bool traced,
                   JsonWriter& j) {
  constexpr int kClients = 256;
  obs::Tracer::global().reset();
  util::Stopwatch setup;
  nn::ModelSpec spec = nn::paper_spec("emnist");
  const std::vector<float> init =
      nn::build_model(spec, util::Rng(o.seed)).state_vector();
  const std::size_t p = init.size();
  const std::size_t n = kClients;

  const util::Rng base = util::Rng(o.seed).fork(0x5c);
  std::vector<float> drift(p);
  {
    util::Rng r = base.fork(0);
    for (float& d : drift) d = static_cast<float>(0.01 * (r.uniform() * 2.0 - 1.0));
  }
  std::vector<float> states(n * p);
  std::vector<std::span<const float>> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    views[i] = std::span<const float>(states.data() + i * p, p);
  }
  compress::RoundContext ctx;
  for (int i = 0; i < kClients; ++i) ctx.participants.push_back(i);

  auto protocol = fl::make_protocol(protocol_config("fedsu", kClients));
  auto* fedsu = dynamic_cast<core::FedSuManager*>(protocol.get());
  if (!fedsu) throw std::logic_error("fedsu protocol is not a FedSuManager");
  auto fedavg = fl::make_protocol(protocol_config("fedavg", kClients));
  fedsu->initialize(init);
  fedavg->initialize(init);
  net::NetworkOptions net_options;
  net_options.client_bandwidth_bps = 0.1e6;
  net_options.seed = o.seed ^ 0xbeef;
  const net::NetworkModel network(kClients, net_options);

  std::vector<float> global = init;
  std::vector<float> reference;
  util::ThreadPool& pool = util::ThreadPool::global();
  j.key("rounds").open('[');
  double setup_s = 0.0;
  for (int r = 0; r < w.warmup + w.timed; ++r) {
    const bool timed = r >= w.warmup;
    const util::Rng round_rng = base.fork(static_cast<std::uint64_t>(r) + 1);
    auto generate = [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        util::Rng rng = round_rng.fork(i + 1);
        float* row = states.data() + i * p;
        for (std::size_t k = 0; k < p; ++k) {
          row[k] = global[k] + drift[k] +
                   static_cast<float>(0.002 * (rng.uniform() * 2.0 - 1.0));
        }
      }
    };
    pool.parallel_for(0, n, generate);
    if (r == w.warmup) {
      setup_s = setup.elapsed_seconds();
      obs::Tracer::global().reset();
    }
    ctx.round = r;
    util::Stopwatch wall;
    compress::SyncResult result = fedsu->synchronize(ctx, views);
    const double wall_ms = wall.elapsed_ms();
    util::Stopwatch ref_wall;
    compress::SyncResult ref = fedavg->synchronize(ctx, views);
    const double fedavg_ms = ref_wall.elapsed_ms();

    double bytes_up = 0, bytes_down = 0, ref_up = 0, ref_down = 0, sim_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      bytes_up += static_cast<double>(result.bytes_up[i]);
      bytes_down += static_cast<double>(result.bytes_down[i]);
      ref_up += static_cast<double>(ref.bytes_up[i]);
      ref_down += static_cast<double>(ref.bytes_down[i]);
      // Simulated transfer time of the round: the slowest client's
      // upload plus download over the bench network.
      sim_s = std::max(sim_s, network.comm_time(static_cast<int>(i),
                                                result.bytes_up[i],
                                                result.bytes_down[i],
                                                kClients));
    }
    global = std::move(result.new_global);
    reference = std::move(ref.new_global);

    j.open('{').key("timed").boolean(timed).key("wall_ms").num(wall_ms)
        .key("fedavg_ms").num(fedavg_ms)
        .key("participants").num(kClients)
        .key("bytes_up").num(bytes_up).key("bytes_down").num(bytes_down)
        .key("fedavg_bytes_up").num(ref_up)
        .key("fedavg_bytes_down").num(ref_down)
        .key("sim_s").num(sim_s)
        .key("spec").num(fedsu->last_round_telemetry().speculated_fraction);
    write_diagnostics(j, *fedsu);
    if (traced && timed) write_spans(j);
    j.close('}');
  }
  j.close(']');
  j.key("setup_s").num(setup_s)
      .key("crc32").num(crc_of(global))
      .key("fedavg_crc32").num(crc_of(reference));
  write_error_store(j, *fedsu);
}

// --- layer probes (traced runs only) -----------------------------------------

// Replays Client::train_round's loop through public calls on the workload's
// model and batch, timing each phase per step. It runs as a single pool
// task, so its kernels stay on one thread exactly as a training worker's do.
void nn_probe(const Workload& w, const Options& o, JsonWriter& j) {
  constexpr int kWarmupSteps = 20;
  constexpr double kMeasureS = 1.0;
  constexpr int kMaxSteps = 400;
  nn::ModelSpec spec = nn::paper_spec("emnist");
  nn::Model model = nn::build_model(spec, util::Rng(o.seed));
  data::SyntheticSpec ds = data::synthetic_preset("emnist");
  ds.train_count = 512;
  ds.test_count = 1;
  ds.noise = 1.0f;
  ds.seed = o.seed ^ 0x51ed;
  const auto train = std::make_shared<const data::Dataset>(
      data::generate_synthetic(ds).train);
  const data::DatasetView view = data::DatasetView::all_of(train);
  data::BatchLoader loader(view, w.probe_batch, util::Rng(o.seed).fork(7));
  nn::SgdOptions sgd_options;
  sgd_options.learning_rate = 0.03f;
  sgd_options.weight_decay = 1e-3f;
  nn::Sgd sgd(model.parameters(), sgd_options);
  nn::SoftmaxCrossEntropy loss;

  std::vector<double> batch_ms, fwd_ms, loss_ms, bwd_ms, sgd_ms, step_ms;
  std::uint64_t allocs = 0;
  util::ThreadPool::global().parallel_for(0, 1, [&](std::size_t, std::size_t) {
    tensor::Tensor batch;
    std::vector<int> labels;
    util::Stopwatch budget;
    for (int s = 0; s < kWarmupSteps + kMaxSteps; ++s) {
      const bool measured = s >= kWarmupSteps;
      if (s == kWarmupSteps) {
        budget.reset();
        g_allocs.store(0, std::memory_order_relaxed);
        g_count_allocs.store(true, std::memory_order_relaxed);
      }
      if (measured && budget.elapsed_seconds() >= kMeasureS) break;
      util::Stopwatch sw;
      loader.next(batch, labels);
      const double t_batch = sw.lap();
      model.zero_grads();
      const tensor::Tensor logits = model.forward(batch, /*train=*/true);
      const double t_fwd = sw.lap();
      const float value = loss.forward(logits, labels);
      const double t_loss = sw.lap();
      model.backward(loss.backward());
      const double t_bwd = sw.lap();
      sgd.step();
      const double t_sgd = sw.lap();
      if (!std::isfinite(value)) throw std::runtime_error("probe loss diverged");
      if (!measured) continue;
      batch_ms.push_back(t_batch * 1e3);
      fwd_ms.push_back(t_fwd * 1e3);
      loss_ms.push_back(t_loss * 1e3);
      bwd_ms.push_back(t_bwd * 1e3);
      sgd_ms.push_back(t_sgd * 1e3);
      step_ms.push_back((t_batch + t_fwd + t_loss + t_bwd + t_sgd) * 1e3);
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    allocs = g_allocs.load(std::memory_order_relaxed);
  });

  auto series = [&](const char* name, const std::vector<double>& v) {
    j.key(name).open('[');
    for (double x : v) j.num(x);
    j.close(']');
  };
  j.key("nn").open('{');
  series("batch_ms", batch_ms);
  series("fwd_ms", fwd_ms);
  series("loss_ms", loss_ms);
  series("bwd_ms", bwd_ms);
  series("sgd_ms", sgd_ms);
  series("step_ms", step_ms);
  j.key("allocs").num(static_cast<double>(allocs))
      .key("flops_per_step").num(3.0 * spec.flops_per_sample * w.probe_batch)
      .close('}');
}

// GFLOP/s of one single-threaded GEMM shape, timed over repeated calls.
double gemm_gflops(int m, int n, int k, double min_s) {
  util::Rng rng(0x6e33);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  auto call = [&] {
    tensor::gemm::sgemm_rows(tensor::gemm::Variant::kNN, 0, m, m, n, k,
                             a.data(), b.data(), c.data(),
                             tensor::gemm::Accumulate::kOverwrite);
  };
  call();
  long calls = 0;
  util::Stopwatch sw;
  while (sw.elapsed_seconds() < min_s) {
    for (int r = 0; r < 16; ++r) call();
    calls += 16;
  }
  return 2.0 * m * n * k * static_cast<double>(calls) /
         sw.elapsed_seconds() * 1e-9;
}

void tensor_probe(JsonWriter& j) {
  // conv1 of the paper CNN: 8 filters x (24*24 output pixels) x (1*5*5).
  j.key("tensor").open('{')
      .key("conv1_gemm_gflops").num(gemm_gflops(8, 576, 25, 0.25))
      .key("gemm_peak_gflops").num(gemm_gflops(256, 256, 256, 0.25))
      .close('}');
}

// --- main -------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--budget-s") o.budget_s = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--threads") o.threads = std::stoi(value);
    else if (flag == "--quick") o.quick = value == "1";
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags come in pairs");
  if (o.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// Runs passes until the budget is spent, and at least until kMinSamples
// timed rounds are pooled per mode (unless quick). A traced run alternates
// untraced and traced passes, so drift in the host's speed over the run
// cannot masquerade as trace overhead.
void run_passes(const Workload& w, const Options& o, JsonWriter& j) {
  std::vector<bool> modes = {false};
  if (o.trace) modes.push_back(true);
  util::Stopwatch spent;
  int samples = 0;  // per mode
  double last_cycle_s = 0.0;
  do {
    util::Stopwatch cycle;
    for (const bool traced : modes) {
      obs::set_level(traced ? obs::Level::kTrace : obs::Level::kOff);
      j.open('{').key("traced").boolean(traced);
      if (w.kind == Kind::kSimulation) {
        simulation_pass(w, o, traced, j);
      } else {
        protocol_pass(w, o, traced, j);
      }
      j.close('}');
    }
    obs::set_level(obs::Level::kOff);
    samples += w.timed;
    last_cycle_s = cycle.elapsed_seconds();
    if (o.quick) break;
  } while (samples < kMinSamples ||
           spent.elapsed_seconds() + last_cycle_s <= o.budget_s);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload& w = find_workload(o.workload);
    util::ThreadPool::set_global_threads(o.threads);

    JsonWriter j;
    j.open('{').key("workload").str(w.name)
        .key("seed").num(static_cast<double>(o.seed))
        .key("threads").num(o.threads)
        .key("isa").str(tensor::gemm::isa_name())
#ifdef NDEBUG
        .key("build").str("release")
#else
        .key("build").str("debug")
#endif
        .key("warmup_rounds").num(w.warmup)
        .key("timed_rounds").num(w.timed)
        .key("samples_per_update").num(samples_per_update(w, o))
        .key("passes").open('[');
    run_passes(w, o, j);
    j.close(']');
    if (o.trace) {
      j.key("probes").open('{');
      nn_probe(w, o, j);
      tensor_probe(j);
      j.close('}');
    }
    j.key("peak_rss_bytes")
        .num(static_cast<double>(obs::sample_memory().peak_rss_bytes))
        .close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "runner: %s\n", e.what());
    return 2;
  }
}
