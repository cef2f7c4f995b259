// The bench harness: one implementation of each job the benches share —
// timing (measure, stats_of), a synthetic cohort for protocol benches
// (SyntheticCohort) and checked JSON output (write_json).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/protocol.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fedsu::bench {

// --- timing --------------------------------------------------------------

// Median and median absolute deviation, in the samples' unit.
struct Stats {
  double median = 0.0, mad = 0.0;
};

// Statistics over samples the caller collected; zeros when there are none.
inline Stats stats_of(std::vector<double> samples) {
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
  };
  Stats s;
  if (samples.empty()) return s;
  s.median = median(samples);
  for (double& x : samples) x = std::fabs(x - s.median);
  s.mad = median(samples);
  return s;
}

// Samples per measured function, and the least time one sample lasts: long
// enough that the clock's resolution and read cost vanish in it. --smoke
// benches shorten the samples, not their count.
inline constexpr int kSamples = 15;
inline constexpr double kSampleSeconds = 5e-3;
inline constexpr double kSmokeSampleSeconds = 2e-4;

// Per-call seconds of each function. Each gets one warm-up call and a batch
// size calibrated to fill a sample; then the samples go round-robin, sample
// k of every function before sample k + 1 of any, so a slow phase of a
// shared host lands on a few samples of each function rather than on all
// samples of one. Whatever a function computes must leave the call (a
// buffer, a checksum the bench prints), or the compiler may drop the work.
inline std::vector<Stats> measure(
    const std::vector<std::function<void()>>& fns, bool smoke = false) {
  const double sample_s = smoke ? kSmokeSampleSeconds : kSampleSeconds;
  const auto batch = [](const std::function<void()>& fn, long reps) {
    util::Stopwatch sw;
    for (long r = 0; r < reps; ++r) fn();
    return sw.elapsed_seconds();
  };
  std::vector<long> reps(fns.size(), 1);
  for (std::size_t f = 0; f < fns.size(); ++f) {
    fns[f]();  // warm-up: buffers paged in, caches and predictors trained
    for (double s = batch(fns[f], reps[f]); s < sample_s;
         s = batch(fns[f], reps[f])) {
      reps[f] = s * 16 < sample_s
                    ? reps[f] * 16
                    : static_cast<long>(reps[f] * sample_s / s) + 1;
    }
  }
  std::vector<std::vector<double>> per_call(fns.size(),
                                            std::vector<double>(kSamples));
  for (int k = 0; k < kSamples; ++k) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      per_call[f][k] = batch(fns[f], reps[f]) / static_cast<double>(reps[f]);
    }
  }
  std::vector<Stats> stats;
  for (auto& samples : per_call) stats.push_back(stats_of(std::move(samples)));
  return stats;
}

// One function alone.
inline Stats measure(const std::function<void()>& fn, bool smoke = false) {
  return measure(std::vector<std::function<void()>>{fn}, smoke)[0];
}

// Runs fn on the calling thread as one task of the global pool, as a
// simulated client's local training runs: kernels inside never fan out.
inline void run_as_pool_task(const std::function<void()>& fn) {
  util::ThreadPool::global().parallel_for(
      0, 2, [&](std::size_t begin, std::size_t) { if (begin == 0) fn(); }, 1);
}

// --- synthetic cohort ----------------------------------------------------

// Rounds a SyntheticCohort runs untimed before the ones it reports. At the
// bench thresholds (protocol_config defaults) FedSU speculates on half its
// parameters by round 7 of this cohort, on three quarters at round 10 and
// on over 0.9 from round 14, so reported rounds see it in the regime it
// exists for.
inline constexpr int kCohortWarmupRounds = 10;

// One reported round.
struct CohortRound {
  const compress::SyncResult& result;
  double sync_ms = 0.0;  // host time of the synchronize() call
  // Span time per name the round recorded (empty unless tracing).
  std::map<std::string, double> span_ms;
};

// Client states without training: each client uploads the global model
// plus a per-parameter linear drift fixed for the cohort plus
// per-(round, client) uniform noise. Every stream is forked from the
// cohort's Rng by counter (fork(0) the drift, fork(r + 1) round r), so a
// round is a pure function of the seed, whatever the thread count.
class SyntheticCohort {
 public:
  SyntheticCohort(std::vector<float> init, std::size_t clients,
                  const util::Rng& rng)
      : init_(std::move(init)), rng_(rng), drift_(init_.size()),
        states_(clients * init_.size()), views_(clients) {
    util::Rng r = rng_.fork(0);
    for (float& d : drift_) {
      d = static_cast<float>(0.01 * (r.uniform() * 2.0 - 1.0));
    }
    for (std::size_t i = 0; i < clients; ++i) {
      views_[i] = {states_.data() + i * init_.size(), init_.size()};
      ctx_.participants.push_back(static_cast<int>(i));
    }
  }

  // Initializes `protocol` with the cohort's initial state, runs
  // kCohortWarmupRounds untimed rounds, then `rounds` reported ones, each
  // passed to on_round. State generation is never inside a sync time.
  void run(compress::SyncProtocol& protocol, int rounds,
           const std::function<void(const CohortRound&)>& on_round) {
    protocol.initialize(init_);
    std::vector<float> global = init_;
    for (int r = 0; r < kCohortWarmupRounds + rounds; ++r) {
      generate(r, global);
      const bool reported = r >= kCohortWarmupRounds;
      const bool traced = reported && obs::level() == obs::Level::kTrace;
      std::vector<obs::PhaseTotal> before;
      if (traced) before = obs::Tracer::global().aggregate();
      ctx_.round = r;
      ctx_.global = global;
      util::Stopwatch wall;
      compress::SyncResult result = protocol.synchronize(ctx_, views_);
      CohortRound round{result, wall.elapsed_ms(), {}};
      if (traced) round.span_ms = span_ms_since(before);
      if (reported) on_round(round);
      global = std::move(result.new_global);
    }
  }

 private:
  void generate(int round, const std::vector<float>& global) {
    const util::Rng round_rng = rng_.fork(round + 1);
    const std::size_t p = init_.size();
    util::ThreadPool::global().parallel_for(
        0, views_.size(), [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            util::Rng r = round_rng.fork(i + 1);
            float* row = states_.data() + i * p;
            for (std::size_t j = 0; j < p; ++j) {
              row[j] = global[j] + drift_[j] +
                       static_cast<float>(0.002 * (r.uniform() * 2.0 - 1.0));
            }
          }
        });
  }

  // Span time per name recorded since `before`, an earlier aggregate();
  // the tracer itself is left whole for --trace-out.
  static std::map<std::string, double> span_ms_since(
      const std::vector<obs::PhaseTotal>& before) {
    std::map<std::string, double> out;
    for (const obs::PhaseTotal& now : obs::Tracer::global().aggregate()) {
      const auto earlier = std::find_if(
          before.begin(), before.end(),
          [&](const obs::PhaseTotal& b) { return b.name == now.name; });
      if (earlier == before.end() || earlier->count != now.count) {
        out[now.name] = now.total_ms -
                        (earlier == before.end() ? 0.0 : earlier->total_ms);
      }
    }
    return out;
  }

  std::vector<float> init_;
  util::Rng rng_;
  std::vector<float> drift_;
  std::vector<float> states_;  // clients x params, row per client
  std::vector<std::span<const float>> views_;
  compress::RoundContext ctx_;
};

// --- output --------------------------------------------------------------

// Writes `doc` to `path` once it parses and `check` (the bench's key
// checks; it throws on a missing or malformed key) accepts it. Throws on
// any failure, leaving an existing file at `path` untouched when the
// document is rejected.
inline void write_json(
    const std::string& doc, const std::string& path,
    const std::function<void(const obs::JsonValue&)>& check) {
  try {
    check(obs::json_parse(doc));
  } catch (const std::exception& e) {
    throw std::runtime_error(
        std::string("emitted JSON failed schema check: ") + e.what());
  }
  std::ofstream out(path);
  out << doc;
  out.close();
  if (!out) throw std::runtime_error("could not write " + path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace fedsu::bench
