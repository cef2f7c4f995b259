// Extension bench (DESIGN.md §7): the regression-free second-order
// oscillation ratio (§IV-A) versus the window least-squares diagnoser the
// paper argues against. Compares (a) diagnosis quality on labeled synthetic
// trajectories, (b) per-parameter state size, (c) refresh throughput, timed
// by bench::measure.
//
// Takes no flags. Exits 1 unless the oscillation ratio classifies the
// trajectories more accurately than the window regression.
#include <cmath>
#include <cstdio>

#include "core/oscillation.h"
#include "core/regression.h"
#include "harness.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace fedsu;

namespace {

// Labeled trajectory generator: linear (slope + small noise) vs non-linear
// (quadratic, exponential decay, or regime switches).
struct Trajectory {
  std::vector<float> values;
  bool linear;
};

std::vector<Trajectory> make_trajectories(int count, int length,
                                          util::Rng& rng) {
  std::vector<Trajectory> out;
  for (int i = 0; i < count; ++i) {
    Trajectory t;
    t.linear = (i % 2 == 0);
    double v = rng.normal();
    const double slope = rng.uniform(-0.5, 0.5);
    for (int k = 0; k < length; ++k) {
      if (t.linear) {
        v += slope + 0.02 * slope * rng.normal();
      } else {
        switch (i % 6) {
          case 1:
            v += 0.01 * k;  // accelerating
            break;
          case 3:
            v = 3.0 * std::exp(-0.15 * k);  // exponential decay
            break;
          default:
            v += ((k / 6) % 2 == 0 ? slope : -slope);  // recurring regime switches
            break;
        }
      }
      t.values.push_back(static_cast<float>(v));
    }
    out.push_back(std::move(t));
  }
  return out;
}

constexpr std::size_t kRefreshParams = 100000;

}  // namespace

int run(int argc, char** argv) {
  util::Flags flags;
  if (!flags.parse(argc, argv)) return 0;

  util::Rng rng(11);
  const int count = 2000, length = 40;
  const auto trajectories = make_trajectories(count, length, rng);

  int osc_correct = 0, reg_correct = 0;
  for (const auto& t : trajectories) {
    core::OscillationTracker osc(1);
    core::RegressionOptions roptions;
    roptions.window = 8;
    roptions.residual_threshold = 0.5;
    core::RegressionDiagnoser reg(1, roptions);
    for (std::size_t k = 1; k < t.values.size(); ++k) {
      osc.observe(0, t.values[k] - t.values[k - 1]);
      reg.observe(0, t.values[k]);
    }
    const bool osc_verdict = osc.ready(0) && osc.ratio(0) < 0.1;
    if (osc_verdict == t.linear) ++osc_correct;
    if (reg.is_linear(0) == t.linear) ++reg_correct;
  }

  // Refresh throughput: parameters per second over one pass of
  // kRefreshParams. The refreshed values are summed into a checksum the
  // bench prints, so the compiler cannot drop the loops.
  util::Rng value_rng(3);
  std::vector<float> values(kRefreshParams);
  for (auto& x : values) x = static_cast<float>(value_rng.normal());
  double checksum = 0.0;
  core::OscillationTracker osc_state(kRefreshParams);
  const double osc_rate = kRefreshParams / bench::measure([&] {
    for (std::size_t j = 0; j < kRefreshParams; ++j) {
      checksum += osc_state.observe(j, values[j]);
    }
  }).median;
  core::RegressionOptions roptions;
  roptions.window = 8;
  core::RegressionDiagnoser reg_state(kRefreshParams, roptions);
  const double reg_rate = kRefreshParams / bench::measure([&] {
    for (std::size_t j = 0; j < kRefreshParams; ++j) {
      reg_state.observe(j, values[j]);
      checksum += reg_state.ready(j) ? reg_state.normalized_residual(j) : 1.0;
    }
  }).median;

  const double osc_accuracy = 100.0 * osc_correct / count;
  const double reg_accuracy = 100.0 * reg_correct / count;
  std::printf("\n=== Diagnosis ablation: oscillation ratio vs window "
              "regression ===\n");
  std::printf("%-24s %14s %20s %18s\n", "Method", "Accuracy",
              "State (bytes/param)", "Refresh (M/s)");
  std::printf("%-24s %13.1f%% %20.1f %18.1f\n", "oscillation ratio (R)",
              osc_accuracy,
              osc_state.state_bytes() / static_cast<double>(kRefreshParams),
              osc_rate / 1e6);
  std::printf("%-24s %13.1f%% %20.1f %18.1f\n", "window regression (K=8)",
              reg_accuracy,
              reg_state.state_bytes() / static_cast<double>(kRefreshParams),
              reg_rate / 1e6);
  std::printf("(refresh checksum %.6g)\n", checksum);
  if (osc_accuracy <= reg_accuracy) {
    std::fprintf(stderr,
                 "FAIL: the oscillation ratio (%.1f%%) does not classify more "
                 "accurately than the window regression (%.1f%%)\n",
                 osc_accuracy, reg_accuracy);
    return 1;
  }
  return 0;
}
