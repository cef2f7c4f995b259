#include "core/fedsu_variants.h"

#include <stdexcept>

#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::core {

namespace {
// Shared bookkeeping for a round under a fixed-period speculative scheme:
// synchronizes unmasked parameters, applies slopes to masked ones, and
// releases parameters whose period elapsed (without correction — both
// variants lack error feedback by construction).
struct FixedPeriodRound {
  std::size_t unpredictable_count = 0;
  std::vector<float> new_global;
};

FixedPeriodRound run_fixed_period_round(
    const std::vector<float>& global,
    const std::vector<std::span<const float>>& client_states,
    const std::vector<std::uint8_t>& predictable,
    const std::vector<float>& slope) {
  const std::size_t p = global.size();
  FixedPeriodRound out;
  out.new_global = global;
  std::vector<std::size_t> unpredictable;
  for (std::size_t j = 0; j < p; ++j) {
    if (predictable[j]) {
      out.new_global[j] = global[j] + slope[j];
    } else {
      unpredictable.push_back(j);
    }
  }
  // The unmasked columns fold in the shared block shape (DESIGN.md §5b
  // rule 5): the plain serial chain up to util::kReduceClientBlock clients.
  std::vector<double> sums(unpredictable.size());
  util::listed_column_sums(client_states, unpredictable, sums,
                           &util::ThreadPool::global());
  const double inv_n = 1.0 / static_cast<double>(client_states.size());
  for (std::size_t k = 0; k < unpredictable.size(); ++k) {
    out.new_global[unpredictable[k]] = static_cast<float>(sums[k] * inv_n);
  }
  out.unpredictable_count = unpredictable.size();
  return out;
}

compress::SyncResult make_result(FixedPeriodRound&& round, std::size_t p,
                                 std::size_t n, double& last_ratio) {
  compress::SyncResult result;
  result.new_global = std::move(round.new_global);
  const std::size_t bytes = round.unpredictable_count * sizeof(float);
  result.bytes_up.assign(n, bytes);
  result.bytes_down.assign(n, bytes);
  result.scalars_up = round.unpredictable_count * n;
  result.scalars_down = result.scalars_up;
  last_ratio = p == 0 ? 0.0
                      : 1.0 - static_cast<double>(round.unpredictable_count) /
                                  static_cast<double>(p);
  return result;
}

double fraction_of(const std::vector<std::uint8_t>& mask) {
  if (mask.empty()) return 0.0;
  std::size_t count = 0;
  for (auto m : mask) count += m;
  return static_cast<double>(count) / static_cast<double>(mask.size());
}
}  // namespace

FedSuV1::FedSuV1(FedSuV1Options options) : options_(options) {
  if (options_.fixed_period < 1) {
    throw std::invalid_argument("FedSuV1: fixed_period must be >= 1");
  }
}

void FedSuV1::initialize(std::span<const float> global_state) {
  global_.assign(global_state.begin(), global_state.end());
  OscillationOptions osc_options;
  osc_options.ema_decay = options_.ema_decay;
  osc_options.warmup = options_.warmup;
  osc_ = OscillationTracker(global_.size(), osc_options);
  predictable_.assign(global_.size(), 0);
  slope_.assign(global_.size(), 0.0f);
  remaining_.assign(global_.size(), 0);
}

compress::SyncResult FedSuV1::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  if (client_states.size() != ctx.participants.size() || client_states.empty()) {
    throw std::invalid_argument("FedSuV1: participants/state mismatch");
  }
  const std::size_t p = global_.size();
  auto round =
      run_fixed_period_round(global_, client_states, predictable_, slope_);

  // Expire fixed periods (no feedback, no correction).
  for (std::size_t j = 0; j < p; ++j) {
    if (predictable_[j] && --remaining_[j] <= 0) {
      predictable_[j] = 0;
      osc_.reset(j);
    }
  }
  // Diagnose newly-synchronized parameters.
  for (std::size_t j = 0; j < p; ++j) {
    if (predictable_[j]) continue;
    const float g_new = round.new_global[j] - global_[j];
    const double r = osc_.observe(j, g_new);
    if (osc_.ready(j) && r < options_.t_r) {
      predictable_[j] = 1;
      slope_[j] = g_new;
      remaining_[j] = options_.fixed_period;
    }
  }
  global_ = round.new_global;
  return make_result(std::move(round), p, client_states.size(), last_ratio_);
}

std::size_t FedSuV1::state_bytes() const {
  return global_.size() * sizeof(float) + osc_.state_bytes() +
         predictable_.size() + slope_.size() * sizeof(float) +
         remaining_.size() * sizeof(std::int32_t);
}

double FedSuV1::predictable_fraction() const { return fraction_of(predictable_); }

FedSuV2::FedSuV2(FedSuV2Options options)
    : options_(options), rng_(options.seed) {
  if (options_.fixed_period < 1 || options_.enter_probability < 0.0 ||
      options_.enter_probability > 1.0) {
    throw std::invalid_argument("FedSuV2: bad options");
  }
}

void FedSuV2::initialize(std::span<const float> global_state) {
  global_.assign(global_state.begin(), global_state.end());
  prev_update_.assign(global_.size(), 0.0f);
  has_prev_update_ = false;
  predictable_.assign(global_.size(), 0);
  slope_.assign(global_.size(), 0.0f);
  remaining_.assign(global_.size(), 0);
}

compress::SyncResult FedSuV2::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  if (client_states.size() != ctx.participants.size() || client_states.empty()) {
    throw std::invalid_argument("FedSuV2: participants/state mismatch");
  }
  const std::size_t p = global_.size();
  auto round =
      run_fixed_period_round(global_, client_states, predictable_, slope_);

  for (std::size_t j = 0; j < p; ++j) {
    if (predictable_[j] && --remaining_[j] <= 0) predictable_[j] = 0;
  }
  // Random speculation entry: no diagnosis at all. Requires one observed
  // update so a slope exists.
  for (std::size_t j = 0; j < p; ++j) {
    if (predictable_[j]) continue;
    const float g_new = round.new_global[j] - global_[j];
    if (has_prev_update_ && rng_.bernoulli(options_.enter_probability)) {
      predictable_[j] = 1;
      slope_[j] = g_new;
      remaining_[j] = options_.fixed_period;
    }
    prev_update_[j] = g_new;
  }
  has_prev_update_ = true;
  global_ = round.new_global;
  return make_result(std::move(round), p, client_states.size(), last_ratio_);
}

std::size_t FedSuV2::state_bytes() const {
  return global_.size() * sizeof(float) + prev_update_.size() * sizeof(float) +
         predictable_.size() + slope_.size() * sizeof(float) +
         remaining_.size() * sizeof(std::int32_t);
}

double FedSuV2::predictable_fraction() const { return fraction_of(predictable_); }

}  // namespace fedsu::core
