#include "core/fedsu_variants.h"

#include <array>
#include <stdexcept>

#include "io/serialize.h"
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
    std::span<const float> global,
    const std::vector<std::span<const float>>& client_states,
    const std::vector<std::uint8_t>& predictable,
    const std::vector<float>& slope) {
  const std::size_t p = global.size();
  FixedPeriodRound out;
  out.new_global.assign(global.begin(), global.end());
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

// 0xFED5B1xx: the variants' snapshots (mask, slopes, remaining periods,
// then each variant's own diagnosis state).
constexpr std::uint32_t kFedSuV1SnapshotMagic = 0xFED5'B101;
constexpr std::uint32_t kFedSuV2SnapshotMagic = 0xFED5'B102;
}  // namespace

FedSuV1::FedSuV1(FedSuV1Options options) : options_(options) {
  if (options_.fixed_period < 1) {
    throw std::invalid_argument("FedSuV1: fixed_period must be >= 1");
  }
}

void FedSuV1::initialize(std::span<const float> global_state) {
  const std::size_t p = global_state.size();
  OscillationOptions osc_options;
  osc_options.ema_decay = options_.ema_decay;
  osc_options.warmup = options_.warmup;
  osc_ = OscillationTracker(p, osc_options);
  predictable_.assign(p, 0);
  slope_.assign(p, 0.0f);
  remaining_.assign(p, 0);
}

compress::SyncResult FedSuV1::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  const std::size_t p = predictable_.size();
  compress::check_sync_inputs(name(), ctx, client_states, p, true);
  auto round =
      run_fixed_period_round(ctx.global, client_states, predictable_, slope_);

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
    const float g_new = round.new_global[j] - ctx.global[j];
    const double r = osc_.observe(j, g_new);
    if (osc_.ready(j) && r < options_.t_r) {
      predictable_[j] = 1;
      slope_[j] = g_new;
      remaining_[j] = options_.fixed_period;
    }
  }
  return make_result(std::move(round), p, client_states.size(), last_ratio_);
}

std::vector<std::uint8_t> FedSuV1::snapshot() const {
  io::BinaryWriter writer;
  writer.write_magic(kFedSuV1SnapshotMagic);
  writer.write_vector(predictable_);
  writer.write_vector(slope_);
  writer.write_vector(remaining_);
  osc_.serialize(writer);
  return writer.take();
}

void FedSuV1::restore(const std::vector<std::uint8_t>& bytes) {
  io::BinaryReader reader(bytes);
  reader.expect_magic(kFedSuV1SnapshotMagic, "FedSU-v1 snapshot");
  const std::size_t p = predictable_.size();
  auto predictable = reader.read_vector<std::uint8_t>(p);
  auto slope = reader.read_vector<float>(p);
  auto remaining = reader.read_vector<std::int32_t>(p);
  OscillationTracker osc(0);
  osc.deserialize(reader);
  if (osc.size() != p || !reader.at_end()) {
    throw std::runtime_error("FedSU-v1 snapshot: inconsistent tracker");
  }
  predictable_ = std::move(predictable);
  slope_ = std::move(slope);
  remaining_ = std::move(remaining);
  osc_ = std::move(osc);
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
  const std::size_t p = global_state.size();
  has_prev_update_ = false;
  predictable_.assign(p, 0);
  slope_.assign(p, 0.0f);
  remaining_.assign(p, 0);
}

compress::SyncResult FedSuV2::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  const std::size_t p = predictable_.size();
  compress::check_sync_inputs(name(), ctx, client_states, p, true);
  auto round =
      run_fixed_period_round(ctx.global, client_states, predictable_, slope_);

  for (std::size_t j = 0; j < p; ++j) {
    if (predictable_[j] && --remaining_[j] <= 0) predictable_[j] = 0;
  }
  // Random speculation entry: no diagnosis at all. Requires one observed
  // update so a slope exists.
  for (std::size_t j = 0; j < p; ++j) {
    if (predictable_[j]) continue;
    if (has_prev_update_ && rng_.bernoulli(options_.enter_probability)) {
      predictable_[j] = 1;
      slope_[j] = round.new_global[j] - ctx.global[j];
      remaining_[j] = options_.fixed_period;
    }
  }
  has_prev_update_ = true;
  return make_result(std::move(round), p, client_states.size(), last_ratio_);
}

std::vector<std::uint8_t> FedSuV2::snapshot() const {
  io::BinaryWriter writer;
  writer.write_magic(kFedSuV2SnapshotMagic);
  writer.write_vector(predictable_);
  writer.write_vector(slope_);
  writer.write_vector(remaining_);
  writer.write_bool(has_prev_update_);
  for (const std::uint64_t w : rng_.state_words()) writer.write_u64(w);
  return writer.take();
}

void FedSuV2::restore(const std::vector<std::uint8_t>& bytes) {
  io::BinaryReader reader(bytes);
  reader.expect_magic(kFedSuV2SnapshotMagic, "FedSU-v2 snapshot");
  const std::size_t p = predictable_.size();
  auto predictable = reader.read_vector<std::uint8_t>(p);
  auto slope = reader.read_vector<float>(p);
  auto remaining = reader.read_vector<std::int32_t>(p);
  const bool has_prev_update = reader.read_bool();
  std::array<std::uint64_t, util::Rng::kStateWords> words{};
  for (auto& w : words) w = reader.read_u64();
  if (!reader.at_end()) {
    throw std::runtime_error("FedSU-v2 snapshot: trailing bytes");
  }
  predictable_ = std::move(predictable);
  slope_ = std::move(slope);
  remaining_ = std::move(remaining);
  has_prev_update_ = has_prev_update;
  rng_.restore_state_words(words);
}

double FedSuV2::predictable_fraction() const { return fraction_of(predictable_); }

}  // namespace fedsu::core
