#include "compress/apf.h"

#include <cmath>
#include <stdexcept>

#include "compress/wire.h"
#include "io/serialize.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace fedsu::compress {

Apf::Apf(ApfOptions options) : options_(options) {
  if (options_.stability_threshold <= 0.0 || options_.ema_decay <= 0.0 ||
      options_.ema_decay >= 1.0) {
    throw std::invalid_argument("Apf: bad options");
  }
}

void Apf::initialize(std::span<const float> global_state) {
  const std::size_t p = global_state.size();
  ema_update_.assign(p, 0.0f);
  ema_abs_update_.assign(p, 0.0f);
  freeze_remaining_.assign(p, 0);
  freeze_period_.assign(p, 0);
  observations_.assign(p, 0);
}

SyncResult Apf::synchronize(
    const RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("compress.apf.sync");
  const std::size_t p = ema_update_.size();
  check_sync_inputs(name(), ctx, client_states, p, true);
  const std::size_t n = client_states.size();
  const float theta = static_cast<float>(options_.ema_decay);

  // The active coordinate set is fixed at round entry (the main pass below
  // decrements the frozen counters), so count it — and under payload audit
  // build the representative wire payload — up front.
  std::size_t synced = 0;
  for (std::size_t j = 0; j < p; ++j) {
    if (freeze_remaining_[j] == 0) ++synced;
  }
  const std::size_t bytes = wire::measure_dense(synced);
  if (wire::payload_audit()) {
    OBS_SPAN("compress.apf.encode");
    std::vector<float> up_values;  // client 0's unfrozen coords
    up_values.reserve(synced);
    for (std::size_t j = 0; j < p; ++j) {
      if (freeze_remaining_[j] == 0) up_values.push_back(client_states[0][j]);
    }
    wire::audit_bytes("apf up", bytes, wire::encode_dense(up_values).size());
  }

  // Every per-coordinate decision — aggregate, EMA statistics, freeze
  // bookkeeping, the new global's write — touches only slot j, so the pass
  // chunks over parameters with identical results for any thread count.
  // Frozen coordinates keep the value every participant started from.
  SyncResult result;
  result.new_global.assign(ctx.global.begin(), ctx.global.end());
  auto update_params = [&](std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) {
      if (freeze_remaining_[j] > 0) {
        // Frozen: hold the value, not transmitted. When the period elapses
        // the parameter rejoins synchronization for a stability check.
        --freeze_remaining_[j];
        continue;
      }
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += client_states[i][j];
      const float synced_value =
          static_cast<float>(acc / static_cast<double>(n));
      const float update = synced_value - ctx.global[j];
      result.new_global[j] = synced_value;
      // Update the effective-perturbation statistics.
      ema_update_[j] = theta * ema_update_[j] + (1.0f - theta) * update;
      ema_abs_update_[j] =
          theta * ema_abs_update_[j] + (1.0f - theta) * std::fabs(update);
      ++observations_[j];
      if (observations_[j] < options_.warmup_rounds) continue;
      const float denom = ema_abs_update_[j];
      const double ep = denom > 0.0f ? std::fabs(ema_update_[j]) / denom : 0.0;
      if (ep < options_.stability_threshold) {
        // Stable: freeze, growing the period additively each consecutive
        // stable verdict.
        freeze_period_[j] = freeze_period_[j] > 0
                                ? freeze_period_[j] + 1
                                : options_.initial_period;
        freeze_remaining_[j] = freeze_period_[j];
      } else {
        freeze_period_[j] = 0;  // unstable: restart the probing cycle
      }
    }
  };
  {
    OBS_SPAN("compress.apf.update");
    util::ThreadPool::global().parallel_for(0, p, update_params, 1024);
  }

  // Measured payload: the dense block of unfrozen values (client 0 is
  // representative; all clients sync the same coordinate set).
  result.bytes_up.assign(n, bytes);
  result.bytes_down.assign(n, bytes);
  result.scalars_up = synced * n;
  result.scalars_down = synced * n;
  last_ratio_ =
      p == 0 ? 0.0 : 1.0 - static_cast<double>(synced) / static_cast<double>(p);
  return result;
}

namespace {
constexpr std::uint32_t kApfSnapshotMagic = 0xFED5'A9F1;
}  // namespace

std::vector<std::uint8_t> Apf::snapshot() const {
  io::BinaryWriter writer;
  writer.write_magic(kApfSnapshotMagic);
  writer.write_vector(ema_update_);
  writer.write_vector(ema_abs_update_);
  writer.write_vector(freeze_remaining_);
  writer.write_vector(freeze_period_);
  writer.write_vector(observations_);
  return writer.take();
}

void Apf::restore(const std::vector<std::uint8_t>& bytes) {
  io::BinaryReader reader(bytes);
  reader.expect_magic(kApfSnapshotMagic, "APF snapshot");
  const std::size_t p = ema_update_.size();
  auto ema_update = reader.read_vector<float>(p);
  auto ema_abs_update = reader.read_vector<float>(p);
  auto freeze_remaining = reader.read_vector<std::int32_t>(p);
  auto freeze_period = reader.read_vector<std::int32_t>(p);
  auto observations = reader.read_vector<std::int32_t>(p);
  if (!reader.at_end()) {
    throw std::runtime_error("APF snapshot: trailing bytes");
  }
  ema_update_ = std::move(ema_update);
  ema_abs_update_ = std::move(ema_abs_update);
  freeze_remaining_ = std::move(freeze_remaining);
  freeze_period_ = std::move(freeze_period);
  observations_ = std::move(observations);
}

double Apf::frozen_fraction() const {
  if (freeze_remaining_.empty()) return 0.0;
  std::size_t frozen = 0;
  for (auto r : freeze_remaining_) {
    if (r > 0) ++frozen;
  }
  return static_cast<double>(frozen) / static_cast<double>(freeze_remaining_.size());
}

}  // namespace fedsu::compress
