#include "core/fedsu_variants.h"

#include <array>
#include <stdexcept>
#include <utility>

#include "io/serialize.h"
#include "util/thread_pool.h"

namespace fedsu::core {

namespace {
// 0xFED5B2xx: the variants' snapshots, the kernel's state
// (Speculation::serialize) followed by each variant's own. The 0xFED5B1xx
// layouts that preceded the kernel are not readable.
constexpr std::uint32_t kFedSuV1SnapshotMagic = 0xFED5'B201;
constexpr std::uint32_t kFedSuV2SnapshotMagic = 0xFED5'B202;
}  // namespace

FedSuV1::FedSuV1(FedSuV1Options options)
    : spec_({.t_r = options.t_r,
             .ema_decay = options.ema_decay,
             .warmup = options.warmup,
             .initial_no_check = options.fixed_period}) {}

void FedSuV1::initialize(std::span<const float> global_state) {
  spec_.initialize(global_state.size());
}

compress::SyncResult FedSuV1::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  compress::check_sync_inputs(name(), ctx, client_states, spec_.size(), true);
  std::vector<float> next(ctx.global.begin(), ctx.global.end());
  Speculation::Round round = spec_.walk(ctx.global, next);
  Speculation::average(client_states, round, next,
                       &util::ThreadPool::global());
  // v1's exit: a lapsed fixed period ends the phase with no error traffic
  // and no correction, and the parameter's diagnosis re-warms from scratch.
  for (const std::size_t j : round.expiring) {
    spec_.end_phase(j);
    spec_.forget(j);
  }
  spec_.diagnose(ctx.global, next, [](std::size_t) {});
  return spec_.result(std::move(next), client_states.size(),
                      round.unpredictable.size(), round, "fedsu-v1",
                      last_ratio_);
}

void FedSuV1::serialize(io::BinaryWriter& writer) const {
  writer.write_magic(kFedSuV1SnapshotMagic);
  spec_.serialize(writer);
}

void FedSuV1::deserialize(io::BinaryReader& reader) {
  reader.expect_magic(kFedSuV1SnapshotMagic, "FedSU-v1 snapshot");
  Speculation spec = spec_.parse(reader, spec_.size());
  if (!reader.at_end()) {
    throw std::runtime_error("FedSU-v1 snapshot: trailing bytes");
  }
  spec_ = std::move(spec);
}

FedSuV2::FedSuV2(FedSuV2Options options)
    : enter_probability_(options.enter_probability),
      spec_({.initial_no_check = options.fixed_period}),
      rng_(options.seed) {
  if (!(enter_probability_ >= 0.0 && enter_probability_ <= 1.0)) {
    throw std::invalid_argument("FedSuV2: enter_probability not in [0, 1]");
  }
}

void FedSuV2::initialize(std::span<const float> global_state) {
  has_prev_update_ = false;
  spec_.initialize(global_state.size());
}

compress::SyncResult FedSuV2::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  compress::check_sync_inputs(name(), ctx, client_states, spec_.size(), true);
  std::vector<float> next(ctx.global.begin(), ctx.global.end());
  Speculation::Round round = spec_.walk(ctx.global, next);
  Speculation::average(client_states, round, next,
                       &util::ThreadPool::global());
  for (const std::size_t j : round.expiring) spec_.end_phase(j);
  // v2's entry: no diagnosis at all. Each synchronized parameter enters
  // with a preset probability, its last update as the slope, once one
  // update has been observed.
  for (std::size_t j = 0; j < spec_.size(); ++j) {
    if (spec_.mask()[j]) continue;
    if (has_prev_update_ && rng_.bernoulli(enter_probability_)) {
      spec_.start_phase(j, next[j] - ctx.global[j]);
    }
  }
  has_prev_update_ = true;
  return spec_.result(std::move(next), client_states.size(),
                      round.unpredictable.size(), round, "fedsu-v2",
                      last_ratio_);
}

void FedSuV2::serialize(io::BinaryWriter& writer) const {
  writer.write_magic(kFedSuV2SnapshotMagic);
  spec_.serialize(writer);
  writer.write_bool(has_prev_update_);
  for (const std::uint64_t w : rng_.state_words()) writer.write_u64(w);
}

void FedSuV2::deserialize(io::BinaryReader& reader) {
  reader.expect_magic(kFedSuV2SnapshotMagic, "FedSU-v2 snapshot");
  Speculation spec = spec_.parse(reader, spec_.size());
  const bool has_prev_update = reader.read_bool();
  std::array<std::uint64_t, util::Rng::kStateWords> words{};
  for (auto& w : words) w = reader.read_u64();
  if (!reader.at_end()) {
    throw std::runtime_error("FedSU-v2 snapshot: trailing bytes");
  }
  spec_ = std::move(spec);
  has_prev_update_ = has_prev_update;
  rng_.restore_state_words(words);
}

}  // namespace fedsu::core
