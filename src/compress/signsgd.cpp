#include "compress/signsgd.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "compress/wire.h"
#include "io/serialize.h"
#include "obs/trace.h"
#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::compress {

SignSgd::SignSgd(SignSgdOptions options) : options_(options) {
  if (options_.step_scale <= 0.0) {
    throw std::invalid_argument("SignSgd: step_scale <= 0");
  }
}

void SignSgd::initialize(std::span<const float> global_state) {
  params_ = global_state.size();
  step_ = 0.0f;
}

SyncResult SignSgd::synchronize(
    const RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("compress.signsgd.sync");
  const std::size_t p = params_;
  check_sync_inputs(name(), ctx, client_states, p, true);
  const std::size_t n = client_states.size();
  const std::span<const float> global = ctx.global;
  // Majority vote over update signs; track mean |update| to size the step.
  // Each block folds its rows row-major into a private vote panel and a
  // private double partial, exactly the historical serial loop restricted to
  // the block's rows, so any thread count produces the same panels.
  const std::size_t block = util::kReduceClientBlock;
  const std::size_t num_blocks = (n + block - 1) / block;
  vote_panels_.assign(num_blocks * p, 0);
  abs_partials_.assign(num_blocks, 0.0);
  auto run_blocks = [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      int* votes = vote_panels_.data() + b * p;
      double abs_sum = 0.0;
      const std::size_t hi = std::min(n, (b + 1) * block);
      for (std::size_t i = b * block; i < hi; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          const float u = client_states[i][j] - global[j];
          votes[j] += (u > 0.0f) - (u < 0.0f);
          abs_sum += std::fabs(u);
        }
      }
      abs_partials_[b] = abs_sum;
    }
  };
  {
    OBS_SPAN("compress.signsgd.vote");
    util::ThreadPool::global().parallel_for(0, num_blocks, run_blocks);
  }

  // Measured payload: one sign bit per coordinate (packed) plus one f32
  // each way — the client's local mean |update| up, the global step down.
  const std::size_t bytes = wire::measure_signs(p);
  if (wire::payload_audit()) {
    OBS_SPAN("compress.signsgd.encode");
    // Client 0's wire mask, rebuilt against the pre-update global state.
    std::vector<std::uint8_t> up_signs(p, 0);
    for (std::size_t j = 0; j < p; ++j) {
      up_signs[j] = client_states[0][j] - global[j] > 0.0f ? 1 : 0;
    }
    wire::audit_bytes("signsgd up", bytes,
                      wire::encode_signs(up_signs, 0.0f).size());
  }

  SyncResult result;
  result.new_global.assign(global.begin(), global.end());
  {
    OBS_SPAN("compress.signsgd.aggregate");
    // Combine in ascending block order: votes into the block-0 panel
    // (integer adds, exact in any order), |update| partials as a short
    // double chain — with n <= kReduceClientBlock both degenerate to the
    // historical single accumulators.
    int* votes = vote_panels_.data();
    double abs_sum = abs_partials_[0];
    for (std::size_t b = 1; b < num_blocks; ++b) {
      const int* panel = vote_panels_.data() + b * p;
      for (std::size_t j = 0; j < p; ++j) votes[j] += panel[j];
      abs_sum += abs_partials_[b];
    }
    const float mean_abs =
        static_cast<float>(abs_sum / (static_cast<double>(p) * n));
    // Adaptive step: EMA of the observed mean magnitude.
    step_ = step_ == 0.0f ? mean_abs : 0.9f * step_ + 0.1f * mean_abs;
    const float step = static_cast<float>(options_.step_scale) * step_;
    for (std::size_t j = 0; j < p; ++j) {
      if (votes[j] > 0) {
        result.new_global[j] += step;
      } else if (votes[j] < 0) {
        result.new_global[j] -= step;
      }
    }
  }

  result.bytes_up.assign(n, bytes);
  result.bytes_down.assign(n, bytes);
  result.scalars_up = p * n;
  result.scalars_down = p * n;
  return result;
}

namespace {
constexpr std::uint32_t kSignSgdSnapshotMagic = 0xFED5'5165;
}  // namespace

void SignSgd::serialize(io::BinaryWriter& writer) const {
  writer.write_magic(kSignSgdSnapshotMagic);
  writer.write_f32(step_);
}

void SignSgd::deserialize(io::BinaryReader& reader) {
  reader.expect_magic(kSignSgdSnapshotMagic, "signSGD snapshot");
  const float step = reader.read_f32();
  if (!reader.at_end()) {
    throw std::runtime_error("signSGD snapshot: trailing bytes");
  }
  step_ = step;
}

}  // namespace fedsu::compress
