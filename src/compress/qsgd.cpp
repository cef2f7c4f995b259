#include "compress/qsgd.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "compress/wire.h"
#include "obs/trace.h"
#include "util/reduce.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"

namespace fedsu::compress {

namespace {

float max_abs(std::span<const float> v) {
  float scale = 0.0f;
  for (float x : v) scale = std::max(scale, std::fabs(x));
  return scale;
}

// Stochastic-rounding core shared by the allocation-free hot path and the
// test-facing quantize_dequantize: one uniform draw per coordinate, none
// when scale == 0 (the historical RNG consumption pattern).
void quantize_into(std::span<const float> v, int bits, float scale,
                   util::Rng& rng, float* out, std::int32_t* levels_out) {
  if (scale == 0.0f) {
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = 0.0f;
    return;
  }
  const int levels = (1 << (bits - 1)) - 1;  // signed range
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double t = static_cast<double>(v[i]) / scale * levels;  // [-L, L]
    const double lo = std::floor(t);
    const double frac = t - lo;
    const double q = rng.uniform() < frac ? lo + 1.0 : lo;
    if (levels_out) levels_out[i] = static_cast<std::int32_t>(q);
    out[i] = static_cast<float>(q / levels * scale);
  }
}

}  // namespace

Qsgd::Qsgd(QsgdOptions options) : options_(options), rng_(options.seed) {
  if (options_.bits < 1 || options_.bits > 16) {
    throw std::invalid_argument("Qsgd: bits must be in [1, 16]");
  }
}

void Qsgd::initialize(std::span<const float> global_state) {
  params_ = global_state.size();
}

std::vector<float> Qsgd::quantize_dequantize(
    std::span<const float> v, util::Rng& rng,
    std::vector<std::int32_t>* levels_out) const {
  // Uniform levels over [-scale, scale] with stochastic rounding; scale is
  // the max-abs of the vector (sent alongside as one float).
  if (levels_out) levels_out->assign(v.size(), 0);
  std::vector<float> out(v.size(), 0.0f);
  quantize_into(v, options_.bits, max_abs(v), rng, out.data(),
                levels_out ? levels_out->data() : nullptr);
  return out;
}

SyncResult Qsgd::synchronize(
    const RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("compress.qsgd.sync");
  const std::size_t p = params_;
  check_sync_inputs(name(), ctx, client_states, p, true);
  const std::size_t n = client_states.size();
  const std::span<const float> global = ctx.global;
  // Per-(round, client) RNG streams: client c's rounding noise this round is
  // rng_.fork(round + 1).fork(c + 1), stream 0 quantizes the broadcast.
  // fork() is a pure function of the base seed, so clients quantize in
  // parallel with bitwise-identical results for every thread count and the
  // audit path can re-derive any stream after the fact.
  const util::Rng round_rng =
      rng_.fork(static_cast<std::uint64_t>(ctx.round) + 1);

  const std::size_t block = util::kReduceClientBlock;
  const std::size_t num_blocks = (n + block - 1) / block;
  panels_.assign(num_blocks * p, 0.0);
  auto run_blocks = [&](std::size_t b0, std::size_t b1) {
    util::ScratchArena& arena = util::ScratchArena::local();
    util::ScratchArena::Frame frame(arena);
    float* update = arena.floats(p);
    float* dq = arena.floats(p);
    const std::span<const float> update_span(update, p);
    for (std::size_t b = b0; b < b1; ++b) {
      double* panel = panels_.data() + b * p;
      const std::size_t hi = std::min(n, (b + 1) * block);
      for (std::size_t i = b * block; i < hi; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          update[j] = client_states[i][j] - global[j];
        }
        util::Rng rng = round_rng.fork(
            static_cast<std::uint64_t>(ctx.participants[i]) + 1);
        quantize_into(update_span, options_.bits, max_abs(update_span), rng,
                      dq, nullptr);
        for (std::size_t j = 0; j < p; ++j) panel[j] += dq[j];
      }
    }
  };
  {
    OBS_SPAN("compress.qsgd.quantize");
    util::ThreadPool::global().parallel_for(0, num_blocks, run_blocks);
  }

  const std::size_t bytes = wire::measure_quantized(p, options_.bits);
  if (wire::payload_audit()) {
    OBS_SPAN("compress.qsgd.encode");
    // Re-derive client 0's stream (forks are pure) and cross-check the
    // measured size against a real encode of its drawn levels.
    std::vector<float> update0(p);
    for (std::size_t j = 0; j < p; ++j) {
      update0[j] = client_states[0][j] - global[j];
    }
    util::Rng rng = round_rng.fork(
        static_cast<std::uint64_t>(ctx.participants[0]) + 1);
    std::vector<std::int32_t> levels;
    quantize_dequantize(update0, rng, &levels);
    wire::audit_bytes(
        "qsgd up", bytes,
        wire::encode_quantized(levels, options_.bits, 0.0f).size());
  }

  SyncResult result;
  {
    OBS_SPAN("compress.qsgd.aggregate");
    // Combine panels in ascending block order (fixed reduction shape, §5b),
    // then apply the quantized broadcast to the global.
    acc_.assign(p, 0.0);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const double* panel = panels_.data() + b * p;
      for (std::size_t j = 0; j < p; ++j) acc_[j] += panel[j];
    }
    mean_update_.resize(p);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < p; ++j) {
      mean_update_[j] = static_cast<float>(acc_[j] * inv_n);
    }
    util::ScratchArena& arena = util::ScratchArena::local();
    util::ScratchArena::Frame frame(arena);
    float* broadcast = arena.floats(p);
    util::Rng bc_rng = round_rng.fork(0);
    quantize_into(mean_update_, options_.bits, max_abs(mean_update_), bc_rng,
                  broadcast, nullptr);
    result.new_global.assign(global.begin(), global.end());
    for (std::size_t j = 0; j < p; ++j) result.new_global[j] += broadcast[j];
  }
  if (wire::payload_audit()) {
    util::Rng bc_rng = round_rng.fork(0);
    std::vector<std::int32_t> levels;
    quantize_dequantize(mean_update_, bc_rng, &levels);
    wire::audit_bytes(
        "qsgd down", bytes,
        wire::encode_quantized(levels, options_.bits, 0.0f).size());
  }

  // Measured payload: the bit-packed levels plus the f32 scale. Every
  // payload in both directions has the same length.
  result.bytes_up.assign(n, bytes);
  result.bytes_down.assign(n, bytes);
  result.scalars_up = p * n;
  result.scalars_down = p * n;
  return result;
}

}  // namespace fedsu::compress
