#include "core/oscillation.h"

#include <cmath>
#include <stdexcept>

namespace fedsu::core {

namespace {
// The one check of a tracker's options, from code or from a snapshot; the
// comparisons are written so that a NaN decay fails them.
bool valid(const OscillationOptions& options) {
  return options.ema_decay > 0.0 && options.ema_decay < 1.0 &&
         options.warmup >= 1;
}
}  // namespace

OscillationTracker::OscillationTracker(std::size_t num_params,
                                       OscillationOptions options)
    : options_(options),
      ema_g2_(num_params, 0.0f),
      ema_abs_g2_(num_params, 0.0f),
      g_prev_(num_params, 0.0f),
      observations_(num_params, -1) {
  if (!valid(options_)) {
    throw std::invalid_argument(
        "OscillationTracker: decay must be in (0, 1) and warmup >= 1");
  }
}

double OscillationTracker::observe(std::size_t j, float g_new) {
  if (j >= size()) throw std::out_of_range("OscillationTracker::observe");
  if (observations_[j] < 0) {
    // First g value: no second difference yet.
    g_prev_[j] = g_new;
    observations_[j] = 0;
    return 1.0;
  }
  const float g2 = g_new - g_prev_[j];
  g_prev_[j] = g_new;
  const float theta = static_cast<float>(options_.ema_decay);
  ema_g2_[j] = theta * ema_g2_[j] + (1.0f - theta) * g2;
  ema_abs_g2_[j] = theta * ema_abs_g2_[j] + (1.0f - theta) * std::fabs(g2);
  ++observations_[j];
  return ratio(j);
}

double OscillationTracker::ratio(std::size_t j) const {
  if (j >= size()) throw std::out_of_range("OscillationTracker::ratio");
  if (observations_[j] < 1) return 1.0;
  const float denom = ema_abs_g2_[j];
  if (denom <= 0.0f) {
    // Second differences are exactly zero: perfectly linear.
    return 0.0;
  }
  return std::fabs(ema_g2_[j]) / denom;
}

bool OscillationTracker::ready(std::size_t j) const {
  if (j >= size()) throw std::out_of_range("OscillationTracker::ready");
  return observations_[j] >= options_.warmup;
}

void OscillationTracker::reset(std::size_t j) {
  if (j >= size()) throw std::out_of_range("OscillationTracker::reset");
  ema_g2_[j] = 0.0f;
  ema_abs_g2_[j] = 0.0f;
  g_prev_[j] = 0.0f;
  observations_[j] = -1;
}

void OscillationTracker::serialize(io::BinaryWriter& writer) const {
  writer.write_f64(options_.ema_decay);
  writer.write_i32(options_.warmup);
  writer.write_vector(ema_g2_);
  writer.write_vector(ema_abs_g2_);
  writer.write_vector(g_prev_);
  writer.write_vector(observations_);
}

void OscillationTracker::deserialize(io::BinaryReader& reader) {
  options_.ema_decay = reader.read_f64();
  options_.warmup = reader.read_i32();
  if (!valid(options_)) {
    throw std::runtime_error("OscillationTracker: invalid options in snapshot");
  }
  ema_g2_ = reader.read_vector<float>();
  ema_abs_g2_ = reader.read_vector<float>();
  g_prev_ = reader.read_vector<float>();
  observations_ = reader.read_vector<std::int32_t>();
  if (ema_abs_g2_.size() != ema_g2_.size() || g_prev_.size() != ema_g2_.size() ||
      observations_.size() != ema_g2_.size()) {
    throw std::runtime_error("OscillationTracker: inconsistent snapshot");
  }
}

std::size_t OscillationTracker::state_bytes() const {
  return ema_g2_.size() * sizeof(float) + ema_abs_g2_.size() * sizeof(float) +
         g_prev_.size() * sizeof(float) +
         observations_.size() * sizeof(std::int32_t);
}

}  // namespace fedsu::core
