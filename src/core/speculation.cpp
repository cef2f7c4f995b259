#include "core/speculation.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "compress/wire.h"
#include "util/reduce.h"

namespace fedsu::core {

Speculation::Speculation(FedSuOptions options)
    : options_(options), osc_(tracker(0)) {
  if (!(options_.t_r > 0.0 && options_.t_s > 0.0)) {
    throw std::invalid_argument("Speculation: thresholds must be positive");
  }
  if (options_.initial_no_check < 1) {
    throw std::invalid_argument("Speculation: first period must be >= 1");
  }
}

OscillationTracker Speculation::tracker(std::size_t params) const {
  return OscillationTracker(params, {options_.ema_decay, options_.warmup});
}

void Speculation::initialize(std::size_t params) {
  osc_ = tracker(params);
  mask_.assign(params, 0);
  slope_.assign(params, 0.0f);
  period_.assign(params, 0);
  remaining_.assign(params, 0);
  linear_rounds_.assign(params, 0);
}

Speculation::Round Speculation::walk(std::span<const float> global,
                                     std::span<float> next) {
  Round round;
  for (std::size_t j = 0; j < mask_.size(); ++j) {
    if (!mask_[j]) {
      round.unpredictable.push_back(j);
      continue;
    }
    if (round.runs.empty() || round.runs.back().second != j) {
      round.runs.emplace_back(j, j + 1);
    } else {
      ++round.runs.back().second;
    }
    // Speculative update: persist the profiled per-round slope.
    next[j] = global[j] + slope_[j];
    ++linear_rounds_[j];
    if (--remaining_[j] <= 0) round.expiring.push_back(j);
  }
  return round;
}

void Speculation::average(const std::vector<std::span<const float>>& states,
                          Round& round, std::span<float> next,
                          util::ThreadPool* pool) {
  // For cohorts up to util::kReduceClientBlock the historical per-column
  // serial chain, beyond it the deterministic two-level tree (§5b).
  std::vector<double> sums(round.unpredictable.size());
  util::listed_column_sums(states, round.unpredictable, sums, pool);
  const double inv_n = 1.0 / static_cast<double>(states.size());
  const bool audit = compress::wire::payload_audit();
  for (std::size_t k = 0; k < round.unpredictable.size(); ++k) {
    const std::size_t j = round.unpredictable[k];
    next[j] = static_cast<float>(sums[k] * inv_n);
    if (audit) round.upload.push_back(states[0][j]);
  }
}

bool Speculation::check(std::size_t j, float mean_err, float& value) {
  const double denom = std::fabs(static_cast<double>(slope_[j])) + 1e-8;
  const double s = std::fabs(static_cast<double>(mean_err)) / denom;
  if (s < options_.t_s) {
    // Linear pattern persists: lengthen the no-checking period by one
    // round (paper §IV-C). Errors keep accumulating, since Eq. 3 sums from
    // the start of the speculation phase.
    period_[j] += 1;
    remaining_[j] = period_[j];
    return false;
  }
  end_phase(j);
  value = static_cast<float>(value + mean_err);
  return true;
}

void Speculation::start_phase(std::size_t j, float slope) {
  mask_[j] = 1;
  slope_[j] = slope;
  period_[j] = options_.initial_no_check;
  remaining_[j] = options_.initial_no_check;
}

void Speculation::end_phase(std::size_t j) {
  mask_[j] = 0;
  period_[j] = 0;
  remaining_[j] = 0;
}

bool Speculation::promotes(std::size_t j, float g) {
  const double r = osc_.observe(j, g);
  return osc_.ready(j) && r < options_.t_r;
}

compress::SyncResult Speculation::result(std::vector<float> next,
                                         std::size_t participants,
                                         std::size_t scalars,
                                         const Round& round,
                                         const char* protocol,
                                         double& ratio) const {
  namespace wire = compress::wire;
  // Sized without encoding (DESIGN.md §15): masks and periods are derived
  // locally on every client and cost nothing on the wire (§V).
  const std::size_t bytes = wire::measure_dense(scalars);
  if (wire::payload_audit()) {
    wire::audit_bytes((std::string(protocol) + " up").c_str(), bytes,
                      wire::encode_dense(round.upload).size());
  }
  compress::SyncResult result;
  result.new_global = std::move(next);
  result.bytes_up.assign(participants, bytes);
  result.bytes_down.assign(participants, bytes);
  result.scalars_up = scalars * participants;
  result.scalars_down = scalars * participants;
  ratio = size() == 0 ? 0.0
                      : 1.0 - static_cast<double>(scalars) /
                                  static_cast<double>(size());
  return result;
}

double Speculation::predictable_fraction() const {
  if (mask_.empty()) return 0.0;
  std::size_t count = 0;
  for (auto m : mask_) count += m;
  return static_cast<double>(count) / static_cast<double>(mask_.size());
}

std::size_t Speculation::state_bytes() const {
  return osc_.state_bytes() + mask_.size() * sizeof(std::uint8_t) +
         slope_.size() * sizeof(float) +
         period_.size() * sizeof(std::int32_t) +
         remaining_.size() * sizeof(std::int32_t);
}

std::size_t Speculation::join_state_bytes() const {
  return mask_.size() / 8 + 1 + period_.size() * sizeof(std::int32_t) +
         slope_.size() * sizeof(float);
}

void Speculation::serialize(io::BinaryWriter& writer) const {
  osc_.serialize(writer);
  writer.write_vector(mask_);
  writer.write_vector(slope_);
  writer.write_vector(period_);
  writer.write_vector(remaining_);
  writer.write_vector(linear_rounds_);
}

Speculation Speculation::parse(io::BinaryReader& reader,
                               std::size_t params) const {
  Speculation parsed(options_);
  parsed.osc_.deserialize(reader);
  if (parsed.osc_.size() != params) {
    throw std::runtime_error("Speculation: tracker length mismatch");
  }
  parsed.mask_ = reader.read_vector<std::uint8_t>(params);
  parsed.slope_ = reader.read_vector<float>(params);
  parsed.period_ = reader.read_vector<std::int32_t>(params);
  parsed.remaining_ = reader.read_vector<std::int32_t>(params);
  parsed.linear_rounds_ = reader.read_vector<std::int32_t>(params);
  return parsed;
}

}  // namespace fedsu::core
