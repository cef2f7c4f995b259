#include "compress/cmfl.h"

#include <stdexcept>

#include "compress/wire.h"
#include "io/serialize.h"
#include "obs/trace.h"
#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::compress {

Cmfl::Cmfl(CmflOptions options) : options_(options) {
  if (options_.relevance_threshold < 0.0 || options_.relevance_threshold > 1.0) {
    throw std::invalid_argument("Cmfl: relevance threshold out of [0, 1]");
  }
}

void Cmfl::initialize(std::span<const float> global_state) {
  prev_update_.assign(global_state.size(), 0.0f);
  has_prev_update_ = false;
}

SyncResult Cmfl::synchronize(
    const RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("compress.cmfl.sync");
  const std::size_t p = prev_update_.size();
  check_sync_inputs(name(), ctx, client_states, p, true);
  const std::size_t n = client_states.size();
  const std::span<const float> global = ctx.global;
  last_relevances_.assign(n, 1.0);

  // Decide which clients report. Round 0 has no reference update: everyone
  // reports (matching the CMFL paper's warm-up behaviour). Each client's
  // check only reads shared state and writes its own slots, so the pass
  // chunks over the pool with identical results for any thread count.
  reports_.assign(n, 1);
  if (has_prev_update_) {
    auto relevance = [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        std::size_t agree = 0;
        for (std::size_t j = 0; j < p; ++j) {
          const float u = client_states[i][j] - global[j];
          // Zero entries count as agreeing: they cannot hurt the global
          // direction (and exact zeros are rare for float updates anyway).
          const bool sign_u = u >= 0.0f;
          const bool sign_g = prev_update_[j] >= 0.0f;
          if (u == 0.0f || prev_update_[j] == 0.0f || sign_u == sign_g) ++agree;
        }
        last_relevances_[i] =
            p == 0 ? 1.0 : static_cast<double>(agree) / static_cast<double>(p);
        reports_[i] =
            last_relevances_[i] >= options_.relevance_threshold ? 1 : 0;
      }
    };
    OBS_SPAN("compress.cmfl.relevance");
    util::ThreadPool::global().parallel_for(0, n, relevance);
  }

  // Aggregate the reporting clients; if every update was withheld, the
  // global state stays put for this round.
  SyncResult result;
  result.new_global.assign(global.begin(), global.end());
  std::size_t reporting = 0;
  {
    OBS_SPAN("compress.cmfl.aggregate");
    reporting_rows_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (reports_[i]) reporting_rows_.push_back(client_states[i]);
    }
    reporting = reporting_rows_.size();
    if (reporting > 0) {
      acc_.assign(p, 0.0);
      util::column_sums(reporting_rows_, acc_, &util::ThreadPool::global());
      const double inv = 1.0 / static_cast<double>(reporting);
      // prev_update_ tracks the step for next round's relevance checks.
      for (std::size_t j = 0; j < p; ++j) {
        const float next = static_cast<float>(acc_[j] * inv);
        prev_update_[j] = next - global[j];
        result.new_global[j] = next;
      }
    } else {
      for (std::size_t j = 0; j < p; ++j) prev_update_[j] = 0.0f;
    }
    has_prev_update_ = true;
  }

  // Measured dense payload: a reporting upload and every download carry the
  // full state (all the same length; the broadcast is representative).
  const std::size_t full_bytes = wire::measure_dense(p);
  if (wire::payload_audit()) {
    OBS_SPAN("compress.cmfl.encode");
    wire::audit_bytes("cmfl down", full_bytes,
                      wire::encode_dense(result.new_global).size());
  }
  result.bytes_up.resize(n);
  result.bytes_down.assign(n, full_bytes);  // everyone downloads the model
  for (std::size_t i = 0; i < n; ++i) {
    result.bytes_up[i] = reports_[i] ? full_bytes : 0;
    result.scalars_up += reports_[i] ? p : 0;
  }
  result.scalars_down = p * n;
  last_ratio_ =
      1.0 - static_cast<double>(reporting) / static_cast<double>(n);
  return result;
}

namespace {
constexpr std::uint32_t kCmflSnapshotMagic = 0xFED5'C3F1;
}  // namespace

void Cmfl::serialize(io::BinaryWriter& writer) const {
  writer.write_magic(kCmflSnapshotMagic);
  writer.write_vector(prev_update_);
  writer.write_bool(has_prev_update_);
}

void Cmfl::deserialize(io::BinaryReader& reader) {
  reader.expect_magic(kCmflSnapshotMagic, "CMFL snapshot");
  auto prev_update = reader.read_vector<float>(prev_update_.size());
  const bool has_prev_update = reader.read_bool();
  if (!reader.at_end()) {
    throw std::runtime_error("CMFL snapshot: trailing bytes");
  }
  prev_update_ = std::move(prev_update);
  has_prev_update_ = has_prev_update;
}

}  // namespace fedsu::compress
