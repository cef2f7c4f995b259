#include "compress/fedavg.h"

#include <stdexcept>

#include "compress/wire.h"
#include "obs/trace.h"
#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::compress {

std::vector<float> average_states(
    const std::vector<std::span<const float>>& client_states) {
  if (client_states.empty()) {
    throw std::invalid_argument("average_states: no clients");
  }
  const std::size_t p = client_states.front().size();
  for (const auto& state : client_states) {
    if (state.size() != p) {
      throw std::invalid_argument("average_states: state size mismatch");
    }
  }
  // Positional mean in the fixed block shape (util/reduce.h): chunked over
  // the global pool, bitwise identical for every thread count, and — for
  // cohorts up to the block size — to the historical serial fold.
  std::vector<float> out(p);
  util::column_means(client_states, out, &util::ThreadPool::global());
  return out;
}

void FedAvg::initialize(std::span<const float> global_state) {
  state_size_ = global_state.size();
}

SyncResult FedAvg::synchronize(
    const RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("compress.fedavg.sync");
  check_sync_inputs(name(), ctx, client_states, state_size_, false);
  SyncResult result;
  result.new_global = average_states(client_states);
  // Byte accounting is the measured size of the dense payload each client
  // uploads (its state) and downloads (the new global) — identical lengths,
  // sized without encoding (DESIGN.md §15).
  const std::size_t bytes = wire::measure_dense(result.new_global.size());
  if (wire::payload_audit()) {
    wire::audit_bytes("fedavg", bytes,
                      wire::encode_dense(result.new_global).size());
  }
  result.bytes_up.assign(client_states.size(), bytes);
  result.bytes_down.assign(client_states.size(), bytes);
  result.scalars_up = result.new_global.size() * client_states.size();
  result.scalars_down = result.scalars_up;
  return result;
}

}  // namespace fedsu::compress
