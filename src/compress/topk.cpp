#include "compress/topk.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "compress/wire.h"
#include "io/serialize.h"
#include "obs/trace.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"

namespace fedsu::compress {

TopK::TopK(int num_clients, TopKOptions options)
    : options_(options), num_clients_(num_clients) {
  if (num_clients <= 0) throw std::invalid_argument("TopK: num_clients <= 0");
  if (options_.fraction <= 0.0 || options_.fraction > 1.0) {
    throw std::invalid_argument("TopK: fraction out of (0, 1]");
  }
}

void TopK::initialize(std::span<const float> global_state) {
  residual_.reset(num_clients_, global_state.size());
}

void TopK::on_client_join(int client_id) {
  if (client_id != num_clients_) {
    throw std::invalid_argument("TopK: client ids must be contiguous");
  }
  ++num_clients_;
  residual_.add_client();  // no slab until it accumulates
}

std::size_t TopK::on_client_rejoin(int client_id) {
  if (client_id < 0 || client_id >= num_clients_) {
    throw std::out_of_range("TopK: rejoining client id out of range");
  }
  // The rejoiner is force re-synced to the current global model, so the
  // residual it accumulated against its pre-crash trajectory is stale error
  // feedback — replaying it would inject mass that was already corrected by
  // the full re-download. Releasing the slab makes the accumulator exactly
  // zero again (absent == zeros) and returns the memory.
  residual_.release(client_id);
  return 0;  // nothing beyond the model itself to re-download
}

SyncResult TopK::synchronize(
    const RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("compress.topk.sync");
  const std::size_t p = residual_.params();
  check_sync_inputs(name(), ctx, client_states, p, true);
  const std::size_t n = client_states.size();
  const std::span<const float> global = ctx.global;
  const std::size_t k =
      p == 0 ? 0
             : std::min(p, std::max<std::size_t>(
                               1, static_cast<std::size_t>(std::llround(
                                      options_.fraction *
                                      static_cast<double>(p)))));

  sel_indices_.resize(n * k);
  sel_values_.resize(n * k);

  // Pass 1 — compensate + select, parallel over clients. Each participant
  // owns its residual slab and its [i*k, (i+1)*k) slice of the selection
  // arrays, so chunking over the pool is bitwise identical for every thread
  // count (§5b). Selection is threshold-then-scan: one nth_element over the
  // reused |compensated| buffer finds the k-th largest magnitude, then an
  // ascending scan takes everything strictly above it and breaks ties at
  // the threshold by earliest index — deterministic, and no O(p) index
  // array to rebuild per client.
  auto select_client = [&](std::size_t i0, std::size_t i1) {
    util::ScratchArena& arena = util::ScratchArena::local();
    util::ScratchArena::Frame frame(arena);
    float* comp = arena.floats(p);
    float* mags = arena.floats(p);
    for (std::size_t i = i0; i < i1; ++i) {
      const int client = ctx.participants[i];
      const std::span<const float>& state = client_states[i];
      const float* slab = residual_.slab(client);
      if (slab != nullptr) {
        for (std::size_t j = 0; j < p; ++j) {
          comp[j] = (state[j] - global[j]) + slab[j];
        }
      } else {  // absent slab reads as exact zeros
        for (std::size_t j = 0; j < p; ++j) comp[j] = state[j] - global[j];
      }
      if (k == 0) continue;
      for (std::size_t j = 0; j < p; ++j) mags[j] = std::fabs(comp[j]);
      std::nth_element(mags, mags + (k - 1), mags + p, std::greater<float>());
      const float threshold = mags[k - 1];
      std::uint32_t* idx = sel_indices_.data() + i * k;
      float* val = sel_values_.data() + i * k;
      std::size_t taken = 0;
      for (std::size_t j = 0; j < p; ++j) {
        if (std::fabs(comp[j]) > threshold) {
          idx[taken] = static_cast<std::uint32_t>(j);
          val[taken] = comp[j];
          ++taken;
        }
      }
      for (std::size_t j = 0; j < p && taken < k; ++j) {
        if (std::fabs(comp[j]) == threshold) {
          idx[taken] = static_cast<std::uint32_t>(j);
          val[taken] = comp[j];
          ++taken;
        }
      }
      // Residual update: unselected mass carries to the next round. A slab
      // materializes only when some unselected coordinate is nonzero (an
      // all-zero residual is represented by absence, bit-identically).
      float* wslab = residual_.slab(client);
      if (wslab == nullptr) {
        // Zero the selected coordinates in comp, then look for remaining
        // mass: only then is a slab worth materializing.
        for (std::size_t t = 0; t < taken; ++t) comp[idx[t]] = 0.0f;
        bool residual_mass = false;
        for (std::size_t j = 0; j < p && !residual_mass; ++j) {
          residual_mass = comp[j] != 0.0f;
        }
        if (!residual_mass) continue;  // absent slab already reads as zeros
        wslab = residual_.ensure(client);
        for (std::size_t j = 0; j < p; ++j) wslab[j] = comp[j];
        continue;
      }
      for (std::size_t j = 0; j < p; ++j) wslab[j] = comp[j];
      for (std::size_t t = 0; t < taken; ++t) wslab[idx[t]] = 0.0f;
    }
  };
  {
    OBS_SPAN("compress.topk.select");
    util::ThreadPool::global().parallel_for(0, n, select_client);
  }

  // Pass 2 — aggregate, serial in ascending client order: each coordinate
  // is touched at most once per client, so the per-coordinate fold order is
  // ascending client id exactly as the historical loop, independent of the
  // per-client selection order above.
  std::size_t union_size = 0;
  SyncResult result;
  result.new_global.assign(global.begin(), global.end());
  {
    OBS_SPAN("compress.topk.aggregate");
    agg_.assign(p, 0.0);
    touched_.assign(p, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t* idx = sel_indices_.data() + i * k;
      const float* val = sel_values_.data() + i * k;
      for (std::size_t t = 0; t < k; ++t) {
        agg_[idx[t]] += val[t];
        touched_[idx[t]] = 1;
      }
    }
    // The global changes only on the union of uploaded coordinates.
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < p; ++j) {
      if (!touched_[j]) continue;
      ++union_size;
      result.new_global[j] = static_cast<float>(global[j] + agg_[j] * inv_n);
    }
  }

  // Exact sparse payload sizes without materializing the payloads: each
  // upload carries k (index, value) entries; the broadcast carries the
  // union of touched coordinates (wire::measure_sparse == encoded size).
  const std::size_t up_bytes = wire::measure_sparse(k);
  const std::size_t down_bytes = wire::measure_sparse(union_size);
  if (wire::payload_audit()) {
    OBS_SPAN("compress.topk.encode");
    // Client 0's representative upload, and the broadcast payload.
    std::vector<std::uint32_t> down_indices;
    std::vector<float> down_values;
    down_indices.reserve(union_size);
    down_values.reserve(union_size);
    for (std::size_t j = 0; j < p; ++j) {
      if (!touched_[j]) continue;
      down_indices.push_back(static_cast<std::uint32_t>(j));
      down_values.push_back(result.new_global[j]);
    }
    wire::audit_bytes(
        "topk up", up_bytes,
        wire::encode_sparse(std::span(sel_indices_.data(), k),
                            std::span(sel_values_.data(), k))
            .size());
    wire::audit_bytes("topk down", down_bytes,
                      wire::encode_sparse(down_indices, down_values).size());
  }
  result.bytes_up.assign(n, up_bytes);
  result.bytes_down.assign(n, down_bytes);
  result.scalars_up = k * n;
  result.scalars_down = union_size * n;
  last_ratio_ =
      p == 0 ? 0.0 : 1.0 - static_cast<double>(k) / static_cast<double>(p);
  return result;
}

namespace {
// 0xFED5701D dropped the copy of the global model 0xFED5701C carried.
constexpr std::uint32_t kTopKSnapshotMagic = 0xFED5701D;
}  // namespace

std::vector<std::uint8_t> TopK::snapshot() const {
  io::BinaryWriter writer;
  writer.write_magic(kTopKSnapshotMagic);
  writer.write_i32(num_clients_);
  writer.write_f64(last_ratio_);
  residual_.serialize(writer);
  return writer.take();
}

void TopK::restore(const std::vector<std::uint8_t>& bytes) {
  // Parse and validate into locals, then commit: a malformed snapshot
  // throws and leaves this TopK unchanged. The client count is checked
  // before it shapes the residual store, so it never sizes an allocation.
  io::BinaryReader reader(bytes);
  reader.expect_magic(kTopKSnapshotMagic, "TopK snapshot");
  if (reader.read_i32() != num_clients_) {
    throw std::runtime_error("TopK snapshot: client count mismatch");
  }
  const double last_ratio = reader.read_f64();
  core::SparseErrorStore residual;
  residual.deserialize(reader, num_clients_, residual_.params());
  if (!reader.at_end()) {
    throw std::runtime_error("TopK snapshot: trailing bytes");
  }
  last_ratio_ = last_ratio;
  residual_ = std::move(residual);
}

}  // namespace fedsu::compress
