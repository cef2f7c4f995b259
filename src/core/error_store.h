// Sparse per-client error-feedback store (DESIGN.md §13).
//
// FedSuManager keeps one prediction-error accumulator per (client, param).
// Stored densely that is a num_clients x num_params float matrix — the
// dominant server-side allocation of a large-cohort simulation, and mostly
// zeros: a client that was never selected during a speculation phase (or
// that crashed and was wiped) contributes nothing. This store keeps one
// lazily-allocated slab per client instead:
//
//   * a slab materializes (zero-filled) on the first NONZERO accumulation
//     for its client — reading an absent slab yields exact 0.0f, which is
//     bit-identical to the dense matrix because x - x == +0.0 and
//     0.0f + (+/-0.0f) == +0.0f in round-to-nearest IEEE arithmetic, and
//     once any delta is nonzero the slab exists and accumulates verbatim;
//   * on_client_rejoin releases the slab outright (the dense code filled it
//     with zeros); it re-materializes only if the client accumulates again;
//   * promotions/demotions clear their parameters across allocated slabs
//     only, in one batched pass per round (clear_params).
//
// The store is not thread-safe as a whole, but disjoint clients may be
// accumulated concurrently: ensure()/slab() touch only the client's own
// pointer (the outer vector is never resized during a round). FedSuManager
// still creates its slabs on the calling thread before its parallel pass,
// so they come from the main heap arena, not from per-thread ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "io/serialize.h"

namespace fedsu::util {
class ThreadPool;
}

namespace fedsu::core {

class SparseErrorStore {
 public:
  SparseErrorStore() = default;

  // Drops every slab and re-shapes the store.
  void reset(int num_clients, std::size_t params);

  int num_clients() const { return static_cast<int>(slabs_.size()); }
  std::size_t params() const { return params_; }

  // Registers one more client (no slab until it accumulates).
  void add_client() { slabs_.emplace_back(); }

  // The accumulated error, 0.0f for clients without a slab.
  float value(int client, std::size_t j) const {
    const float* s = slabs_[static_cast<std::size_t>(client)].get();
    return s ? s[j] : 0.0f;
  }

  // The client's slab, nullptr when unallocated.
  float* slab(int client) { return slabs_[static_cast<std::size_t>(client)].get(); }
  const float* slab(int client) const {
    return slabs_[static_cast<std::size_t>(client)].get();
  }

  // Materializes the client's slab (zero-filled) if absent and returns it.
  float* ensure(int client);

  // Releases the client's slab (rejoin-stamp reset: the accumulator is
  // semantically all-zero again, so the memory goes back to the allocator).
  void release(int client) { slabs_[static_cast<std::size_t>(client)].reset(); }

  // err[j] = 0 for every listed j across every ALLOCATED slab (the
  // promotion / demotion path; the dense equivalent wrote whole columns).
  // Slabs are independent, so they are cleared in parallel over `pool`
  // (may be null: inline).
  void clear_params(std::span<const std::size_t> params,
                    util::ThreadPool* pool);

  std::size_t allocated_slabs() const;
  // Bytes of slab memory currently resident (the quantity bench_scale
  // contrasts with the dense num_clients x params matrix).
  std::size_t resident_bytes() const {
    return allocated_slabs() * params_ * sizeof(float);
  }

  // Snapshot payload: u64 slab count, then ascending (u32 client,
  // length-prefixed f32 slab) pairs. Only allocated slabs are written.
  void serialize(io::BinaryWriter& writer) const;
  // Restores from `reader` into an empty store of the given shape; throws
  // on inconsistent client ids or slab sizes.
  void deserialize(io::BinaryReader& reader, int num_clients,
                   std::size_t params);

 private:
  std::size_t params_ = 0;
  std::vector<std::unique_ptr<float[]>> slabs_;
};

}  // namespace fedsu::core
