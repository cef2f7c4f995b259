#include "core/error_store.h"

#include <stdexcept>

#include "util/thread_pool.h"

namespace fedsu::core {

void SparseErrorStore::reset(int num_clients, std::size_t params) {
  params_ = params;
  slabs_.clear();
  slabs_.resize(static_cast<std::size_t>(num_clients));
}

float* SparseErrorStore::ensure(int client) {
  auto& slot = slabs_[static_cast<std::size_t>(client)];
  if (!slot) {
    slot = std::make_unique<float[]>(params_);  // value-initialized: zeros
  }
  return slot.get();
}

void SparseErrorStore::clear_params(std::span<const std::size_t> params,
                                    util::ThreadPool* pool) {
  if (params.empty()) return;
  auto clear = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      float* slab = slabs_[c].get();
      if (slab == nullptr) continue;
      for (const std::size_t j : params) slab[j] = 0.0f;
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, slabs_.size(), clear);
  } else {
    clear(0, slabs_.size());
  }
}

std::size_t SparseErrorStore::allocated_slabs() const {
  std::size_t count = 0;
  for (const auto& slot : slabs_) count += slot ? 1 : 0;
  return count;
}

void SparseErrorStore::serialize(io::BinaryWriter& writer) const {
  writer.write_u64(allocated_slabs());
  for (std::size_t c = 0; c < slabs_.size(); ++c) {
    if (!slabs_[c]) continue;
    writer.write_u32(static_cast<std::uint32_t>(c));
    writer.write_span(std::span<const float>(slabs_[c].get(), params_));
  }
}

void SparseErrorStore::deserialize(io::BinaryReader& reader, int num_clients,
                                   std::size_t params) {
  reset(num_clients, params);
  const std::uint64_t count = reader.read_u64();
  if (count > static_cast<std::uint64_t>(num_clients)) {
    throw std::runtime_error("SparseErrorStore: slab count exceeds clients");
  }
  std::int64_t prev = -1;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint32_t client = reader.read_u32();
    if (client >= static_cast<std::uint32_t>(num_clients) ||
        static_cast<std::int64_t>(client) <= prev) {
      throw std::runtime_error("SparseErrorStore: bad slab client id");
    }
    prev = static_cast<std::int64_t>(client);
    // The slab is read straight into its storage, which the model's size
    // bounds; no zero fill, since the read covers it or throws.
    auto slab = std::make_unique_for_overwrite<float[]>(params);
    reader.read_into(std::span<float>(slab.get(), params));
    slabs_[client] = std::move(slab);
  }
}

}  // namespace fedsu::core
