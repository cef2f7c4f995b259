// Per-thread, capacity-retaining bump allocator for kernel scratch memory.
//
// The training hot path (conv gradient columns, GEMM pack panels, per-sample
// gradient staging) needs short-lived buffers on every batch. Allocating
// them with new/std::vector costs a heap round-trip per call and, worse,
// makes throughput dependent on allocator state. A ScratchArena instead
// bumps a cursor through blocks it never returns to the heap: the first
// batch grows the arena to the workload's peak demand, and every batch
// after that is allocation-free (verified by test_nn_step.cpp).
//
// Usage pattern:
//   ScratchArena& arena = ScratchArena::local();   // this thread's arena
//   ScratchArena::Frame frame(arena);              // marks the cursor
//   float* cols = arena.floats(fan_in * patch);
//   ...                                            // valid until frame pops
//   // ~Frame rewinds the cursor; capacity is retained for the next call.
//
// Frames nest (strict LIFO): a GEMM called while a conv backward holds a
// frame opens its own inner frame for pack buffers without clobbering the
// outer allocations. Pointers handed out stay stable for the lifetime of
// their frame — blocks are never moved or freed by a rewind.
//
// Thread safety: none by design. Each thread uses its own arena via
// local(); pool workers are long-lived (util::ThreadPool), so worker
// arenas also reach a steady state after the first parallel batch.
#pragma once

#include <cstddef>
#include <vector>

namespace fedsu::util {

class ScratchArena {
 public:
  ScratchArena() = default;
  ~ScratchArena();

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  // RAII cursor mark; destruction rewinds the arena to where it was when
  // the frame opened, making that space reusable without freeing it.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena)
        : arena_(arena), block_(arena.block_), offset_(arena.offset_) {}
    ~Frame() {
      arena_.block_ = block_;
      arena_.offset_ = offset_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena& arena_;
    std::size_t block_;
    std::size_t offset_;
  };

  // Returns a 64-byte-aligned buffer of `count` floats, uninitialized,
  // valid until the innermost enclosing Frame pops. count == 0 returns a
  // valid (dereferenceable-for-zero-elements) pointer.
  float* floats(std::size_t count) {
    return static_cast<float*>(bytes(count * sizeof(float)));
  }

  // Raw 64-byte-aligned variant of floats().
  void* bytes(std::size_t size);

  // Number of heap allocations ever made (== block count; blocks are never
  // freed before destruction). Stable across batches once warmed up — the
  // zero-allocation tests key off this.
  std::size_t grow_count() const { return blocks_.size(); }

  // Total bytes owned across all blocks.
  std::size_t capacity_bytes() const;

  // The calling thread's arena (thread_local; constructed on first use).
  static ScratchArena& local();

 private:
  struct Block {
    void* data;
    std::size_t capacity;
  };

  // Appends a block able to hold `size` bytes and makes it current.
  void grow(std::size_t size);

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // index of the block the cursor is in
  std::size_t offset_ = 0;  // bytes used in blocks_[block_]
};

}  // namespace fedsu::util
