// Persistent scratch memory for layer forward/backward passes.
//
// Layers request buffers keyed by (owner pointer, slot); a buffer grows to
// the largest size ever requested under its key and is reused across calls,
// so steady-state inference — the serve tier's cache-miss path — performs
// zero heap allocation once shapes have been seen. A Workspace is NOT
// thread-safe: use one per thread (the serve batcher keeps one per worker,
// the trainer one per training loop, and FormatSelector one under its
// inference lock for callers that pass none). Layers own none.
//
// Since the streaming-representation refactor, Workspace is a thin float
// view over the general TensorArena (src/tensor/arena.hpp) — the same
// arena abstraction the representation builder uses upstream of the net —
// kept as its own type so layer code keeps its narrow float-scratch API.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "tensor/arena.hpp"

namespace dnnspmv {

class Workspace {
 public:
  Workspace() = default;
  // A copy would share id() with its source.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Scratch buffer of at least `size` floats for (owner, slot). Contents
  /// are unspecified — callers must fully overwrite what they read back.
  float* get(const void* owner, int slot, std::int64_t size) {
    return arena_.floats(owner, slot, size);
  }

  /// Total floats currently held across all buffers.
  std::size_t floats_held() const {
    return arena_.bytes_held() / sizeof(float);
  }

  void clear() {
    arena_.clear();
    id_ = next_id();
  }

  /// Process-wide unique per workspace and renewed by clear(), so a layer
  /// that leaves data in a buffer for its next call (Conv2D's lowering,
  /// forward to backward) can tell that the buffer is still the one it
  /// wrote, even where a new workspace reuses a dead one's address.
  std::uint64_t id() const { return id_; }

  /// The backing arena, for callers that also need tensor-level slots.
  TensorArena& arena() { return arena_; }

 private:
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  TensorArena arena_;
  std::uint64_t id_ = next_id();
};

}  // namespace dnnspmv
