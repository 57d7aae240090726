// Sharded LRU prediction cache: matrix key -> candidate-format index.
//
// Each shard is an intrusive-list LRU guarded by its own mutex; a key's
// shard is fixed by its high hash bits, so two threads touching different
// matrices rarely contend. Capacity is divided evenly across shards and
// eviction is per-shard (global recency order is approximated, which is the
// standard trade for shard-local locking).
//
// The value type is the selector's candidate index (std::int32_t), not a
// Format: an entry is only meaningful relative to the weights that filled
// it, which its key must name, and the index is what the batcher produces.
// The cache keeps no counts of its own: SelectionService counts its hits and
// misses in its metrics table (serve/metrics.hpp).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dnnspmv {

/// Single-shard LRU (exposed for tests; use ShardedLruCache in services).
class LruShard {
 public:
  explicit LruShard(std::size_t capacity);

  /// True plus `out` on hit; refreshes the entry to most-recently-used.
  bool get(std::uint64_t key, std::int32_t& out);

  /// Inserts or refreshes; evicts the least-recently-used entry when full.
  void put(std::uint64_t key, std::int32_t value);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  using Entry = std::pair<std::uint64_t, std::int32_t>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

class ShardedLruCache {
 public:
  /// `capacity` entries total, split across `shards` (rounded up so every
  /// shard holds at least one entry).
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 8);

  bool get(std::uint64_t key, std::int32_t& out);
  void put(std::uint64_t key, std::int32_t value);

  std::size_t size() const;
  std::size_t num_shards() const { return shards_.size(); }
  void clear();

 private:
  LruShard& shard_for(std::uint64_t key);

  std::vector<std::unique_ptr<LruShard>> shards_;
};

/// The cache type of the selection pipeline: SelectionService keys it by
/// op-scoped, versioned structural fingerprint, AdaptiveSpmv by pattern_key
/// and the selector's weights_id().
using PredictionCache = ShardedLruCache;

}  // namespace dnnspmv
