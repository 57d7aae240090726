#include "core/lru_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace dnnspmv {

LruShard::LruShard(std::size_t capacity) : capacity_(capacity) {
  DNNSPMV_CHECK_MSG(capacity > 0, "LRU shard capacity must be positive");
}

bool LruShard::get(std::uint64_t key, std::int32_t& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  order_.splice(order_.begin(), order_, it->second);
  out = it->second->second;
  return true;
}

void LruShard::put(std::uint64_t key, std::int32_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = value;
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  if (order_.size() >= capacity_) {
    index_.erase(order_.back().first);
    order_.pop_back();
  }
  order_.emplace_front(key, value);
  index_[key] = order_.begin();
}

std::size_t LruShard::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_.size();
}

void LruShard::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  order_.clear();
  index_.clear();
}

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shards) {
  DNNSPMV_CHECK_MSG(capacity > 0 && shards > 0,
                    "cache capacity and shard count must be positive");
  shards = std::min(shards, capacity);
  const std::size_t per_shard = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<LruShard>(per_shard));
}

LruShard& ShardedLruCache::shard_for(std::uint64_t key) {
  // Re-mix so shard selection does not reuse the same low bits an
  // unordered_map bucket index would.
  return *shards_[splitmix64(key) % shards_.size()];
}

bool ShardedLruCache::get(std::uint64_t key, std::int32_t& out) {
  return shard_for(key).get(key, out);
}

void ShardedLruCache::put(std::uint64_t key, std::int32_t value) {
  shard_for(key).put(key, value);
}

std::size_t ShardedLruCache::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

void ShardedLruCache::clear() {
  for (auto& s : shards_) s->clear();
}

}  // namespace dnnspmv
