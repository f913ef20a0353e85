#include "engine/plan_cache.h"

#include <algorithm>

namespace rpqres {

PlanCache::PlanCache(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

std::shared_ptr<const CompiledQuery> PlanCache::Lookup(
    const std::string& regex, Semantics semantics) {
  MutexLock lock(mu_);
  auto it = index_.find(Key{regex, semantics});
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->second;
}

void PlanCache::Insert(std::shared_ptr<const CompiledQuery> query) {
  Key key{query->regex, query->semantics};
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(query);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(query));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void PlanCache::ResetStats() {
  MutexLock lock(mu_);
  stats_ = Stats{};
}

}  // namespace rpqres
