#include "obs/slow_query_log.h"

#include <utility>

namespace rpqres::obs {

void SlowQueryLog::Push(SlowQueryRecord record) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  record.sequence = next_sequence_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<SlowQueryRecord> SlowQueryLog::Dump() const {
  MutexLock lock(mu_);
  std::vector<SlowQueryRecord> out;
  out.reserve(ring_.size());
  // Oldest first: once full, head_ points at the oldest record.
  for (size_t i = 0; i < ring_.size(); ++i) {
    const size_t index =
        ring_.size() < capacity_ ? i : (head_ + i) % capacity_;
    out.push_back(ring_[index]);
  }
  return out;
}

size_t SlowQueryLog::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t SlowQueryLog::total_recorded() const {
  MutexLock lock(mu_);
  return next_sequence_ - 1;  // sequences start at 1
}

void SlowQueryLog::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  head_ = 0;
}

}  // namespace rpqres::obs
