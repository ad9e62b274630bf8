#include "src/sim/trace_cache.h"

#include <algorithm>
#include <utility>

#include "src/trace/spec2000.h"

namespace samie::sim {

TraceCache::TraceCache(const std::vector<Job>& jobs,
                       const std::vector<bool>& resumed) {
  std::map<Key, std::size_t> rank;  // a trace's place in first-job order
  std::vector<std::pair<std::size_t, std::size_t>> by_trace;  // (rank, job)
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (resumed[i]) continue;
    const Key key = key_of(jobs[i]);
    ++pending_[key];
    by_trace.emplace_back(rank.try_emplace(key, rank.size()).first->second, i);
  }
  std::sort(by_trace.begin(), by_trace.end());
  order_.reserve(by_trace.size());
  for (const auto& entry : by_trace) order_.push_back(entry.second);
}

std::shared_ptr<const trace::TraceSource> TraceCache::get(const Job& job) {
  const Key key = key_of(job);
  {
    std::unique_lock lock(mu_);
    for (;;) {
      Slot& slot = slots_[key];
      high_water_ = std::max(high_water_, slots_.size());
      if (slot.ready) return slot.src;
      if (!slot.building) {
        slot.building = true;
        break;
      }
      cv_.wait(lock);
    }
  }
  // Build outside the lock: different keys materialize concurrently.
  std::shared_ptr<const trace::TraceSource> built;
  try {
    const std::string& path = job.config.trace_path;
    if (path.empty()) {
      built = std::make_shared<const trace::TraceSource>(
          trace::TraceSource::generate(trace::spec2000_profile(job.program),
                                       job.config.seed,
                                       job.config.instructions));
    } else {
      built = std::make_shared<const trace::TraceSource>(
          trace::TraceSource::open_samt(path));
    }
  } catch (...) {
    std::scoped_lock lock(mu_);
    slots_[key].building = false;  // next requester retries the build
    cv_.notify_all();
    throw;
  }
  std::scoped_lock lock(mu_);
  Slot& slot = slots_[key];
  slot.src = std::move(built);
  slot.ready = true;
  slot.building = false;
  cv_.notify_all();
  return slot.src;
}

void TraceCache::finished(const Job& job) {
  const Key key = key_of(job);
  std::shared_ptr<const trace::TraceSource> done;
  {
    std::scoped_lock lock(mu_);
    auto p = pending_.find(key);
    if (p == pending_.end() || --p->second != 0) return;
    pending_.erase(p);
    if (auto it = slots_.find(key); it != slots_.end()) {
      done = std::move(it->second.src);
      // Drop the slot: releasing the cache's reference is what lets the
      // trace free at all. No consumer of this key can arrive later:
      // every job was registered up front, and this was the last one.
      slots_.erase(it);
    }
  }
  // `done` goes out of scope here, outside the lock: a generated trace
  // is unmapped, an opened one freed, once its last worker drops it.
}

std::size_t TraceCache::resident_sources() const {
  std::scoped_lock lock(mu_);
  return slots_.size();
}

std::size_t TraceCache::resident_high_water() const {
  std::scoped_lock lock(mu_);
  return high_water_;
}

std::size_t TraceCache::pending_consumers(const Job& job) const {
  std::scoped_lock lock(mu_);
  const auto p = pending_.find(key_of(job));
  return p == pending_.end() ? 0 : p->second;
}

TraceCache::Key TraceCache::key_of(const Job& job) {
  const std::string& path = job.config.trace_path;
  if (path.empty()) {
    return Key{job.program, job.config.instructions, job.config.seed};
  }
  return Key{"file:" + path, 0, 0};
}

}  // namespace samie::sim
