// Folds tracer batches into per-span-name sums: total time, self time
// (minus same-thread children), counts, and the per-query shard imbalance.
#include <algorithm>
#include <cstring>

#include "hydrabench.h"

namespace hydrabench {

namespace {

using hydra::obs::CollectedEvent;

constexpr double kNsPerMs = 1e6;

}  // namespace

void TraceFold::Add(const std::vector<CollectedEvent>& events) {
  // Per thread, in start order with enclosing spans first, so a stack of
  // open spans yields each span's parent.
  std::vector<const CollectedEvent*> order;
  order.reserve(events.size());
  for (const CollectedEvent& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const CollectedEvent* a, const CollectedEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->dur_ns > b->dur_ns;
            });
  std::vector<uint64_t> child_ns(events.size(), 0);
  std::vector<size_t> stack;  // indices into `order`
  for (size_t i = 0; i < order.size(); ++i) {
    const CollectedEvent& e = *order[i];
    while (!stack.empty()) {
      const CollectedEvent& top = *order[stack.back()];
      if (top.tid == e.tid && e.start_ns < top.start_ns + top.dur_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += e.dur_ns;
    stack.push_back(i);
  }

  std::vector<double> shard_ms;
  for (size_t i = 0; i < order.size(); ++i) {
    const CollectedEvent& e = *order[i];
    Sums& s = sums_[e.name];
    s.total_ms += static_cast<double>(e.dur_ns) / kNsPerMs;
    s.self_ms += static_cast<double>(e.dur_ns - std::min(e.dur_ns, child_ns[i])) /
                 kNsPerMs;
    s.count += 1;
    if (std::strcmp(e.name, "shard_search") == 0) {
      shard_ms.push_back(static_cast<double>(e.dur_ns) / kNsPerMs);
    }
  }
  if (shard_ms.size() >= 2) {
    double sum = 0.0;
    for (const double ms : shard_ms) sum += ms;
    const double mean = sum / static_cast<double>(shard_ms.size());
    if (mean > 0.0) {
      imbalance_sum_ +=
          *std::max_element(shard_ms.begin(), shard_ms.end()) / mean;
      imbalance_batches_ += 1;
    }
  }
}

double TraceFold::total_ms(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second.total_ms;
}

double TraceFold::self_ms(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second.self_ms;
}

int64_t TraceFold::count(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second.count;
}

double TraceFold::shard_imbalance() const {
  return imbalance_batches_ == 0
             ? 0.0
             : imbalance_sum_ / static_cast<double>(imbalance_batches_);
}

}  // namespace hydrabench
