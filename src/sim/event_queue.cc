#include "sim/event_queue.h"

#include <utility>

#include "util/assert.h"

namespace realrate {

EventId EventQueue::Push(TimePoint when, Callback fn) {
  RR_EXPECTS(fn != nullptr);
  const EventId id = next_id_++;
  heap_.push(Entry{when, id, std::move(fn)});
  pending_.insert(id);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // Only live ids are tombstoned: a fired, unknown, or already-cancelled id is
  // rejected outright, so `cancelled_` can never outgrow the heap it shadows.
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return false;
  }
  pending_.erase(it);
  cancelled_.insert(id);
  return true;
}

EventId EventQueue::Resched(EventId id, TimePoint when, Callback fn) {
  Cancel(id);  // Tolerates a stale id: the common "clock already fired" race.
  return Push(when, std::move(fn));
}

void EventQueue::SkimCancelled() {
  while (!heap_.empty()) {
    auto it = cancelled_.find(heap_.top().id);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    heap_.pop();
  }
}

TimePoint EventQueue::PeekTime() {
  SkimCancelled();
  RR_EXPECTS(!heap_.empty());
  return heap_.top().when;
}

EventQueue::Popped EventQueue::Pop() {
  SkimCancelled();
  RR_EXPECTS(!heap_.empty());
  // priority_queue::top() returns const&; the callback must be moved out, so we cast.
  // Safe because we pop immediately afterwards.
  auto& top = const_cast<Entry&>(heap_.top());
  Popped out{top.id, top.when, std::move(top.fn)};
  heap_.pop();
  pending_.erase(out.id);
  return out;
}

}  // namespace realrate
