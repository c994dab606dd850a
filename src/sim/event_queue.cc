#include "sim/event_queue.h"

#include <utility>

#include "util/assert.h"

namespace realrate {

void EventQueue::Push(TimePoint when, Callback fn) {
  RR_EXPECTS(fn != nullptr);
  heap_.push(Entry{when, next_seq_++, std::move(fn)});
}

TimePoint EventQueue::PeekTime() const {
  RR_EXPECTS(!heap_.empty());
  return heap_.top().when;
}

EventQueue::Popped EventQueue::Pop() {
  RR_EXPECTS(!heap_.empty());
  // priority_queue::top() returns const&; the callback must be moved out, so we cast.
  // Safe because we pop immediately afterwards.
  auto& top = const_cast<Entry&>(heap_.top());
  Popped out{top.when, std::move(top.fn)};
  heap_.pop();
  return out;
}

}  // namespace realrate
