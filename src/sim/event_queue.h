// Priority queue of timestamped events with stable FIFO ordering for equal
// timestamps. The deterministic heart of the simulator.
//
// A pushed event always fires: the queue has no cancellation. An owner that may
// need to retire an event it already scheduled captures a generation of its own in
// the callback, which returns without effect once that generation is stale (the
// Machine's dispatch ticks and sleeper horizon carry its clock epoch). Every event
// costs one heap push and one heap pop and nothing else.
#ifndef REALRATE_SIM_EVENT_QUEUE_H_
#define REALRATE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/time.h"

namespace realrate {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Enqueues `fn` to run at `when`. Events with equal `when` run in insertion order.
  void Push(TimePoint when, Callback fn);

  bool Empty() const { return heap_.empty(); }
  // Timestamp of the earliest pending event. Requires !Empty().
  TimePoint PeekTime() const;
  // Removes and returns the earliest pending event. Requires !Empty().
  struct Popped {
    TimePoint when;
    Callback fn;
  };
  Popped Pop();

  // Number of pushed events that have not been popped yet.
  size_t PendingCount() const { return heap_.size(); }

 private:
  struct Entry {
    TimePoint when;
    uint64_t seq;  // FIFO tiebreaker: issued monotonically by Push.
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_SIM_EVENT_QUEUE_H_
