// Priority queue of timestamped events with stable FIFO ordering for equal timestamps
// and O(log n) cancellation (lazy deletion). The deterministic heart of the simulator.
//
// Cancellation cost is bounded: a live-id set distinguishes pending events from fired
// or unknown ones, so cancelling a stale id is a rejected no-op instead of an
// unbounded tombstone insertion, and PendingCount() is an O(1) read of the live set
// rather than a heap sweep. Resched() is the decrease-key-free path for periodic
// clocks (e.g. the Machine's per-core dispatch ticks): it retires the old entry by id
// and pushes a fresh one, costing one bounded tombstone instead of a heap rebuild.
#ifndef REALRATE_SIM_EVENT_QUEUE_H_
#define REALRATE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "util/time.h"

namespace realrate {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Enqueues `fn` to run at `when`. Events with equal `when` run in insertion order.
  EventId Push(TimePoint when, Callback fn);

  // Cancels a pending event. Cancelling an already-fired, already-cancelled, or
  // unknown id is a no-op and returns false — and, unlike a tombstone-only scheme,
  // costs no memory.
  bool Cancel(EventId id);

  // Cancels `id` (if still pending) and pushes `fn` at `when`, returning the new id.
  // The one-call resched path for periodic clocks: no decrease-key, no heap rebuild —
  // the retired entry becomes a single tombstone reclaimed at pop time.
  EventId Resched(EventId id, TimePoint when, Callback fn);

  bool Empty() const { return pending_.empty(); }
  // Timestamp of the earliest pending event. Requires !Empty().
  TimePoint PeekTime();
  // Removes and returns the earliest pending event. Requires !Empty().
  struct Popped {
    EventId id;
    TimePoint when;
    Callback fn;
  };
  Popped Pop();

  // Number of pending (pushed, not yet fired or cancelled) events. O(1), and exact:
  // cancelled entries still buried in the heap are not counted.
  size_t PendingCount() const { return pending_.size(); }

 private:
  struct Entry {
    TimePoint when;
    EventId id;  // Doubles as the FIFO tiebreaker: ids are issued monotonically.
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;
    }
  };

  // Drops cancelled entries from the heap top.
  void SkimCancelled();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  // Live ids: pushed, not yet fired or cancelled. The authority for Empty/
  // PendingCount and the guard that keeps `cancelled_` bounded by the heap size.
  std::unordered_set<EventId> pending_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
};

}  // namespace realrate

#endif  // REALRATE_SIM_EVENT_QUEUE_H_
