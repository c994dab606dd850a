// BoundedBuffer: the canonical symbiotic interface of the paper. A byte-counted queue
// between a producer and a consumer that exposes exactly what the kernel-side monitor
// needs: fill level, size, and each endpoint's role. Models shared-memory queues, pipes
// and sockets uniformly (the controller never looks deeper than fill/size/role).
//
// Thread-safety: none. Every operation, and every wake it triggers, runs inside a
// simulator event on the one host thread that drives the event loop.
#ifndef REALRATE_QUEUE_BOUNDED_BUFFER_H_
#define REALRATE_QUEUE_BOUNDED_BUFFER_H_

#include <functional>
#include <string>
#include <vector>

#include "util/assert.h"
#include "util/types.h"

namespace realrate {

class BoundedBuffer {
 public:
  using WakeFn = std::function<void(ThreadId)>;

  // capacity_bytes must be positive: a zero-capacity queue has no well-defined fill
  // fraction (the controller's progress metric divides by capacity) and could never
  // carry data, so construction rejects it outright.
  BoundedBuffer(QueueId id, std::string name, int64_t capacity_bytes);

  QueueId id() const { return id_; }
  const std::string& name() const { return name_; }
  int64_t capacity() const { return capacity_; }
  int64_t fill() const { return fill_; }
  bool Empty() const { return fill_ == 0; }
  bool Full() const { return fill_ == capacity_; }

  // Fill level as a fraction in [0, 1].
  double FillFraction() const { return static_cast<double>(fill_) / static_cast<double>(capacity_); }

  // The paper's progress metric F = fill/size - 1/2, in [-1/2, +1/2] (Figure 3).
  double PressureMetric() const { return FillFraction() - 0.5; }

  // Installed by the machine so queue state changes can wake blocked threads.
  void SetWakeFn(WakeFn fn) { wake_fn_ = std::move(fn); }

  // Installed by the owning registry: every fill-level change is mirrored into
  // *aggregate as a delta, giving the registry a machine-wide fill sum that is O(1)
  // to read (the cluster router's queue-pressure signal) without a per-read sweep.
  void SetFillAggregate(int64_t* aggregate) {
    fill_aggregate_ = aggregate;
    if (fill_aggregate_ != nullptr) {
      *fill_aggregate_ += fill_;
    }
  }

  // Attempts to append `bytes` (0 < bytes <= capacity; an item that exceeds the whole
  // queue could never fit and would livelock a producer waiting for space, so it is a
  // contract violation). Returns false (and changes nothing) if it doesn't fit right
  // now — including the exactly-full case, where a push of precisely the remaining
  // space still succeeds. On success, wakes all waiting consumers.
  bool TryPush(int64_t bytes);
  // Attempts to remove up to `bytes`; returns the number removed (0 when empty).
  // On any removal, wakes all waiting producers.
  int64_t TryPop(int64_t bytes);
  // Removes exactly `bytes` or nothing (0 < bytes <= capacity — the mirror of the
  // TryPush contract: an exact request exceeding the whole queue could never be
  // satisfied and would livelock a consumer waiting for data). Returns whether it
  // removed.
  bool TryPopExact(int64_t bytes);

  // Registers the calling thread as waiting for space (producer) or data (consumer).
  // The machine marks the thread blocked; a later TryPush/TryPop wakes it.
  void WaitForSpace(ThreadId thread);
  void WaitForData(ThreadId thread);

  // Total bytes ever pushed/popped (progress counters for experiments).
  int64_t total_pushed() const { return total_pushed_; }
  int64_t total_popped() const { return total_popped_; }

  // Saturation evidence for the controller's quality-exception detector: number of
  // operations that found the queue too full (failed push) or too empty (pop that got
  // nothing / failed exact pop).
  int64_t full_hits() const { return full_hits_; }
  int64_t empty_hits() const { return empty_hits_; }

  // Change epoch: bumped by every TryPush/TryPop/TryPopExact (each mutates the fill
  // level or a saturation counter, so each changes what the controller could observe
  // here). The controller's dirty-set sampler skips its per-tick pressure and
  // saturation sweeps for threads whose linked queues all kept their epoch since the
  // previous tick.
  uint64_t change_epoch() const { return change_epoch_; }

  const std::vector<ThreadId>& waiting_producers() const { return waiting_producers_; }
  const std::vector<ThreadId>& waiting_consumers() const { return waiting_consumers_; }

 private:
  void WakeAll(std::vector<ThreadId>& waiters);
  void ApplyFillDelta(int64_t delta) {
    fill_ += delta;
    if (fill_aggregate_ != nullptr) {
      *fill_aggregate_ += delta;
    }
  }

  const QueueId id_;
  const std::string name_;
  const int64_t capacity_;
  int64_t fill_ = 0;
  int64_t total_pushed_ = 0;
  int64_t total_popped_ = 0;
  int64_t full_hits_ = 0;
  int64_t empty_hits_ = 0;
  uint64_t change_epoch_ = 0;
  int64_t* fill_aggregate_ = nullptr;
  WakeFn wake_fn_;
  std::vector<ThreadId> waiting_producers_;
  std::vector<ThreadId> waiting_consumers_;
};

}  // namespace realrate

#endif  // REALRATE_QUEUE_BOUNDED_BUFFER_H_
