// Single-threaded discrete-event simulator: a virtual clock plus an event queue. All
// higher layers (dispatcher, controller, workloads) advance time only through this.
//
// Ownership: the Simulator owns the virtual clock, the event queue, the trace
// recorder, and one Cpu accounting object per simulated core; everything else
// (Machine, schedulers, registries) borrows it by reference and must not outlive it.
//
// Units: TimePoint/Duration are virtual nanoseconds since TimePoint::Origin();
// nothing in the simulator reads wall-clock time. Cycles are converted to virtual
// time through Cpu::CyclesToDuration at the configured clock rate.
//
// Thread-safety: none — the whole simulation is single-(host-)threaded by design,
// which is what makes runs bit-for-bit deterministic. Multi-core machines are
// simulated by interleaving per-core dispatch events on this one event queue, not by
// host threads. Do not touch a Simulator from more than one host thread.
#ifndef REALRATE_SIM_SIMULATOR_H_
#define REALRATE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_queue.h"
#include "sim/trace.h"
#include "util/time.h"

namespace realrate {

class Simulator {
 public:
  // A machine with `num_cpus` homogeneous cores (same CpuConfig each). The default is
  // the paper's uniprocessor.
  explicit Simulator(const CpuConfig& cpu_config = CpuConfig{}, int num_cpus = 1);

  TimePoint Now() const { return now_; }

  // Core accessors. `cpu()` with no argument is core 0 — the boot core — which keeps
  // every pre-SMP call site meaning exactly what it used to on a 1-core machine.
  Cpu& cpu(CpuId core = 0) {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cpus_.size());
    return cpus_[static_cast<size_t>(core)];
  }
  const Cpu& cpu(CpuId core = 0) const {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cpus_.size());
    return cpus_[static_cast<size_t>(core)];
  }
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  // Cycles charged to `category` summed over every core.
  Cycles UsedAllCpus(CpuUse category) const;

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  // Schedules `fn` at absolute time `t` (must not be in the past).
  EventId ScheduleAt(TimePoint t, EventQueue::Callback fn);
  // Schedules `fn` after `d` (must be non-negative).
  EventId ScheduleAfter(Duration d, EventQueue::Callback fn);
  bool Cancel(EventId id) { return events_.Cancel(id); }
  // Retires `id` (if still pending) and schedules `fn` at `t` in one call — the
  // decrease-key-free resched path for periodic clocks (dispatch ticks, timers).
  EventId Resched(EventId id, TimePoint t, EventQueue::Callback fn) {
    RR_EXPECTS(t >= now_);
    return events_.Resched(id, t, std::move(fn));
  }

  // Runs a single event; returns false if none pending.
  bool Step();
  // Runs all events with timestamps <= t, then sets the clock to t.
  void RunUntil(TimePoint t);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() { return events_.PendingCount(); }

 private:
  TimePoint now_ = TimePoint::Origin();
  EventQueue events_;
  std::vector<Cpu> cpus_;
  TraceRecorder trace_;
  uint64_t events_processed_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_SIM_SIMULATOR_H_
