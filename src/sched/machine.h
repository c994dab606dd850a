// Machine: the simulated kernel's dispatch engine, generalized to N CPUs. Each core
// owns a dispatch clock (the paper's 1 ms dispatch interval), a scheduler instance
// (its run queue), and its own overhead/backlog accounting; the Machine additionally
// owns the global timer subsystem (sleep list, serviced by core 0 — the boot core),
// the least-loaded placement policy for new threads, and the periodic rebalancer that
// migrates threads off proportion-over-subscribed cores.
//
// The paper's squish/overload logic operates within one core's 100% budget (see
// core/controller.h); the Machine is what turns N such budgets into one machine by
// deciding which core each thread's proportion is drawn from.
//
// Idle fast-forward (config.idle_fast_forward, on by default): when a dispatch round
// ends with no runnable thread anywhere and no overhead backlog, the Machine stops
// scheduling per-tick callbacks and suspends its dispatch clocks — the event-driven
// alternative to burning one simulator event per empty tick. The next machine-visible
// stimulus resumes them: a wake (queue/mutex/tty/timer), a new thread, a migration, or
// an overhead charge. Sleeper expiries are covered by a single "horizon" event armed
// at the tick that would service the earliest sleeper. On resume the skipped ticks are
// replayed in bulk — tick/dispatch counters, timer/dispatch/idle charges, and the
// schedulers' OnTicksSkipped catch-up — so counters, accounting, budgets, and the
// trace are bit-identical to a machine that ticked through the idle span (the
// differential harness cross-checks this equivalence over fuzz seeds). The only
// observable difference is that MachineChecker::OnTickComplete is not invoked for
// skipped ticks (there was, by construction, nothing to check). RunFor() settles the
// catch-up at the end of a run; callers driving the Simulator directly should prefer
// Machine::RunFor when they read tick-granularity introspection afterwards.
//
// Ownership: the Machine borrows the Simulator, the per-core Schedulers, and the
// ThreadRegistry — all must outlive it. It owns nothing but its per-core bookkeeping.
//
// Units: all externally visible quantities are either simulated Cycles (work,
// budgets, overheads) or virtual-time Duration/TimePoint (dispatch interval, sleep
// deadlines). dispatch_hz() is dispatches per virtual second. Nothing here is
// wall-clock.
//
// Thread-safety: none — like everything above the Simulator, the Machine runs inside
// single-threaded simulator events. Per-core state is "per-core" in the simulated
// machine, not per-host-thread; cores interleave deterministically on one event queue
// (each tick, cores run in ascending core-id order).
//
// Single-CPU compatibility: a Machine built with one scheduler (the legacy
// constructor) schedules exactly the same events, in the same order, with the same
// costs as the pre-SMP implementation, so cpus=1 traces are bit-identical to the
// original single-CPU machine (tests/smp_test.cc pins this).
#ifndef REALRATE_SCHED_MACHINE_H_
#define REALRATE_SCHED_MACHINE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "queue/bounded_buffer.h"
#include "queue/sim_mutex.h"
#include "queue/tty.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "task/registry.h"

namespace realrate {

class Machine;

// Observation interface for runtime invariant oracles (src/harness). The Machine
// invokes an installed checker synchronously from inside the dispatch engine, so a
// checker sees every scheduling decision at the instant it is made. Checkers must be
// read-only observers: they may walk the machine, registry, and trace, but must not
// mutate simulation state — installing one must leave the schedule bit-identical.
// Ticks elided by idle fast-forward do not invoke OnTickComplete: they dispatched
// nothing, and their accounting is settled in bulk at resume time.
class MachineChecker {
 public:
  virtual ~MachineChecker() = default;
  // After `core`'s scheduler picked `pick` and before `pick` runs. A null `pick` is
  // an idle decision: the core idles out the rest of the tick, whose idle cycles are
  // already charged.
  virtual void OnPicked(const Machine& machine, CpuId core, const SimThread* pick,
                        TimePoint now) = 0;
  // After `core`'s dispatch tick completed.
  virtual void OnTickComplete(const Machine& machine, CpuId core, TimePoint now) = 0;
};

struct MachineConfig {
  // The dispatch interval (upper-bounded by the timer interval; 1 ms in the paper).
  Duration dispatch_interval = Duration::Millis(1);
  // If false, dispatch/context-switch/timer costs are not deducted from capacity
  // (useful for pure-policy unit tests that want exact cycle math).
  bool charge_overheads = true;
  // Skip runs of empty dispatch ticks instead of scheduling a callback per tick (see
  // the header comment). Behavior-preserving; disable only to A/B the event count or
  // to debug the catch-up path itself.
  bool idle_fast_forward = true;
  // --- SMP policy knobs (ignored on a 1-core machine) ---
  // How often the rebalancer looks for proportion-over-subscribed cores. Zero
  // disables rebalancing entirely.
  Duration rebalance_interval = Duration::Millis(100);
  // A core whose reserved-proportion sum exceeds this is over-subscribed: the
  // rebalancer migrates its smallest reservations to the least-loaded core for as
  // long as each move strictly reduces the machine's load spread. Defaults just
  // under the controller's 0.95 admission ceiling so a core pinned at the squish
  // ceiling counts as over-subscribed.
  double rebalance_threshold = 0.9;
  // Must be 1; stays only for perfbench/rrbench.cc, goes with the next benchmark change.
  int host_threads = 1;
};

class Machine {
 public:
  // Single-core machine (the paper's uniprocessor): `scheduler` is core 0's run
  // queue. Requires a 1-CPU simulator.
  Machine(Simulator& sim, Scheduler& scheduler, ThreadRegistry& registry,
          const MachineConfig& config = MachineConfig{});
  // SMP machine: one scheduler (run queue) per core, in core-id order. Requires
  // schedulers.size() == sim.num_cpus().
  Machine(Simulator& sim, std::vector<Scheduler*> schedulers, ThreadRegistry& registry,
          const MachineConfig& config = MachineConfig{});

  // Schedules the first tick on every core (and the rebalancer on SMP machines).
  // Call once before Simulator::Run*.
  void Start();

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Scheduler& scheduler(CpuId core = 0) { return *CoreAt(core).scheduler; }
  ThreadRegistry& registry() { return registry_; }
  const ThreadRegistry& registry() const { return registry_; }

  // Installs (or clears, with nullptr) the invariant-oracle hook. The checker is
  // borrowed and must outlive the machine or be cleared before destruction.
  void SetChecker(MachineChecker* checker) { checker_ = checker; }

  // Migration observer: invoked synchronously from every Migrate() (controller
  // steering and the rebalancer alike) after the thread's affinity moved. The
  // feedback controller installs one to keep its per-core BudgetLedger registered
  // with where each fixed reservation's proportion is drawn from. One observer at a
  // time; install nullptr to clear (the controller's destructor does). The hook must
  // not mutate machine state.
  using MigrationHook = std::function<void(SimThread*, CpuId from, CpuId to)>;
  void SetMigrationHook(MigrationHook hook) { migration_hook_ = std::move(hook); }
  const MachineConfig& config() const { return config_; }
  double dispatch_hz() const { return 1.0 / config_.dispatch_interval.ToSeconds(); }
  int num_cpus() const { return static_cast<int>(cores_.size()); }

  // Adds a thread to the machine (it must already be in the registry): places it on
  // the least-loaded core and enqueues it with that core's scheduler.
  void Attach(SimThread* thread);

  // Wires a wait object's wake callback to this machine.
  void Attach(BoundedBuffer* queue);
  void Attach(SimMutex* mutex);
  void Attach(TtyPort* tty);

  // Wakes a blocked thread (queue/mutex/tty callbacks land here) on its assigned
  // core. Waking a thread that is not blocked is a no-op (spurious wake).
  void Wake(ThreadId thread_id);

  // Puts `thread` (currently runnable) to sleep until `wake_at`.
  void SleepUntil(SimThread* thread, TimePoint wake_at);

  // Wakes a sleeping thread before its timer expires (e.g. the controller raised its
  // budget mid-period). No-op unless the thread is kSleeping.
  void CancelSleep(SimThread* thread);

  // Deducts external overhead (e.g. the user-level controller's computation) from the
  // capacity of `core`'s upcoming ticks and charges the given accounting category.
  // The user-level controller runs on the boot core, hence the default.
  void StealCycles(CpuUse category, Cycles cycles, CpuId core = 0);

  // Settles idle-fast-forward catch-up through (but excluding) a tick at `now`, so an
  // external observer running before this timestamp's tick — the controller, above
  // all — sees exactly the state a continuously ticking machine would show it.
  // No-op unless suspended. Does not resume the dispatch clocks.
  void SyncSkippedTicks(TimePoint now);

  // Cluster epoch fence: settles idle-fast-forward catch-up at `now`, so the
  // cluster layer's epoch-boundary reads (ledger spare, queue pressure) and
  // migrations observe exactly the state a continuously ticking machine would
  // show. The cluster rebalancer must call this before touching any
  // cross-machine state.
  void EpochFence(TimePoint now);
  int64_t epoch_fences() const { return epoch_fences_; }

  // --- Placement / migration (the SMP policy surface) ---
  // The core Attach would place a new thread on right now: smallest reserved
  // proportion, ties broken by fewest attached threads, then lowest core id.
  // `placing` (if non-null) is excluded from the census — pass the thread being
  // placed when it is already registered.
  CpuId LeastLoadedCore(const SimThread* placing = nullptr) const;
  // Moves `thread` to `core`: removes it from its current core's run queue, updates
  // its affinity, and enqueues it with the target scheduler. No-op if already there.
  // Must not be called for a thread that is currently on-CPU (mid-dispatch).
  void Migrate(SimThread* thread, CpuId core);
  // Sum of reserved proportions (fractions of one core) of threads assigned to
  // `core`, optionally excluding one thread.
  double ReservedFractionOn(CpuId core, const SimThread* excluding = nullptr) const;
  // Live (non-exited) threads assigned to `core`, optionally excluding one thread.
  int ThreadCountOn(CpuId core, const SimThread* excluding = nullptr) const;

  // Convenience: run the simulation for `d` of virtual time, then settle any pending
  // idle-fast-forward catch-up so counters and accounting read as if every tick ran.
  void RunFor(Duration d);

  // --- Introspection for tests and experiments ---
  // Machine-wide totals (sums over cores)...
  int64_t dispatches() const;
  int64_t context_switches() const;
  int64_t migrations() const { return migrations_; }
  // ...and per-core views. ticks() is per-core because cores tick in lockstep; core
  // 0's count is the machine's tick count.
  int64_t dispatches_on(CpuId core) const { return CoreAt(core).dispatches; }
  int64_t context_switches_on(CpuId core) const { return CoreAt(core).context_switches; }
  int64_t ticks() const { return CoreAt(0).ticks; }
  Cycles cycles_per_tick() const { return cycles_per_tick_; }
  // Observability for the fast-forward machinery: how many dispatch-clock
  // suspensions have begun, and whether one is in effect right now.
  int64_t idle_suspensions() const { return idle_suspensions_; }
  bool idle_suspended() const { return suspended_; }

 private:
  struct SleepEntry {
    TimePoint wake_at;
    uint64_t generation;
    ThreadId thread;
    bool operator>(const SleepEntry& other) const {
      if (wake_at != other.wake_at) {
        return wake_at > other.wake_at;
      }
      return generation > other.generation;
    }
  };

  // Sleep-generation bookkeeping: which incarnation of "this thread is asleep" the
  // heap entries refer to (0 = not asleep), in a dense ThreadId-indexed vector.
  uint64_t SleepGenOf(ThreadId id) const;
  void SetSleepGen(ThreadId id, uint64_t gen);
  void ClearSleepGen(ThreadId id);

  // Per-core dispatcher state: the run queue (scheduler) plus everything the
  // pre-SMP Machine kept as single members.
  struct Core {
    Scheduler* scheduler = nullptr;
    SimThread* last_ran = nullptr;
    Cycles stolen_backlog = 0;
    int64_t dispatches = 0;
    int64_t context_switches = 0;
    int64_t ticks = 0;
    EventId next_tick_event = kInvalidEventId;  // Pending Tick callback, if any.
    bool round_had_pick = false;  // Did this core dispatch anything this tick round?
  };

  Core& CoreAt(CpuId core) {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cores_.size());
    return cores_[static_cast<size_t>(core)];
  }
  const Core& CoreAt(CpuId core) const {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cores_.size());
    return cores_[static_cast<size_t>(core)];
  }

  void Tick(CpuId core);
  void WakeExpiredSleepers(TimePoint now);
  // Files a sleeper into the timing wheel (short sleeps, the common case) or the
  // far heap (wakes beyond the wheel window).
  void PushSleeper(const SleepEntry& entry);
  // Runs work for up to `cycles_left` on `core`; one iteration of the intra-tick
  // dispatch loop.
  void DispatchLoop(Core& core, CpuId core_id, TimePoint now, Cycles cycles_left);
  void ApplyRunResult(Core& core, SimThread* thread, const RunResult& result, TimePoint now);
  // One pass of the over-subscription rebalancer; reschedules itself.
  void Rebalance();

  // --- Idle fast-forward ---
  // True when the whole machine is provably idle going forward: no runnable thread
  // on any core and no overhead backlog to absorb.
  bool ShouldSuspend() const;
  // Stops the per-tick clocks (cancelling already-scheduled ticks) and arms the
  // sleeper-horizon event. Called at the end of the last core's tick in a round.
  void Suspend();
  // Arms (or re-arms) the horizon event at the tick that will service the earliest
  // live sleeper; no event if the sleep list is empty.
  void ArmHorizon();
  // Replays the accounting of one elided idle tick on `core_id`, exactly as the
  // skipped Tick would have charged it.
  void AccountIdleTick(CpuId core_id);
  // Replays all elided ticks at grid points in (accounted_through_, upto) — or
  // (..., upto] with `inclusive` — updating counters, charges, and scheduler state.
  void AccountSkippedTicks(TimePoint upto, bool inclusive);
  // Settles catch-up strictly before `now` and restarts the per-core tick clocks at
  // the next grid point. No-op unless suspended.
  void ResumeTicking();

  Simulator& sim_;
  ThreadRegistry& registry_;
  MachineConfig config_;
  std::vector<Core> cores_;
  Cycles cycles_per_tick_ = 0;

  // The registry's hot-field slabs. The machine-wide sweeps (census, rebalancer
  // victim scan, idle-suspension check) and the wake/timer spurious-wake tests read
  // these columns instead of chasing SimThread*. Slot == id, and slot order is
  // registry creation order, which keeps even floating-point sums in the order a
  // sweep over the registry's threads would add them.
  const ThreadSlabs& slabs_;

  // Sleeper bookkeeping is a two-level structure. Short sleeps — the overwhelmingly
  // common case: one reservation period, a few dispatch ticks — go into a timing
  // wheel of per-tick buckets (O(1) push_back, one bucket append/clear per tick)
  // instead of sifting through a machine-wide binary heap on every block and wake.
  // Sleeps past the wheel window land in the far heap, which works exactly like the
  // original single heap. WakeExpiredSleepers merges both sources and sorts the due
  // batch by (wake_at, generation) — the order the single heap popped in — so wake
  // processing, and therefore the trace, is bit-identical to the one-heap machine.
  static constexpr int64_t kSleepWheelTicks = 128;
  static constexpr int64_t kNoTick = INT64_MIN;
  std::vector<std::vector<SleepEntry>> sleep_wheel_;  // Ring of kSleepWheelTicks buckets.
  int64_t sleep_wheel_cursor_ = kNoTick;  // First undrained tick index.
  int64_t sleep_wheel_count_ = 0;         // Entries currently in the wheel.
  std::vector<SleepEntry> wake_batch_;    // WakeExpiredSleepers's reused scratch.
  std::priority_queue<SleepEntry, std::vector<SleepEntry>, std::greater<SleepEntry>> sleepers_;
  std::vector<uint64_t> sleep_gen_;  // Indexed by ThreadId; see SleepGenOf.
  uint64_t next_generation_ = 1;

  // Fast-forward state: the last tick grid point whose effects (real or replayed)
  // are reflected in counters and accounting, and the armed sleeper-horizon event.
  TimePoint accounted_through_ = TimePoint::Origin();
  bool suspended_ = false;
  EventId horizon_event_ = kInvalidEventId;
  int64_t idle_suspensions_ = 0;
  int64_t epoch_fences_ = 0;

  int64_t migrations_ = 0;
  bool started_ = false;
  MachineChecker* checker_ = nullptr;
  MigrationHook migration_hook_;
};

}  // namespace realrate

#endif  // REALRATE_SCHED_MACHINE_H_
