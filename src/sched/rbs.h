// RbsScheduler: the paper's reservation-based proportion/period scheduler (§3.1).
// Rate-monotonic ordering (the paper's goodness order, keyed on PeriodRank), per-period
// cycle budgets, and sleep-until-next-period once a thread has used its allocation.
// Threads without a reservation fall back to round-robin behind all reserved threads,
// mirroring "our policy calculates goodness to ensure that threads it controls have
// higher goodness than jobs under other policies, and that jobs with shorter periods
// have higher goodness values."
//
// Dispatch hot path (see docs/ARCHITECTURE.md, "The dispatch hot path"): every
// enqueued thread lives in its registry's hot-field slabs (task/thread_slabs.h), and
// the scheduler keeps each thread's slot index-aligned with its thread vector, so every
// sweep below reads slab columns in admission order instead of chasing SimThread*.
//   - Reserved threads with remaining budget live in a pick index keyed by
//     incrementally maintained period rank (rate-monotonic mode) or period deadline
//     (EDF mode), with the thread's admission sequence number as the tiebreaker —
//     exactly the tie order of the original scan, which resolved equal goodness by
//     position in the (arrival-ordered) thread vector. The index is a vector-backed
//     min-heap with lazy deletion (generation-stamped entries), so the block/wake
//     storm of a dense farm costs O(1) per eligibility exit and an allocation-free
//     O(log n) push per entry, with no tree nodes to chase.
//   - Period replenishment is one deadline-column sweep per tick: a streaming pass
//     over three small columns that touches only the threads whose period closed.
//   - Best-effort (and, in work-conserving mode, budget-exhausted) threads are
//     summarized by a secondary occupancy index — runnable counts that let PickNext
//     skip the round-robin fallback scan entirely in the common all-blocked case; the
//     scan itself is kept verbatim because its cursor semantics are positional.
// The original O(n) scan survives as PickNextReference(); RbsConfig::shadow_check
// makes every PickNext assert indexed pick == reference pick (the shadow-scheduler
// mode the fuzz harness runs).
//
// Pick modes (RbsConfig::pick_mode): the index wins big at high occupancy but its
// maintenance (Reindex on every state/budget mutation) is pure overhead at a handful
// of threads per core, where the O(n) column scan fits in a few cachelines. kAuto
// therefore runs maintenance-off below auto_index_threshold enqueued threads and
// switches the index on (rebuilding it from the thread vector, O(n log n) once) when
// the run queue grows past it, with 2x hysteresis on the way down. Both modes produce
// bit-identical schedules, so switching is trace-invariant.
#ifndef REALRATE_SCHED_RBS_H_
#define REALRATE_SCHED_RBS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.h"
#include "sim/cpu.h"
#include "task/thread_slabs.h"

namespace realrate {

// Dispatch ordering among reserved threads with remaining budget. The paper implements
// rate-monotonic ordering via goodness but notes any reservation mechanism would do
// ("we could equally well have used other RBS mechanisms such as SMaRT, Rialto, or
// BERT"); EDF is provided as the classic alternative — it schedules feasible task sets
// up to 100% utilization where RMS is only guaranteed to the Liu-Layland bound.
enum class DispatchOrder : uint8_t {
  kRateMonotonic,
  kEarliestDeadlineFirst,
};

// How PickNext finds the best reserved thread (see the header comment).
enum class PickMode : uint8_t {
  kAuto,     // Reference scan below auto_index_threshold, indexed above.
  kIndexed,  // Always maintain and use the indexed run queues.
};

struct RbsConfig {
  // If true, threads with exhausted budgets may still run when the CPU would otherwise
  // idle (background mode). The paper's prototype is non-work-conserving: exhausted
  // threads sleep until their next period. Default matches the paper.
  bool work_conserving = false;
  DispatchOrder order = DispatchOrder::kRateMonotonic;
  // Reference vs indexed selection. kAuto is the production default: per-core
  // occupancy decides. Behavior (schedule, trace) is identical in every mode.
  PickMode pick_mode = PickMode::kAuto;
  // kAuto's switch-on point: enqueued-thread count at which this core's scheduler
  // starts maintaining the indexed run queues. Tuned on bench_dispatch_scale so the
  // farm e2e never loses to the reference scan at low density and keeps the indexed
  // win at high density (crossover sits between 64 and 128 threads/core). Indexing
  // switches back off below half this (hysteresis against add/remove flapping).
  int auto_index_threshold = 96;
  // Shadow-scheduler mode: every PickNext computes both the indexed pick and the
  // reference scan pick and asserts they are identical. Used by the fuzz harness
  // (RunOptions::rbs_shadow_check) to pin the indexed structures to the original
  // semantics across generated workloads. Runs kAuto as kIndexed, so the index it
  // validates is always live.
  bool shadow_check = false;
};

// One element of a per-core actuation batch (ApplyReservations): the reservation a
// controller tick resolved for `thread`.
struct ReservationUpdate {
  SimThread* thread = nullptr;
  Proportion proportion = Proportion::Zero();
  Duration period = Duration::Zero();
};

class RbsScheduler : public Scheduler {
 public:
  RbsScheduler(const Cpu& cpu, const RbsConfig& config = RbsConfig{});
  ~RbsScheduler() override;  // Clears the sched_slot cache of still-enqueued threads.

  const char* name() const override { return "rbs"; }

  // `thread` must live in the same hot-field slabs as every other thread enqueued
  // here (in practice: created by the one ThreadRegistry).
  void AddThread(SimThread* thread) override;
  void RemoveThread(SimThread* thread) override;
  void OnTick(TimePoint now) override;
  void OnTicksSkipped(int64_t count, TimePoint now) override;
  SimThread* PickNext(TimePoint now) override;
  Cycles MaxGrant(SimThread* thread, Cycles tick_remaining) override;
  void OnRan(SimThread* thread, Cycles used, TimePoint now) override;
  std::optional<TimePoint> ThrottleUntil(SimThread* thread, TimePoint now) override;
  void OnWake(SimThread* thread, TimePoint now) override;
  void OnBlock(SimThread* thread, TimePoint now) override;

  // The original O(n) rank/deadline scan (over the slab columns), the reference
  // implementation the indexed pick is validated against (shadow_check), the path
  // kAuto runs below its threshold, and the baseline bench_dispatch_scale measures.
  // Shares the round-robin cursor with PickNext, so within one run use either entry
  // point per dispatch, not both.
  SimThread* PickNextReference(TimePoint now);

  // Actuation entry point used by the controller: sets proportion/period and restarts
  // the thread's period from `now` with a fresh budget. "Very low overhead to change
  // proportion and period" — O(1) (plus O(log n) index maintenance).
  void SetReservation(SimThread* thread, Proportion proportion, Duration period, TimePoint now);

  // Batched actuation surface for the controller's Actuate stage: applies each
  // update exactly as SetReservation would, in order — one scheduler call per core
  // per controller tick instead of one per changed thread. Per-update index
  // maintenance inside SetReservation is unchanged (O(log n) each); the batch is
  // the call-granularity surface future deferred maintenance would hang off.
  // Every thread in the batch must be actuatable by this instance (enqueued here,
  // or enqueued nowhere — the SetReservation contract).
  void ApplyReservations(const std::vector<ReservationUpdate>& batch, TimePoint now);

  // Full budget (cycles) for one period of `thread`'s current reservation.
  Cycles PeriodBudget(const SimThread* thread) const;

  // Sum of reserved proportions over all scheduled threads (overload detection).
  Proportion TotalReserved() const;

  // Invoked when a reserved thread ends a period short of its budget while runnable.
  using DeadlineMissFn = std::function<void(SimThread*, Cycles shortfall, TimePoint)>;
  void SetDeadlineMissFn(DeadlineMissFn fn) { miss_fn_ = std::move(fn); }

  const std::vector<SimThread*>& threads() const { return threads_; }
  // Shadow-mode observability: picks that ran both implementations and agreed.
  int64_t shadow_checks() const { return shadow_checks_; }
  // Pick-mode observability: is the indexed hot path being maintained right now?
  // Constant under kIndexed; under kAuto it tracks the occupancy threshold.
  bool indexing_active() const { return indexing_on_; }

 private:
  // Per-thread bookkeeping owned by this scheduler (not the thread): the admission
  // sequence number that reproduces the reference scan's tie order and the
  // pick-index membership/key snapshot.
  struct Node {
    RbsScheduler* owner = nullptr;  // Guards the SimThread::sched_slot cache.
    uint64_t seq = 0;
    bool in_pick_index = false;
    int64_t pick_primary = 0;       // Key snapshot while in the pick index.
    uint64_t pick_gen = 0;          // Generation of the current pick-heap entry.
    bool counted_runnable = false;  // Contributes to the occupancy counts below.
    bool counted_reserved = false;  // Which count it contributes to.
  };

  // Pick-index element. Ordering is (rank desc | deadline asc, seq asc): the heap
  // minimum is exactly the thread the reference scan would return. Entries are
  // lazily deleted — `gen` matches Node::pick_gen only while the entry is current;
  // eligibility changes just bump the node's generation (O(1)) and the dead entry
  // is discarded when it surfaces at the heap top.
  struct PickKey {
    int64_t primary = 0;  // -rm_rank, or the EDF deadline in nanos.
    uint64_t seq = 0;
    uint64_t gen = 0;     // Current iff == pick_gen_by_slot_[slot].
    int32_t slot = 0;     // The thread's slab slot.
    SimThread* thread = nullptr;
    bool operator>(const PickKey& other) const {
      if (primary != other.primary) {
        return primary > other.primary;
      }
      return seq > other.seq;
    }
  };

  bool HasReservation(const SimThread* t) const {
    return t->policy() == SchedPolicy::kReservation && !t->proportion().IsZero();
  }
  void Replenish(SimThread* thread, TimePoint now);
  // Recomputes `thread`'s pick-index membership/key and occupancy counts from its
  // current state. Idempotent; every mutation hook funnels through it.
  void Reindex(SimThread* thread);
  Node* FindNode(SimThread* thread);
  // Column predicates of the reference scan for the thread in slab slot `s`: holds
  // a nonzero reservation / may be dispatched by the reserved pick / may be
  // dispatched by the round-robin fallback.
  bool ReservedAt(int32_t s) const {
    return slabs_->policy(s) == SchedPolicy::kReservation && slabs_->granted_ppt(s) != 0;
  }
  bool EligibleAt(int32_t s) const {
    return slabs_->state(s) == ThreadState::kRunnable && ReservedAt(s) && slabs_->budget(s) > 0;
  }
  bool FallbackCandidateAt(int32_t s) const {
    return slabs_->state(s) == ThreadState::kRunnable &&
           (!ReservedAt(s) || (config_.work_conserving && slabs_->budget(s) <= 0));
  }
  // The two halves of the reference scan, side-effect-free and cursor-mutating
  // respectively; PickNext composes the indexed (or reference) reserved pick with the
  // shared fallback.
  SimThread* PickReservedReference() const;
  SimThread* PickReservedIndexed();
  SimThread* PickFallbackRoundRobin();
  // Side-effect-free: would the round-robin fallback scan find a candidate? Used by
  // shadow mode to validate the occupancy counts that gate the scan.
  bool HasFallbackCandidate() const;
  // kAuto transitions. Activation rebuilds the pick index and occupancy counts from
  // the thread vector; deactivation tears them down. Neither changes any thread's
  // state, so the schedule is unaffected.
  void ActivateIndexing();
  void DeactivateIndexing();
  void MaybeSwitchIndexing();
  // Rebuilds pick_index_ without its stale entries when they outnumber live ones
  // 4:1, so lazy deletion cannot grow the heap unboundedly. Amortized O(1) per
  // logical erase.
  void CompactPickIndex();
  // Is this heap entry the current one for its thread (vs lazily deleted)?
  bool PickEntryCurrent(const PickKey& key) const {
    return pick_gen_by_slot_[static_cast<size_t>(key.slot)] == key.gen;
  }

  const Cpu& cpu_;
  RbsConfig config_;
  std::vector<SimThread*> threads_;
  // threads_[i]'s slab slot, kept index-aligned with threads_ so column scans
  // preserve scan order, ties, and the round-robin cursor arithmetic.
  std::vector<int32_t> slots_;
  // The slabs every enqueued thread lives in; set by the first AddThread.
  const ThreadSlabs* slabs_ = nullptr;
  DeadlineMissFn miss_fn_;
  size_t rr_cursor_ = 0;  // Round-robin position among non-reserved threads.
  bool indexing_on_ = false;  // Maintain/use the indexed structures right now?

  // --- Indexed hot-path state ---
  std::unordered_map<SimThread*, Node> nodes_;
  // Eligible reserved threads (runnable, budget > 0): a vector-backed binary
  // min-heap with lazy deletion — allocation-free pushes, O(1) logical erase —
  // instead of a node-based ordered set, because the farm transitions threads
  // in and out of eligibility millions of times per second. `pick_live_` counts
  // the current (non-stale) entries; CompactPickIndex() bounds the garbage.
  std::vector<PickKey> pick_index_;
  int64_t pick_live_ = 0;
  // Current pick generation per slab slot (0 = not in the index): lets the heap's
  // stale-entry test read one dense word instead of chasing the (cold) thread
  // record's sched_slot on every pick. Sized by AddThread to cover every enqueued
  // thread's slot.
  std::vector<uint64_t> pick_gen_by_slot_;
  // Secondary occupancy index for the round-robin fallback: how many runnable
  // threads are non-reserved, and how many are reserved at all. Runnable reserved
  // threads with exhausted budgets = counted_reserved_runnable - |pick_index_|,
  // which is what work-conserving mode scans for.
  int64_t runnable_unreserved_ = 0;
  int64_t runnable_reserved_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t next_gen_ = 1;
  int64_t shadow_checks_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_SCHED_RBS_H_
