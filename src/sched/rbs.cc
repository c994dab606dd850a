#include "sched/rbs.h"

#include <algorithm>

#include "util/assert.h"

namespace realrate {

RbsScheduler::RbsScheduler(const Cpu& cpu, const RbsConfig& config) : cpu_(cpu), config_(config) {}

RbsScheduler::~RbsScheduler() {
  for (auto& [thread, node] : nodes_) {
    if (thread->sched_slot() == &node) {
      thread->set_sched_slot(nullptr);
    }
  }
}

RbsScheduler::Node* RbsScheduler::FindNode(SimThread* thread) {
  // The slot is a cache of &nodes_[thread], valid only when this instance owns the
  // thread's run-queue membership — one pointer read instead of a hash lookup on
  // every OnRan/OnBlock/OnWake along the dispatch hot path.
  auto* node = static_cast<Node*>(thread->sched_slot());
  return node != nullptr && node->owner == this ? node : nullptr;
}

void RbsScheduler::Reindex(SimThread* thread) {
  Node* node = FindNode(thread);
  if (node == nullptr) {
    return;  // Not scheduled here (e.g. cross-core actuation); nothing to maintain.
  }
  const ThreadState state = thread->state();
  // kRunning is transient within one dispatch iteration; by the next PickNext the
  // thread is back to kRunnable or has left through an OnBlock/RemoveThread hook, so
  // counting it "active" keeps the index exact at every pick.
  const bool active = state == ThreadState::kRunnable || state == ThreadState::kRunning;
  const bool reserved = HasReservation(thread);

  if (node->counted_runnable) {
    --(node->counted_reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  node->counted_runnable = active;
  node->counted_reserved = reserved;
  if (active) {
    ++(reserved ? runnable_reserved_ : runnable_unreserved_);
  }

  const bool eligible = active && reserved && thread->budget_remaining() > 0;
  const int32_t slot = thread->slab_slot();
  int64_t primary = 0;
  if (eligible) {
    primary = config_.order == DispatchOrder::kEarliestDeadlineFirst
                  ? slabs_->deadline_nanos(slot)
                  : -slabs_->rm_rank(slot);
  }
  uint64_t& gen = pick_gen_by_slot_[static_cast<size_t>(slot)];
  if (gen != 0) {
    if (eligible && primary == node->pick_primary) {
      return;  // Membership and key unchanged: the common OnRan case, O(1).
    }
    gen = 0;  // The heap entry is now stale (generation mismatch).
    --pick_live_;
  }
  if (eligible) {
    gen = next_gen_++;
    pick_index_.push_back(PickKey{primary, node->seq, gen, slot, thread});
    std::push_heap(pick_index_.begin(), pick_index_.end(), std::greater<PickKey>{});
    node->pick_primary = primary;
    ++pick_live_;
  }
  if (pick_index_.size() > 64 &&
      pick_index_.size() > 4 * static_cast<size_t>(pick_live_)) {
    CompactPickIndex();
  }
}

void RbsScheduler::CompactPickIndex() {
  std::erase_if(pick_index_, [this](const PickKey& key) { return !PickEntryCurrent(key); });
  std::make_heap(pick_index_.begin(), pick_index_.end(), std::greater<PickKey>{});
  RR_CHECK(pick_index_.size() == static_cast<size_t>(pick_live_));
}

void RbsScheduler::AddThread(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(std::find(threads_.begin(), threads_.end(), thread) == threads_.end());
  if (slabs_ == nullptr) {
    slabs_ = &thread->slabs();
  }
  RR_EXPECTS(&thread->slabs() == slabs_);
  const int32_t slot = thread->slab_slot();
  threads_.push_back(thread);
  slots_.push_back(slot);
  if (static_cast<size_t>(slot) >= pick_gen_by_slot_.size()) {
    pick_gen_by_slot_.resize(static_cast<size_t>(slot) + 1, 0);
  }
  Node& node = nodes_[thread];  // Node-based container: the address is stable.
  node.owner = this;
  node.seq = next_seq_++;
  thread->set_sched_slot(&node);
  Reindex(thread);
}

void RbsScheduler::RemoveThread(SimThread* thread) {
  const auto it = std::find(threads_.begin(), threads_.end(), thread);
  if (it != threads_.end()) {
    slots_.erase(slots_.begin() + (it - threads_.begin()));
    threads_.erase(it);
  }
  Node* node = FindNode(thread);
  if (node == nullptr) {
    return;
  }
  uint64_t& gen = pick_gen_by_slot_[static_cast<size_t>(thread->slab_slot())];
  if (gen != 0) {
    gen = 0;  // The heap entry dies lazily, by generation.
    --pick_live_;
  }
  if (node->counted_runnable) {
    --(node->counted_reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  thread->set_sched_slot(nullptr);
  nodes_.erase(thread);
}

Cycles RbsScheduler::PeriodBudget(const SimThread* thread) const {
  return static_cast<Cycles>(thread->proportion().ToFraction() *
                             static_cast<double>(cpu_.DurationToCycles(thread->period())));
}

void RbsScheduler::Replenish(SimThread* thread, TimePoint now) {
  // Advance whole periods until `now` falls inside the current one.
  TimePoint start = thread->period_start();
  const Duration period = thread->period();
  if (now < start + period) {
    return;
  }
  // Deadline check for the period that just closed: a thread that was runnable for the
  // whole period (it did not wake mid-period) and is still runnable at the boundary
  // wanted more CPU than it received; if it also fell short of the budget it was
  // entitled to at the period's start, the scheduler failed to deliver the reservation.
  const Cycles entitled = thread->period_entitlement();
  if (thread->state() == ThreadState::kRunnable && thread->last_wake_time() <= start &&
      thread->cycles_this_period() < entitled) {
    thread->CountDeadlineMiss();
    if (miss_fn_) {
      miss_fn_(thread, entitled - thread->cycles_this_period(), now);
    }
  }
  while (now >= start + period) {
    start += period;
  }
  const Cycles budget = PeriodBudget(thread);
  thread->set_period_start(start);
  thread->set_budget_remaining(budget);
  thread->set_period_entitlement(budget);
  thread->ResetPeriodCycles();
  Reindex(thread);
}

void RbsScheduler::OnTick(TimePoint now) {
  // The per-tick replenish sweep, pre-filtered on the deadline column — Replenish's
  // own early-out condition (now < period_start + period, i.e. now_ns <
  // deadline_nanos) — so the common not-due tick streams three small columns and
  // touches no thread object. `threads_` is admission order, the order the
  // deadline-miss callbacks observe.
  const int64_t now_ns = now.nanos();
  const size_t n = slots_.size();
  for (size_t i = 0; i < n; ++i) {
    const int32_t s = slots_[i];
    if (ReservedAt(s) && slabs_->deadline_nanos(s) <= now_ns) {
      Replenish(threads_[i], now);
    }
  }
}

void RbsScheduler::OnTicksSkipped(int64_t /*count*/, TimePoint now) {
  // Replenish is written to catch up across any number of elapsed periods, and the
  // deadline-miss check cannot fire while nothing is runnable, so one due-driven pass
  // at the final skipped tick reproduces `count` per-tick passes exactly.
  OnTick(now);
}

void RbsScheduler::OnWake(SimThread* thread, TimePoint /*now*/) { Reindex(thread); }

void RbsScheduler::OnBlock(SimThread* thread, TimePoint /*now*/) { Reindex(thread); }

SimThread* RbsScheduler::PickReservedIndexed() {
  // Drain lazily deleted entries off the top; each is popped exactly once, so the
  // cost amortizes against the Reindex that staled it. The first current entry is
  // the (primary, seq) minimum over all current entries — identical to what the
  // ordered-set begin() returned.
  while (!pick_index_.empty()) {
    const PickKey top = pick_index_.front();
    if (PickEntryCurrent(top)) {
      // Index-integrity check: every mutation that can change eligibility must have
      // gone through a Reindex hook; a wrong entry here means a change bypassed them.
      RR_CHECK(top.thread->IsRunnable() && HasReservation(top.thread) &&
               top.thread->budget_remaining() > 0);
      return top.thread;
    }
    std::pop_heap(pick_index_.begin(), pick_index_.end(), std::greater<PickKey>{});
    pick_index_.pop_back();
  }
  return nullptr;
}

SimThread* RbsScheduler::PickFallbackRoundRobin() {
  // No reserved thread can run: round-robin over the remaining runnables (non-reserved
  // threads, plus exhausted reserved threads when work-conserving). Verbatim from the
  // original scan — the cursor is positional, so this path stays O(n) but is gated by
  // the occupancy counts in PickNext and only runs when it will find work.
  const size_t n = threads_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (rr_cursor_ + i) % n;
    if (FallbackCandidateAt(slots_[idx])) {
      rr_cursor_ = (idx + 1) % n;
      return threads_[idx];
    }
  }
  return nullptr;
}

SimThread* RbsScheduler::PickNext(TimePoint /*now*/) {
  SimThread* pick = PickReservedIndexed();
  if (pick != nullptr) {
    return pick;
  }
  // Secondary (occupancy) index: skip the positional fallback scan outright when no
  // round-robin candidate exists — the common case in a farm of blocked threads.
  // Reserved threads with budget are all in the (empty, or we would not be here)
  // pick index, so runnable_reserved_ now counts only exhausted ones.
  const bool have_unreserved = runnable_unreserved_ > 0;
  const bool have_exhausted = config_.work_conserving && runnable_reserved_ > 0;
  if (!have_unreserved && !have_exhausted) {
    return nullptr;
  }
  return PickFallbackRoundRobin();
}

Cycles RbsScheduler::MaxGrant(SimThread* thread, Cycles tick_remaining) {
  if (HasReservation(thread) && thread->budget_remaining() > 0) {
    return std::min(tick_remaining, thread->budget_remaining());
  }
  return tick_remaining;
}

void RbsScheduler::OnRan(SimThread* thread, Cycles used, TimePoint /*now*/) {
  if (HasReservation(thread)) {
    thread->set_budget_remaining(std::max<Cycles>(0, thread->budget_remaining() - used));
    Reindex(thread);  // O(1) unless the budget just hit zero.
  }
}

std::optional<TimePoint> RbsScheduler::ThrottleUntil(SimThread* thread, TimePoint /*now*/) {
  if (!HasReservation(thread) || config_.work_conserving) {
    return std::nullopt;
  }
  if (thread->budget_remaining() > 0) {
    return std::nullopt;
  }
  // "When a thread has used its allocation for its period, it is put to sleep until its
  // next period begins."
  return thread->period_start() + thread->period();
}

void RbsScheduler::SetReservation(SimThread* thread, Proportion proportion, Duration period,
                                  TimePoint now) {
  RR_EXPECTS(thread != nullptr);
  // A thread enqueued on some scheduler must be actuated through that instance —
  // its indexed run-queue state lives there (route via the thread's core, as
  // FeedbackAllocator::SchedulerFor does). A thread enqueued nowhere may be actuated
  // by any instance (reservation state lives on the thread).
  RR_EXPECTS(thread->sched_slot() == nullptr || FindNode(thread) != nullptr);
  const bool fresh =
      thread->policy() != SchedPolicy::kReservation || thread->period() != period;
  thread->set_policy(SchedPolicy::kReservation);
  thread->SetReservation(proportion, period);
  if (fresh) {
    // New reservation or new period: start a fresh period at `now`.
    thread->set_period_start(now);
    thread->set_budget_remaining(PeriodBudget(thread));
    thread->set_period_entitlement(PeriodBudget(thread));
    thread->ResetPeriodCycles();
  } else {
    // Proportion-only change (the controller's common actuation): keep the current
    // period phase and recompute the remaining budget as if the new proportion had
    // applied all period — full new budget minus what was already consumed. Stateless
    // in the history of intra-period updates, so an oscillating controller cannot
    // accumulate a budget bias.
    thread->set_budget_remaining(
        std::max<Cycles>(0, PeriodBudget(thread) - thread->cycles_this_period()));
  }
  Reindex(thread);
}

void RbsScheduler::ApplyReservations(const std::vector<ReservationUpdate>& batch,
                                     TimePoint now) {
  for (const ReservationUpdate& update : batch) {
    SetReservation(update.thread, update.proportion, update.period, now);
  }
}

Proportion RbsScheduler::TotalReserved() const {
  int32_t total_ppt = 0;
  for (const int32_t s : slots_) {
    if (slabs_->policy(s) == SchedPolicy::kReservation) {
      total_ppt += slabs_->granted_ppt(s);
    }
  }
  return Proportion::Ppt(total_ppt);
}

}  // namespace realrate
