#include "sched/rbs.h"

#include <algorithm>

#include "util/assert.h"

namespace realrate {

namespace {
// Reserved threads always outrank non-reserved ones. The goodness of a reserved thread
// with remaining budget is this base plus a rate-monotonic bonus; non-reserved threads
// score in [1, kRmBase).
constexpr int64_t kRmBase = int64_t{1} << 40;

// The rate-monotonic bonus is PeriodRank (task/thread_slabs.h): periods-per-hour,
// shared by Goodness (the reference semantics), the pick index (the incrementally
// maintained key), and the slab rm_rank column, so no consumer can disagree on
// ordering.
int64_t RmRank(const SimThread* thread) { return PeriodRank(thread->period()); }
}  // namespace

RbsScheduler::RbsScheduler(const Cpu& cpu, const RbsConfig& config) : cpu_(cpu), config_(config) {
  // Shadow mode must exercise the index it validates.
  if (config_.shadow_check) {
    config_.pick_mode = PickMode::kIndexed;
  }
  indexing_on_ = config_.pick_mode == PickMode::kIndexed;
}

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
  if (!indexing_on_) {
    return;  // kAuto below its threshold: no index to maintain.
  }
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
  int64_t primary = 0;
  if (eligible) {
    primary = config_.order == DispatchOrder::kEarliestDeadlineFirst
                  ? (thread->period_start() + thread->period()).nanos()
                  : -RmRank(thread);
  }
  if (node->in_pick_index) {
    if (eligible && primary == node->pick_primary) {
      return;  // Membership and key unchanged: the common OnRan case, O(1).
    }
    node->in_pick_index = false;  // The heap entry is now stale (generation mismatch).
    pick_gen_by_slot_[static_cast<size_t>(thread->slab_slot())] = 0;
    --pick_live_;
  }
  if (eligible) {
    node->pick_gen = next_gen_++;
    const int32_t slot = thread->slab_slot();
    pick_gen_by_slot_[static_cast<size_t>(slot)] = node->pick_gen;
    pick_index_.push_back(PickKey{primary, node->seq, node->pick_gen, slot, thread});
    std::push_heap(pick_index_.begin(), pick_index_.end(), std::greater<PickKey>{});
    node->pick_primary = primary;
    node->in_pick_index = true;
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

void RbsScheduler::ActivateIndexing() {
  // Rebuild the pick index and occupancy counts from the thread vector. Reads only;
  // no thread state changes, so the schedule is unaffected. The counts are zero
  // here: they are only maintained while indexing is on, and Deactivate (or
  // construction) zeroed them.
  indexing_on_ = true;
  for (SimThread* t : threads_) {
    Reindex(t);
  }
}

void RbsScheduler::DeactivateIndexing() {
  indexing_on_ = false;
  pick_index_.clear();
  pick_live_ = 0;
  std::fill(pick_gen_by_slot_.begin(), pick_gen_by_slot_.end(), 0);
  runnable_unreserved_ = 0;
  runnable_reserved_ = 0;
  for (auto& [thread, node] : nodes_) {
    node.in_pick_index = false;
    node.counted_runnable = false;
  }
}

void RbsScheduler::MaybeSwitchIndexing() {
  if (config_.pick_mode != PickMode::kAuto) {
    return;
  }
  const int n = static_cast<int>(threads_.size());
  if (!indexing_on_ && n >= config_.auto_index_threshold) {
    ActivateIndexing();
  } else if (indexing_on_ && n < config_.auto_index_threshold / 2) {
    DeactivateIndexing();
  }
}

void RbsScheduler::AddThread(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(std::find(threads_.begin(), threads_.end(), thread) == threads_.end());
  if (slabs_ == nullptr) {
    slabs_ = thread->bound_slabs();
  }
  RR_EXPECTS(slabs_ != nullptr && thread->bound_slabs() == slabs_);
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
  MaybeSwitchIndexing();
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
  if (node->in_pick_index) {
    node->in_pick_index = false;  // The heap entry dies lazily, by generation.
    pick_gen_by_slot_[static_cast<size_t>(thread->slab_slot())] = 0;
    --pick_live_;
  }
  if (node->counted_runnable) {
    --(node->counted_reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  thread->set_sched_slot(nullptr);
  nodes_.erase(thread);
  MaybeSwitchIndexing();
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

int64_t RbsScheduler::Goodness(const SimThread* thread) const {
  if (!thread->IsRunnable() && thread->state() != ThreadState::kRunning) {
    return 0;
  }
  if (HasReservation(thread)) {
    if (thread->budget_remaining() <= 0) {
      return 0;  // Used its allocation; sleeps until next period.
    }
    // Rate-monotonic: shorter period => higher goodness.
    return kRmBase + RmRank(thread);
  }
  // Non-reserved: modest goodness so they run only when no reserved thread can.
  return 1;
}

SimThread* RbsScheduler::PickReservedReference() const {
  // The original O(n) scan, over the slab columns. Reserved threads first.
  // Rate-monotonic: highest rank (shortest period). EDF: earliest deadline, where a
  // thread's deadline is the end of its current period. Strict comparisons break
  // ties by scan position — arrival order — matching the pick index's
  // sequence-number tiebreak.
  SimThread* best = nullptr;
  const size_t n = slots_.size();
  if (config_.order == DispatchOrder::kEarliestDeadlineFirst) {
    int64_t best_deadline = TimePoint::Max().nanos();
    for (size_t i = 0; i < n; ++i) {
      const int32_t s = slots_[i];
      if (EligibleAt(s) && slabs_->deadline_nanos(s) < best_deadline) {
        best = threads_[i];
        best_deadline = slabs_->deadline_nanos(s);
      }
    }
    return best;
  }
  int64_t best_rank = -1;  // Any reserved candidate (rank >= 0) beats "none".
  for (size_t i = 0; i < n; ++i) {
    const int32_t s = slots_[i];
    if (EligibleAt(s) && slabs_->rm_rank(s) > best_rank) {
      best = threads_[i];
      best_rank = slabs_->rm_rank(s);
    }
  }
  return best;
}

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

bool RbsScheduler::HasFallbackCandidate() const {
  return std::any_of(slots_.begin(), slots_.end(),
                     [this](int32_t s) { return FallbackCandidateAt(s); });
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
  SimThread* pick = nullptr;
  if (indexing_on_) {
    pick = PickReservedIndexed();
    if (config_.shadow_check) {
      // Shadow-scheduler mode: the reference scan runs alongside (side-effect-free)
      // and must agree with the index at every dispatch; the pick's slab columns
      // must agree with its object fields.
      RR_CHECK(pick == PickReservedReference());
      RR_CHECK(pick == nullptr || slabs_->MatchesObject(*pick));
      ++shadow_checks_;
    }
  } else {
    pick = PickReservedReference();
  }
  if (pick != nullptr) {
    return pick;
  }
  if (indexing_on_) {
    // Secondary (occupancy) index: skip the positional fallback scan outright when no
    // round-robin candidate exists — the common case in a farm of blocked threads.
    // Reserved threads with budget are all in the (empty, or we would not be here)
    // pick index, so runnable_reserved_ now counts only exhausted ones.
    const bool have_unreserved = runnable_unreserved_ > 0;
    const bool have_exhausted = config_.work_conserving && runnable_reserved_ > 0;
    if (config_.shadow_check) {
      RR_CHECK((have_unreserved || have_exhausted) == HasFallbackCandidate());
    }
    if (!have_unreserved && !have_exhausted) {
      return nullptr;
    }
  }
  return PickFallbackRoundRobin();
}

SimThread* RbsScheduler::PickNextReference(TimePoint /*now*/) {
  SimThread* pick = PickReservedReference();
  if (pick != nullptr) {
    return pick;
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
