#include "sched/machine.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace realrate {

Machine::Machine(Simulator& sim, Scheduler& scheduler, ThreadRegistry& registry,
                 const MachineConfig& config)
    : Machine(sim, std::vector<Scheduler*>{&scheduler}, registry, config) {}

Machine::Machine(Simulator& sim, std::vector<Scheduler*> schedulers, ThreadRegistry& registry,
                 const MachineConfig& config)
    : sim_(sim), registry_(registry), config_(config), slabs_(*registry.slabs()) {
  RR_EXPECTS(!schedulers.empty());
  RR_EXPECTS(static_cast<int>(schedulers.size()) == sim.num_cpus());
  RR_EXPECTS(config.dispatch_interval.IsPositive());
  RR_EXPECTS(config.rebalance_threshold > 0);
  cores_.resize(schedulers.size());
  for (size_t i = 0; i < schedulers.size(); ++i) {
    RR_EXPECTS(schedulers[i] != nullptr);
    cores_[i].scheduler = schedulers[i];
  }
  cycles_per_tick_ = sim_.cpu().DurationToCycles(config.dispatch_interval);
  RR_EXPECTS(cycles_per_tick_ > 0);
  RR_EXPECTS(config.host_threads == 1 &&
             "MachineConfig::host_threads must be 1: dispatch is sequential");
}

void Machine::Start() {
  RR_EXPECTS(!started_);
  started_ = true;
  accounted_through_ = sim_.Now();
  for (CpuId c = 0; c < num_cpus(); ++c) {
    ArmTick(c, sim_.Now() + config_.dispatch_interval);
  }
  if (num_cpus() > 1 && config_.rebalance_interval.IsPositive()) {
    sim_.ScheduleAfter(config_.rebalance_interval, [this] { Rebalance(); });
  }
}

CpuId Machine::LeastLoadedCore(const SimThread* placing) const {
  CpuId best = 0;
  double best_load = ReservedFractionOn(0, placing);
  int best_count = ThreadCountOn(0, placing);
  for (CpuId c = 1; c < num_cpus(); ++c) {
    const double load = ReservedFractionOn(c, placing);
    const int count = ThreadCountOn(c, placing);
    if (load < best_load - 1e-12 ||
        (load < best_load + 1e-12 && count < best_count)) {
      best = c;
      best_load = load;
      best_count = count;
    }
  }
  return best;
}

double Machine::ReservedFractionOn(CpuId core, const SimThread* excluding) const {
  const int32_t ex = excluding != nullptr ? excluding->slab_slot() : ThreadSlabs::kNoSlot;
  double sum = 0.0;
  const int32_t n = slabs_.slot_count();
  for (int32_t s = 0; s < n; ++s) {
    if (s != ex && slabs_.cpu(s) == core && slabs_.state(s) != ThreadState::kExited &&
        slabs_.policy(s) == SchedPolicy::kReservation) {
      sum += Proportion::Ppt(slabs_.granted_ppt(s)).ToFraction();
    }
  }
  return sum;
}

int Machine::ThreadCountOn(CpuId core, const SimThread* excluding) const {
  const int32_t ex = excluding != nullptr ? excluding->slab_slot() : ThreadSlabs::kNoSlot;
  int count = 0;
  const int32_t n = slabs_.slot_count();
  for (int32_t s = 0; s < n; ++s) {
    if (s != ex && slabs_.cpu(s) == core && slabs_.state(s) != ThreadState::kExited) {
      ++count;
    }
  }
  return count;
}

uint64_t Machine::SleepGenOf(ThreadId id) const {
  return static_cast<size_t>(id) < sleep_gen_.size() ? sleep_gen_[static_cast<size_t>(id)] : 0;
}

void Machine::SetSleepGen(ThreadId id, uint64_t gen) {
  if (static_cast<size_t>(id) >= sleep_gen_.size()) {
    sleep_gen_.resize(static_cast<size_t>(id) + 1, 0);
  }
  sleep_gen_[static_cast<size_t>(id)] = gen;
}

void Machine::ClearSleepGen(ThreadId id) {
  if (static_cast<size_t>(id) < sleep_gen_.size()) {
    sleep_gen_[static_cast<size_t>(id)] = 0;
  }
}

void Machine::Attach(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  ResumeTicking();  // A newly attached thread is runnable: the idle span is over.
  // Exclude the thread itself from the load census: it is typically already in the
  // registry (with a default core-0 affinity) by the time it is attached.
  const CpuId core = LeastLoadedCore(thread);
  thread->set_cpu(core);
  CoreAt(core).scheduler->AddThread(thread);
}

void Machine::Migrate(SimThread* thread, CpuId core) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(core >= 0 && core < num_cpus());
  const CpuId from = thread->cpu();
  if (from == core) {
    return;
  }
  RR_EXPECTS(thread->state() != ThreadState::kRunning);
  // Settle catch-up before run-queue membership changes: the schedulers' bulk
  // OnTicksSkipped assumes a stable thread set across the skipped span.
  ResumeTicking();
  Core& old_core = CoreAt(from);
  old_core.scheduler->RemoveThread(thread);
  if (old_core.last_ran == thread) {
    old_core.last_ran = nullptr;  // Next pick on the old core is a context switch.
  }
  thread->set_cpu(core);
  CoreAt(core).scheduler->AddThread(thread);
  ++migrations_;
  if (migration_hook_) {
    migration_hook_(thread, from, core);
  }
  sim_.trace().Record(sim_.Now(), TraceKind::kMigrate, thread->id(), from, core);
}

void Machine::Attach(BoundedBuffer* queue) {
  RR_EXPECTS(queue != nullptr);
  queue->SetWakeFn([this](ThreadId id) { Wake(id); });
}

void Machine::Attach(SimMutex* mutex) {
  RR_EXPECTS(mutex != nullptr);
  mutex->SetWakeFn([this](ThreadId id) { Wake(id); });
}

void Machine::Attach(TtyPort* tty) {
  RR_EXPECTS(tty != nullptr);
  tty->SetWakeFn([this](ThreadId id) { Wake(id); });
}

void Machine::Wake(ThreadId thread_id) {
  // Slot == id: the state column answers the spurious-wake test without dragging the
  // cold thread record into cache. (Buffers wake every waiter on each operation, so
  // most wakes are spurious.)
  const auto slot = static_cast<int32_t>(thread_id);
  if (slot < 0 || slot >= slabs_.slot_count() || slabs_.state(slot) != ThreadState::kBlocked) {
    return;  // Spurious or stale wake.
  }
  SimThread* thread = slabs_.thread_at(slot);
  ResumeTicking();  // Before the transition: catch-up must see the idle-span state.
  thread->set_state(ThreadState::kRunnable);
  thread->set_last_wake_time(sim_.Now());
  thread->work().OnWake(sim_.Now());
  CoreAt(thread->cpu()).scheduler->OnWake(thread, sim_.Now());
  sim_.trace().Record(sim_.Now(), TraceKind::kWake, thread_id);
}

void Machine::SleepUntil(SimThread* thread, TimePoint wake_at) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(wake_at >= sim_.Now());
  // Only a running/runnable thread can be put to sleep, so the machine cannot be
  // suspended here through the dispatch path — but a direct caller (tests) could add
  // a sleeper mid-suspension, which must re-arm the horizon. Resuming is the simple
  // exact answer: the next round re-suspends with the new sleeper accounted.
  ResumeTicking();
  thread->set_state(ThreadState::kSleeping);
  const uint64_t gen = next_generation_++;
  SetSleepGen(thread->id(), gen);
  PushSleeper(SleepEntry{wake_at, gen, thread->id()});
  CoreAt(thread->cpu()).scheduler->OnBlock(thread, sim_.Now());
}

void Machine::CancelSleep(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  if (thread->state() != ThreadState::kSleeping) {
    return;
  }
  ResumeTicking();
  ClearSleepGen(thread->id());  // The heap entry becomes stale.
  thread->set_state(ThreadState::kRunnable);
  thread->set_last_wake_time(sim_.Now());
  thread->work().OnWake(sim_.Now());
  CoreAt(thread->cpu()).scheduler->OnWake(thread, sim_.Now());
  sim_.trace().Record(sim_.Now(), TraceKind::kWake, thread->id(), /*arg0=*/-2);
}

void Machine::StealCycles(CpuUse category, Cycles cycles, CpuId core) {
  RR_EXPECTS(cycles >= 0);
  if (config_.charge_overheads) {
    // The backlog must be absorbed by upcoming ticks, so a suspended machine resumes;
    // without backlog the charge is purely observational and needs no clock.
    ResumeTicking();
  }
  sim_.cpu(core).Charge(category, cycles);
  if (config_.charge_overheads) {
    CoreAt(core).stolen_backlog += cycles;
  }
}

void Machine::RunFor(Duration d) {
  sim_.RunFor(d);
  if (suspended_) {
    // Settle the elided span so post-run introspection (ticks, dispatches, idle
    // charges) reads as if every tick ran. A tick exactly at the end time would have
    // fired within RunUntil, hence inclusive.
    AccountSkippedTicks(sim_.Now(), /*inclusive=*/true);
  }
}

void Machine::SyncSkippedTicks(TimePoint now) {
  if (suspended_) {
    // Exclusive: an observer running at `now` precedes this timestamp's tick (ticks
    // are pushed one interval ahead, so they sort after any same-time event that was
    // scheduled earlier), and must not see its effects yet.
    AccountSkippedTicks(now, /*inclusive=*/false);
  }
}

void Machine::EpochFence(TimePoint now) {
  SyncSkippedTicks(now);
  ++epoch_fences_;
}

int64_t Machine::dispatches() const {
  int64_t total = 0;
  for (const Core& c : cores_) {
    total += c.dispatches;
  }
  return total;
}

int64_t Machine::context_switches() const {
  int64_t total = 0;
  for (const Core& c : cores_) {
    total += c.context_switches;
  }
  return total;
}

void Machine::PushSleeper(const SleepEntry& entry) {
  const int64_t interval = config_.dispatch_interval.nanos();
  const int64_t due_tick = entry.wake_at.nanos() / interval;
  if (sleep_wheel_cursor_ == kNoTick) {
    sleep_wheel_.resize(static_cast<size_t>(kSleepWheelTicks));
    sleep_wheel_cursor_ = sim_.Now().nanos() / interval;
  }
  // The cursor never exceeds floor(now / interval) and wake_at >= now, so due_tick
  // is always inside or past the window — never behind it.
  if (due_tick - sleep_wheel_cursor_ < kSleepWheelTicks) {
    sleep_wheel_[static_cast<size_t>(due_tick % kSleepWheelTicks)].push_back(entry);
    ++sleep_wheel_count_;
  } else {
    sleepers_.push(entry);
  }
}

void Machine::WakeExpiredSleepers(TimePoint now) {
  // The global timer interrupt is serviced by the boot core; its cost lands there.
  Cpu& cpu = sim_.cpu(0);
  bool any_expired = false;
  // Gather this tick's due sleepers from both levels, then sort the batch into the
  // (wake_at, generation) order the single heap used to pop in — stale entries are
  // filtered below and have no effects, so only the live ordering matters.
  wake_batch_.clear();
  if (sleep_wheel_count_ > 0) {
    const int64_t interval = config_.dispatch_interval.nanos();
    const int64_t now_tick = now.nanos() / interval;
    const int64_t last =
        std::min(now_tick, sleep_wheel_cursor_ + kSleepWheelTicks - 1);
    for (int64_t t = sleep_wheel_cursor_; t <= last; ++t) {
      auto& bucket = sleep_wheel_[static_cast<size_t>(t % kSleepWheelTicks)];
      if (bucket.empty()) {
        continue;
      }
      if (t < now_tick) {  // Whole bucket is due.
        wake_batch_.insert(wake_batch_.end(), bucket.begin(), bucket.end());
        sleep_wheel_count_ -= static_cast<int64_t>(bucket.size());
        bucket.clear();
      } else {  // The current tick's bucket: only entries at or before `now`.
        for (size_t i = 0; i < bucket.size();) {
          if (bucket[i].wake_at <= now) {
            wake_batch_.push_back(bucket[i]);
            bucket[i] = bucket.back();
            bucket.pop_back();
            --sleep_wheel_count_;
          } else {
            ++i;
          }
        }
      }
    }
  }
  if (sleep_wheel_cursor_ != kNoTick) {
    sleep_wheel_cursor_ =
        std::max(sleep_wheel_cursor_, now.nanos() / config_.dispatch_interval.nanos());
  }
  while (!sleepers_.empty() && sleepers_.top().wake_at <= now) {
    wake_batch_.push_back(sleepers_.top());
    sleepers_.pop();
  }
  std::sort(wake_batch_.begin(), wake_batch_.end(),
            [](const SleepEntry& a, const SleepEntry& b) {
              if (a.wake_at != b.wake_at) {
                return a.wake_at < b.wake_at;
              }
              return a.generation < b.generation;
            });
  for (const SleepEntry& entry : wake_batch_) {
    if (SleepGenOf(entry.thread) != entry.generation) {
      continue;  // Stale entry: thread was re-slept or woken through another path.
    }
    ClearSleepGen(entry.thread);
    // Slot == id: answer the not-sleeping test from the state column before
    // touching the thread record.
    const auto slot = static_cast<int32_t>(entry.thread);
    if (slot < 0 || slot >= slabs_.slot_count() ||
        slabs_.state(slot) != ThreadState::kSleeping) {
      continue;
    }
    SimThread* thread = slabs_.thread_at(slot);
    any_expired = true;
    if (config_.charge_overheads) {
      StealCycles(CpuUse::kTimer, cpu.config().timer_expired_cycles);
    }
    thread->set_state(ThreadState::kRunnable);
    thread->set_last_wake_time(now);
    thread->work().OnWake(now);
    CoreAt(thread->cpu()).scheduler->OnWake(thread, now);
    sim_.trace().Record(now, TraceKind::kWake, entry.thread, /*arg0=*/-1);
  }
  // The cached next-expiry means an interrupt that finds nothing expired does near-zero
  // work ("this routine typically runs in constant time").
  if (!any_expired && config_.charge_overheads) {
    StealCycles(CpuUse::kTimer, cpu.config().timer_idle_cycles);
  }
}

void Machine::Tick(CpuId core_id) {
  const TimePoint now = sim_.Now();
  Core& core = CoreAt(core_id);
  ++core.ticks;
  core.round_had_pick = false;
  accounted_through_ = now;

  if (core_id == 0) {
    WakeExpiredSleepers(now);
  }
  core.scheduler->OnTick(now);

  // Capacity of this tick, minus overhead backlog carried over (controller runs,
  // timer/dispatch costs that exceeded a previous tick).
  Cycles cycles_left = cycles_per_tick_;
  const Cycles absorbed = std::min(core.stolen_backlog, cycles_left);
  cycles_left -= absorbed;
  core.stolen_backlog -= absorbed;

  DispatchLoop(core, core_id, now, cycles_left);

  if (checker_ != nullptr) {
    checker_->OnTickComplete(*this, core_id, now);
  }
  // The last core of the round decides whether the machine goes idle; everyone else
  // re-arms its clock (if the round does suspend, the epoch bump retires those).
  if (core_id == num_cpus() - 1 && ShouldSuspend()) {
    Suspend();
    return;
  }
  ArmTick(core_id, now + config_.dispatch_interval);
}

void Machine::ArmTick(CpuId core, TimePoint at) {
  sim_.ScheduleAt(at, [this, core, epoch = clock_epoch_] {
    if (epoch == clock_epoch_) {
      Tick(core);
    }
  });
}

bool Machine::ShouldSuspend() const {
  if (!config_.idle_fast_forward || !started_) {
    return false;
  }
  for (const Core& c : cores_) {
    // Any dispatch this round, or pending overhead backlog, keeps the clocks running:
    // the cheap per-core flags gate the registry sweep below.
    if (c.round_had_pick || c.stolen_backlog > 0) {
      return false;
    }
  }
  // A runnable thread — including a reserved one waiting out an exhausted budget,
  // whose replenishment at a period boundary must be observed on time — means
  // upcoming ticks are not no-ops. The slabs maintain the runnable census
  // incrementally, so this is one comparison rather than a registry sweep.
  return slabs_.runnable_count() == 0;
}

void Machine::Suspend() {
  suspended_ = true;
  ++idle_suspensions_;
  ++clock_epoch_;
  ArmHorizon();
}

void Machine::ArmHorizon() {
  // Drop stale far-heap entries so the horizon tracks the earliest *live* sleeper.
  while (!sleepers_.empty()) {
    const SleepEntry& top = sleepers_.top();
    if (SleepGenOf(top.thread) == top.generation) {
      break;
    }
    sleepers_.pop();
  }
  // Earliest live wake time across both sleeper levels. The wheel scan is bounded
  // by the window size and only runs at suspension, never on the tick path.
  bool have_wake = false;
  TimePoint earliest_wake;
  if (!sleepers_.empty()) {
    have_wake = true;
    earliest_wake = sleepers_.top().wake_at;
  }
  if (sleep_wheel_count_ > 0) {
    for (const auto& bucket : sleep_wheel_) {
      for (const SleepEntry& entry : bucket) {
        if (SleepGenOf(entry.thread) != entry.generation) {
          continue;
        }
        if (!have_wake || entry.wake_at < earliest_wake) {
          have_wake = true;
          earliest_wake = entry.wake_at;
        }
      }
    }
  }
  if (!have_wake) {
    return;  // Fully quiescent: only an external stimulus can resume the machine.
  }
  // The tick that services a sleeper is the first grid point at or after its wake
  // time — exactly when a continuously ticking core 0 would have woken it. The grid
  // is anchored at the machine's Start time (accounted_through_ is always on it),
  // not at simulator time zero: a machine started off-grid still wakes on its own
  // tick boundaries.
  const int64_t interval = config_.dispatch_interval.nanos();
  const int64_t after = earliest_wake.nanos() - accounted_through_.nanos();
  // The dispatch path cannot leave a due sleeper behind (the round that slept it had
  // a pick, and its core-0 tick woke anything already expired), but SleepUntil's
  // contract allows wake_at == Now(): a sleeper due at or before the last tick is
  // serviced at the next one, exactly as on an eagerly ticking machine.
  const int64_t ticks_ahead = std::max<int64_t>(1, (after + interval - 1) / interval);
  const TimePoint horizon = accounted_through_ + config_.dispatch_interval * ticks_ahead;
  sim_.ScheduleAt(horizon, [this, epoch = clock_epoch_] {
    if (epoch == clock_epoch_) {
      ResumeTicking();
    }
  });
}

void Machine::AccountIdleTick(CpuId core_id) {
  // Mirrors Tick() for a tick that provably dispatches nothing: same counter bumps,
  // same charge order (timer interrupt, backlog absorption, dispatcher cost, idle).
  Core& core = CoreAt(core_id);
  Cpu& cpu = sim_.cpu(core_id);
  ++core.ticks;
  if (core_id == 0 && config_.charge_overheads) {
    cpu.Charge(CpuUse::kTimer, cpu.config().timer_idle_cycles);
    core.stolen_backlog += cpu.config().timer_idle_cycles;
  }
  Cycles cycles_left = cycles_per_tick_;
  const Cycles absorbed = std::min(core.stolen_backlog, cycles_left);
  cycles_left -= absorbed;
  core.stolen_backlog -= absorbed;
  ++core.dispatches;
  if (config_.charge_overheads) {
    const Cycles dispatch_cost = cpu.DispatchCostAt(dispatch_hz());
    cpu.Charge(CpuUse::kDispatch, dispatch_cost);
    cycles_left -= std::min(dispatch_cost, cycles_left);
  }
  if (cycles_left > 0) {
    cpu.Charge(CpuUse::kIdle, cycles_left);
  }
}

void Machine::AccountSkippedTicks(TimePoint upto, bool inclusive) {
  const Duration interval = config_.dispatch_interval;
  int64_t count = (upto - accounted_through_) / interval;
  if (count > 0 && !inclusive && accounted_through_ + interval * count == upto) {
    --count;  // A tick exactly at `upto` has not run yet from the observer's view.
  }
  if (count <= 0) {
    return;
  }
  const TimePoint last = accounted_through_ + interval * count;
  // Every skipped tick is identical (the suspension invariant guarantees zero
  // backlog, and the boot core's timer-idle charge is absorbed within its own tick
  // whenever it fits the tick capacity), so the span settles with O(cores)
  // multiplications. The degenerate sub-timer-cost tick capacity falls back to a
  // literal per-tick replay, where backlog genuinely carries across ticks.
  const bool steady = !config_.charge_overheads ||
                      sim_.cpu(0).config().timer_idle_cycles <= cycles_per_tick_;
  for (CpuId c = 0; c < num_cpus(); ++c) {
    if (!steady) {
      for (int64_t i = 0; i < count; ++i) {
        AccountIdleTick(c);
      }
    } else {
      Core& core = CoreAt(c);
      Cpu& cpu = sim_.cpu(c);
      core.ticks += count;
      core.dispatches += count;
      Cycles cycles_left = cycles_per_tick_;  // Per-tick remainder after overheads.
      if (config_.charge_overheads) {
        if (c == 0) {
          const Cycles timer = cpu.config().timer_idle_cycles;
          cpu.Charge(CpuUse::kTimer, timer * count);
          cycles_left -= timer;  // Absorbed from the same tick's capacity.
        }
        const Cycles dispatch_cost = cpu.DispatchCostAt(dispatch_hz());
        cpu.Charge(CpuUse::kDispatch, dispatch_cost * count);
        cycles_left -= std::min(dispatch_cost, cycles_left);
      }
      if (cycles_left > 0) {
        cpu.Charge(CpuUse::kIdle, cycles_left * count);
      }
    }
    // Bulk scheduler catch-up: replenishments (and any per-tick bookkeeping) the
    // skipped ticks would have applied, collapsed into one call at the final grid.
    CoreAt(c).scheduler->OnTicksSkipped(count, last);
  }
  accounted_through_ = last;
}

void Machine::ResumeTicking() {
  if (!suspended_) {
    return;
  }
  suspended_ = false;
  ++clock_epoch_;
  // Ticks strictly before now already "happened" (they were idle by construction);
  // the clocks restart at the next grid point — which is `now` itself when the
  // trigger lands exactly on the grid, matching a tick event that would have been
  // scheduled one interval earlier and popped after the currently running event.
  AccountSkippedTicks(sim_.Now(), /*inclusive=*/false);
  const TimePoint first_tick = accounted_through_ + config_.dispatch_interval;
  for (CpuId c = 0; c < num_cpus(); ++c) {
    ArmTick(c, first_tick);
  }
}

void Machine::DispatchLoop(Core& core, CpuId core_id, TimePoint now, Cycles cycles_left) {
  Cpu& cpu = sim_.cpu(core_id);
  const Cycles dispatch_cost =
      config_.charge_overheads ? cpu.DispatchCostAt(dispatch_hz()) : 0;

  while (cycles_left > 0) {
    // schedule() runs at every dispatch point.
    ++core.dispatches;
    if (config_.charge_overheads) {
      cpu.Charge(CpuUse::kDispatch, dispatch_cost);
      cycles_left -= std::min(dispatch_cost, cycles_left);
      if (cycles_left == 0) {
        break;
      }
    }

    SimThread* pick = core.scheduler->PickNext(now);
    if (pick == nullptr) {
      cpu.Charge(CpuUse::kIdle, cycles_left);
      if (checker_ != nullptr) {
        checker_->OnPicked(*this, core_id, nullptr, now);
      }
      return;
    }
    core.round_had_pick = true;
    if (checker_ != nullptr) {
      checker_->OnPicked(*this, core_id, pick, now);
    }

    if (pick != core.last_ran) {
      ++core.context_switches;
      if (config_.charge_overheads) {
        const Cycles cs = cpu.config().context_switch_cycles;
        cpu.Charge(CpuUse::kDispatch, cs);
        cycles_left -= std::min(cs, cycles_left);
        if (cycles_left == 0) {
          core.last_ran = pick;
          return;
        }
      }
      core.last_ran = pick;
    }

    const Cycles grant = core.scheduler->MaxGrant(pick, cycles_left);
    RR_CHECK(grant > 0);

    pick->set_state(ThreadState::kRunning);
    const RunResult result = pick->work().Run(now, grant);
    RR_CHECK(result.used >= 0 && result.used <= grant);
    // A work model that consumes nothing must not claim to still be runnable, or the
    // dispatch loop would spin forever.
    RR_CHECK(result.used > 0 || result.next != RunResult::Next::kRunnable);

    pick->OnRan(result.used);
    cpu.Charge(CpuUse::kUser, result.used);
    cycles_left -= result.used;
    core.scheduler->OnRan(pick, result.used, now);
    sim_.trace().Record(now, TraceKind::kDispatch, pick->id(), result.used);

    ApplyRunResult(core, pick, result, now);
  }
}

void Machine::ApplyRunResult(Core& core, SimThread* thread, const RunResult& result,
                             TimePoint now) {
  switch (result.next) {
    case RunResult::Next::kRunnable:
      thread->set_state(ThreadState::kRunnable);
      break;
    case RunResult::Next::kBlocked:
      thread->set_state(ThreadState::kBlocked);
      thread->OnBurstEnd();  // Ran-before-blocking measurement for interactive jobs.
      core.scheduler->OnBlock(thread, now);
      sim_.trace().Record(now, TraceKind::kBlock, thread->id(), result.block_tag);
      return;  // Throttling is irrelevant once off the run queue.
    case RunResult::Next::kSleeping:
      thread->set_state(ThreadState::kRunnable);  // SleepUntil flips it to kSleeping.
      thread->OnBurstEnd();
      SleepUntil(thread, std::max(result.wake_at, now));  // Notifies OnBlock itself.
      return;
    case RunResult::Next::kExited:
      thread->set_state(ThreadState::kExited);
      core.scheduler->RemoveThread(thread);
      sim_.trace().Record(now, TraceKind::kExit, thread->id());
      if (core.last_ran == thread) {
        core.last_ran = nullptr;
      }
      return;
  }

  // Budget enforcement: "when a thread has used its allocation for its period, it is
  // put to sleep until its next period begins."
  if (const auto throttle_until = core.scheduler->ThrottleUntil(thread, now)) {
    sim_.trace().Record(now, TraceKind::kBudgetExhausted, thread->id(),
                        thread->cycles_this_period());
    SleepUntil(thread, std::max(*throttle_until, now));  // Notifies OnBlock itself.
  }
}

void Machine::Rebalance() {
  // Deterministic greedy pass: while some core's reserved proportion exceeds the
  // over-subscription threshold, move its smallest reservation to the least-loaded
  // core — but only while each move strictly narrows the machine's load spread, so
  // the pass terminates and threads cannot ping-pong.
  const int n = num_cpus();
  for (int moves = 0; moves < 2 * n; ++moves) {
    CpuId hi = 0;
    CpuId lo = 0;
    double hi_load = -1.0;
    double lo_load = 0.0;
    for (CpuId c = 0; c < n; ++c) {
      const double load = ReservedFractionOn(c);
      if (load > hi_load + 1e-12) {
        hi = c;
        hi_load = load;
      }
      if (c == 0 || load < lo_load - 1e-12) {
        lo = c;
        lo_load = load;
      }
    }
    if (hi_load <= config_.rebalance_threshold || hi == lo) {
      break;
    }
    // Smallest positive reservation on the over-subscribed core (tie: lowest id).
    // The rebalancer selects and moves slots (slot order == id order), reading the
    // cpu/state/policy/ppt columns; only the chosen victim's record is touched.
    SimThread* victim = nullptr;
    double victim_fraction = 0.0;
    const int32_t slots = slabs_.slot_count();
    for (int32_t s = 0; s < slots; ++s) {
      const ThreadState state = slabs_.state(s);
      if (slabs_.cpu(s) != hi || state == ThreadState::kExited ||
          state == ThreadState::kRunning || slabs_.policy(s) != SchedPolicy::kReservation) {
        continue;
      }
      const double f = Proportion::Ppt(slabs_.granted_ppt(s)).ToFraction();
      if (f <= 0.0) {
        continue;
      }
      if (victim == nullptr || f < victim_fraction - 1e-12) {
        victim = slabs_.thread_at(s);
        victim_fraction = f;
      }
    }
    // Accept the move only if it strictly narrows the spread AND leaves the
    // destination under the over-subscription threshold — shifting a reservation
    // onto a nearly-full core would break the headroom admission control
    // guaranteed there.
    if (victim == nullptr || lo_load + victim_fraction >= hi_load - 1e-12 ||
        lo_load + victim_fraction > config_.rebalance_threshold + 1e-12) {
      break;
    }
    Migrate(victim, lo);
  }
  sim_.ScheduleAfter(config_.rebalance_interval, [this] { Rebalance(); });
}

}  // namespace realrate
