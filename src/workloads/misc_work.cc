#include "workloads/misc_work.h"

#include <algorithm>

#include "task/thread.h"
#include "util/assert.h"

namespace realrate {

RunResult IdleWork::Run(TimePoint now, Cycles /*granted*/) {
  return RunResult::Sleeping(0, now + Duration::Seconds(3600 * 24));
}

CpuHogWork::CpuHogWork(Cycles cycles_per_key) : cycles_per_key_(cycles_per_key) {
  RR_EXPECTS(cycles_per_key > 0);
}

RunResult CpuHogWork::Run(TimePoint /*now*/, Cycles granted) {
  into_key_ += granted;
  const int64_t keys = into_key_ / cycles_per_key_;
  into_key_ %= cycles_per_key_;
  self()->AddProgress(keys);
  return RunResult::Ran(granted);
}

RunResult DelayedHogWork::Run(TimePoint now, Cycles granted) {
  if (now < start_at_) {
    return RunResult::Sleeping(0, start_at_);
  }
  self()->AddProgress(granted);
  return RunResult::Ran(granted);
}

SpinWaitWork::SpinWaitWork(TtyPort* tty) : tty_(tty) { RR_EXPECTS(tty != nullptr); }

RunResult SpinWaitWork::Run(TimePoint now, Cycles granted) {
  // Polls the tty but burns the entire slice regardless — a spin-wait.
  while (tty_->PopInput(now)) {
    ++serviced_;
    self()->AddProgress(1);
  }
  return RunResult::Ran(granted);
}

InteractiveWork::InteractiveWork(TtyPort* tty, Cycles cycles_per_event)
    : tty_(tty), cycles_per_event_(cycles_per_event) {
  RR_EXPECTS(tty != nullptr);
  RR_EXPECTS(cycles_per_event > 0);
}

RunResult InteractiveWork::Run(TimePoint now, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    if (!event_in_hand_) {
      if (!tty_->PopInput(now)) {
        tty_->WaitForInput(self()->id());
        return RunResult::Blocked(used, /*tag=*/-10);
      }
      event_in_hand_ = true;
      into_event_ = 0;
    }
    const Cycles step = std::min(cycles_per_event_ - into_event_, granted - used);
    used += step;
    into_event_ += step;
    if (into_event_ >= cycles_per_event_) {
      event_in_hand_ = false;
      ++serviced_;
      self()->AddProgress(1);
    }
  }
  return RunResult::Ran(used);
}

LockWork::LockWork(SimMutex* mutex, Cycles hold_cycles, Duration think_sleep)
    : mutex_(mutex), hold_cycles_(hold_cycles), think_sleep_(think_sleep) {
  RR_EXPECTS(mutex != nullptr);
  RR_EXPECTS(hold_cycles > 0);
  RR_EXPECTS(think_sleep.IsPositive());
}

void LockWork::OnWake(TimePoint now) {
  if (waiting_) {
    // SimMutex::Unlock hands ownership directly to the first waiter before waking it.
    waiting_ = false;
    lock_granted_on_wake_ = true;
    waits_.push_back((now - wait_start_).ToSeconds());
    wait_starts_.push_back(wait_start_);
  }
}

RunResult LockWork::Run(TimePoint now, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    switch (phase_) {
      case Phase::kAcquiring: {
        bool acquired = false;
        if (lock_granted_on_wake_) {
          lock_granted_on_wake_ = false;
          acquired = true;
        } else if (mutex_->TryLock(self()->id())) {
          waits_.push_back(0.0);
          wait_starts_.push_back(now);
          acquired = true;
        }
        if (!acquired) {
          waiting_ = true;
          wait_start_ = now;
          mutex_->WaitFor(self()->id());
          return RunResult::Blocked(used, /*tag=*/-20);
        }
        ++acquisitions_;
        phase_ = Phase::kHolding;
        into_phase_ = 0;
        break;
      }
      case Phase::kHolding: {
        const Cycles step = std::min(hold_cycles_ - into_phase_, granted - used);
        used += step;
        into_phase_ += step;
        if (into_phase_ >= hold_cycles_) {
          mutex_->Unlock(self()->id());
          self()->AddProgress(1);
          phase_ = Phase::kAcquiring;
          into_phase_ = 0;
          return RunResult::Sleeping(used, now + think_sleep_);
        }
        break;
      }
    }
  }
  return RunResult::Ran(used);
}

double LockWork::MaxWaitSeconds() const {
  double max_wait = 0.0;
  for (double w : waits_) {
    max_wait = std::max(max_wait, w);
  }
  return max_wait;
}

double LockWork::MaxWaitSecondsAfter(TimePoint after) const {
  double max_wait = 0.0;
  for (size_t i = 0; i < waits_.size(); ++i) {
    if (wait_starts_[i] >= after) {
      max_wait = std::max(max_wait, waits_[i]);
    }
  }
  return max_wait;
}

ArrivalProcess::ArrivalProcess(Simulator& sim, BoundedBuffer* queue, const Config& config)
    : sim_(sim), queue_(queue), config_(config), rng_(config.seed) {
  RR_EXPECTS(queue != nullptr);
  RR_EXPECTS(config.bytes_per_arrival > 0);
  RR_EXPECTS(config.mean_interarrival.IsPositive());
}

void ArrivalProcess::Start() {
  RR_EXPECTS(!running_);
  running_ = true;
  ScheduleNext();
}

void ArrivalProcess::ScheduleNext() {
  const Duration gap =
      config_.poisson
          ? Duration::FromSeconds(rng_.NextExponential(config_.mean_interarrival.ToSeconds()))
          : config_.mean_interarrival;
  sim_.ScheduleAfter(std::max(gap, Duration::Micros(1)), [this] {
    if (!running_) {
      return;
    }
    ++arrivals_;
    if (!queue_->TryPush(config_.bytes_per_arrival)) {
      // The rx ring overflowed: the packet/block is dropped, exactly what happens when
      // a consumer cannot keep up with an I/O producer.
      dropped_bytes_ += config_.bytes_per_arrival;
    }
    ScheduleNext();
  });
}

}  // namespace realrate
