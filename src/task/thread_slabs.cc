#include "task/thread_slabs.h"

#include <new>
#include <utility>

#include "task/thread.h"

namespace realrate {

const char* ToString(ThreadState state) {
  switch (state) {
    case ThreadState::kRunnable:
      return "runnable";
    case ThreadState::kRunning:
      return "running";
    case ThreadState::kBlocked:
      return "blocked";
    case ThreadState::kSleeping:
      return "sleeping";
    case ThreadState::kExited:
      return "exited";
  }
  return "?";
}

const char* ToString(ThreadClass cls) {
  switch (cls) {
    case ThreadClass::kRealTime:
      return "real-time";
    case ThreadClass::kAperiodicRealTime:
      return "aperiodic-real-time";
    case ThreadClass::kRealRate:
      return "real-rate";
    case ThreadClass::kMiscellaneous:
      return "miscellaneous";
    case ThreadClass::kInteractive:
      return "interactive";
  }
  return "?";
}

void ThreadSlabs::Append(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  // Slots are only ever appended, so slot == id holds for every thread.
  RR_EXPECTS(thread->id() == slot_count());
  thread_.push_back(thread);
  state_.push_back(ThreadState::kRunnable);
  policy_.push_back(SchedPolicy::kOther);
  cpu_.push_back(0);
  importance_.push_back(1.0);
  granted_ppt_.push_back(0);
  period_nanos_.push_back(kDefaultPeriod.nanos());
  rm_rank_.push_back(PeriodRank(kDefaultPeriod));
  deadline_nanos_.push_back((TimePoint::Origin() + kDefaultPeriod).nanos());
  budget_.push_back(0);
  ++runnable_count_;
}

ThreadArena::~ThreadArena() {
  size_t used = used_in_last_;
  for (auto chunk = chunks_.rbegin(); chunk != chunks_.rend(); ++chunk) {
    for (size_t i = used; i-- > 0;) {
      std::launder(reinterpret_cast<SimThread*>(chunk->get() + i * sizeof(SimThread)))
          ->~SimThread();
    }
    used = kRecordsPerChunk;
  }
}

SimThread* ThreadArena::Create(ThreadSlabs& slabs, ThreadId id, std::string name,
                               std::unique_ptr<WorkModel> work) {
  if (used_in_last_ == kRecordsPerChunk) {
    chunks_.push_back(std::make_unique<std::byte[]>(kRecordsPerChunk * sizeof(SimThread)));
    used_in_last_ = 0;
  }
  void* p = chunks_.back().get() + used_in_last_ * sizeof(SimThread);
  SimThread* t = new (p) SimThread(slabs, id, std::move(name), std::move(work));
  ++used_in_last_;
  return t;
}

}  // namespace realrate
