#include "task/thread_slabs.h"

#include <new>
#include <utility>

namespace realrate {

ThreadSlabs::~ThreadSlabs() {
  for (SimThread* t : thread_) {
    if (t != nullptr) {
      t->slabs_ = nullptr;
      t->slab_slot_ = kNoSlot;
    }
  }
}

void ThreadSlabs::SeedColumns(int32_t slot, const SimThread& t) {
  const size_t i = static_cast<size_t>(slot);
  state_[i] = t.state();
  class_[i] = t.thread_class();
  policy_[i] = t.policy();
  cpu_[i] = t.cpu();
  importance_[i] = t.importance();
  budget_[i] = t.budget_remaining();
  pressure_[i] = 0.0;
  MirrorReservation(slot, t);
}

int32_t ThreadSlabs::Bind(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(thread->slabs_ == nullptr);  // One binding at a time.
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slot_count();
    thread_.push_back(nullptr);
    state_.push_back(ThreadState::kExited);
    class_.push_back(ThreadClass::kMiscellaneous);
    policy_.push_back(SchedPolicy::kOther);
    cpu_.push_back(0);
    granted_ppt_.push_back(0);
    rm_rank_.push_back(0);
    deadline_nanos_.push_back(0);
    budget_.push_back(0);
    importance_.push_back(0.0);
    pressure_.push_back(0.0);
  }
  const size_t i = static_cast<size_t>(slot);
  thread_[i] = thread;
  SeedColumns(slot, *thread);
  if (state_[i] == ThreadState::kRunnable) {
    ++runnable_count_;
  }
  ++live_count_;

  const ThreadId id = thread->id();
  RR_EXPECTS(id >= 0);
  if (static_cast<size_t>(id) >= slot_of_id_.size()) {
    slot_of_id_.resize(static_cast<size_t>(id) + 1, kNoSlot);
  }
  RR_EXPECTS(slot_of_id_[static_cast<size_t>(id)] == kNoSlot);
  slot_of_id_[static_cast<size_t>(id)] = slot;

  thread->slabs_ = this;
  thread->slab_slot_ = slot;
  return slot;
}

void ThreadSlabs::Release(SimThread* thread) {
  RR_EXPECTS(thread != nullptr && thread->slabs_ == this);
  const int32_t slot = thread->slab_slot_;
  const size_t i = static_cast<size_t>(slot);
  RR_EXPECTS(thread_[i] == thread);
  if (state_[i] == ThreadState::kRunnable) {
    --runnable_count_;
  }
  --live_count_;
  // Inert values: sweeps (reserved filter, census, runnable checks) skip the hole
  // with the same comparisons they apply to live slots.
  thread_[i] = nullptr;
  state_[i] = ThreadState::kExited;
  class_[i] = ThreadClass::kMiscellaneous;
  policy_[i] = SchedPolicy::kOther;
  cpu_[i] = 0;
  granted_ppt_[i] = 0;
  rm_rank_[i] = 0;
  deadline_nanos_[i] = 0;
  budget_[i] = 0;
  importance_[i] = 0.0;
  pressure_[i] = 0.0;
  slot_of_id_[static_cast<size_t>(thread->id())] = kNoSlot;
  free_slots_.push_back(slot);
  thread->slabs_ = nullptr;
  thread->slab_slot_ = kNoSlot;
}

bool ThreadSlabs::MatchesObject(const SimThread& t) const {
  if (t.slabs_ != this || t.slab_slot_ == kNoSlot) {
    return false;
  }
  const size_t i = static_cast<size_t>(t.slab_slot_);
  return thread_[i] == &t && state_[i] == t.state() && class_[i] == t.thread_class() &&
         policy_[i] == t.policy() && cpu_[i] == t.cpu() &&
         granted_ppt_[i] == t.proportion().ppt() && rm_rank_[i] == PeriodRank(t.period()) &&
         deadline_nanos_[i] == (t.period_start() + t.period()).nanos() &&
         budget_[i] == t.budget_remaining() && importance_[i] == t.importance();
}

ThreadArena::~ThreadArena() {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    (*it)->~SimThread();
  }
}

SimThread* ThreadArena::Create(ThreadId id, std::string name, std::unique_ptr<WorkModel> work) {
  if (used_in_last_ == kRecordsPerChunk) {
    chunks_.push_back(std::make_unique<std::byte[]>(kRecordsPerChunk * sizeof(SimThread)));
    used_in_last_ = 0;
  }
  void* p = chunks_.back().get() + used_in_last_ * sizeof(SimThread);
  ++used_in_last_;
  SimThread* t = new (p) SimThread(id, std::move(name), std::move(work));
  records_.push_back(t);
  return t;
}

}  // namespace realrate
