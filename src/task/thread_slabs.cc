#include "task/thread_slabs.h"

#include <new>
#include <utility>

namespace realrate {

ThreadSlabs::~ThreadSlabs() {
  for (SimThread* t : thread_) {
    t->slabs_ = nullptr;
    t->slab_slot_ = kNoSlot;
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
  const int32_t slot = slot_count();
  thread_.push_back(thread);
  state_.emplace_back();
  class_.emplace_back();
  policy_.emplace_back();
  cpu_.emplace_back();
  granted_ppt_.emplace_back();
  rm_rank_.emplace_back();
  deadline_nanos_.emplace_back();
  budget_.emplace_back();
  importance_.emplace_back();
  pressure_.emplace_back();
  SeedColumns(slot, *thread);
  if (state_.back() == ThreadState::kRunnable) {
    ++runnable_count_;
  }
  thread->slabs_ = this;
  thread->slab_slot_ = slot;
  return slot;
}

bool ThreadSlabs::MatchesObject(const SimThread& t) const {
  if (t.slabs_ != this) {
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
