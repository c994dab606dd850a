#include "task/registry.h"

#include <utility>

namespace realrate {

SimThread* ThreadRegistry::Create(std::string name, std::unique_ptr<WorkModel> work) {
  SimThread* thread = arena_.Create(slabs_, static_cast<ThreadId>(slabs_.slot_count()),
                                    std::move(name), std::move(work));
  thread->work().Bind(thread);
  return thread;
}

SimThread* ThreadRegistry::Find(ThreadId id) {
  return id < 0 || id >= slabs_.slot_count() ? nullptr : slabs_.thread_at(id);
}

const SimThread* ThreadRegistry::Find(ThreadId id) const {
  return id < 0 || id >= slabs_.slot_count() ? nullptr : slabs_.thread_at(id);
}

SimThread* ThreadRegistry::FindByName(const std::string& name) {
  for (SimThread* t : All()) {
    if (t->name() == name) {
      return t;
    }
  }
  return nullptr;
}

}  // namespace realrate
