// Owns every SimThread in a simulation and allocates thread ids.
#ifndef REALRATE_TASK_REGISTRY_H_
#define REALRATE_TASK_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "task/thread.h"
#include "task/thread_slabs.h"
#include "util/assert.h"

namespace realrate {

// Thread records are allocated from a ThreadArena (contiguous chunks in creation
// order, stable addresses) and bound to hot-field slabs at Create, so column sweeps
// cover exactly the registry's thread set in creation order, with slot == id.
class ThreadRegistry {
 public:
  ThreadRegistry() = default;
  // Stays only for perfbench/rrbench.cc; `use_slabs` must be true.
  explicit ThreadRegistry(bool use_slabs) {
    RR_EXPECTS(use_slabs && "ThreadRegistry: use_slabs must be true (slabs are the only layout)");
  }

  // Creates a thread owned by the registry; returns a stable non-owning pointer.
  SimThread* Create(std::string name, std::unique_ptr<WorkModel> work);

  SimThread* Find(ThreadId id);
  const SimThread* Find(ThreadId id) const;
  SimThread* FindByName(const std::string& name);

  size_t size() const { return raw_.size(); }
  // Iteration in creation order (deterministic). Returns a reference to the
  // registry's own pointer index — O(1); the Machine walks this on hot paths
  // (placement, rebalancing, idle-suspension checks), so no per-call vector is
  // materialized. The reference is invalidated by Create().
  const std::vector<SimThread*>& All() const { return raw_; }

  // The hot-field slabs every registry thread is bound to (never null). Slots are
  // never released, so slot == id and slot order == creation order.
  ThreadSlabs* slabs() { return &slabs_; }
  const ThreadSlabs* slabs() const { return &slabs_; }

 private:
  ThreadArena arena_;
  std::vector<SimThread*> raw_;  // Indexed by ThreadId; maintained by Create().
  // Declared after arena_ so it is destroyed first: its destructor unbinds threads,
  // which must still be alive.
  ThreadSlabs slabs_;
};

}  // namespace realrate

#endif  // REALRATE_TASK_REGISTRY_H_
