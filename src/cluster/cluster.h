// Cluster: M fully wired machines (exp/system.h stacks) advanced in lockstep
// epochs — the substrate for the second-level feedback loop of ROADMAP item 2.
//
// Each node is an independent share-nothing System: its own Simulator (virtual
// clock), thread/queue registries, per-core RBS schedulers, Machine, and feedback
// controller. The cluster never reaches into a node mid-epoch; all cross-machine
// observation and mutation (the router's signal reads, request injection, the
// cross-machine rebalancer's migrations) happen at epoch boundaries, after every
// node's `Machine::EpochFence` has settled idle fast-forward. Within an epoch a
// machine is alone in the world, so each node's trace is exactly the trace a
// standalone machine with the same inputs would produce, and (for M = 1)
// bit-identical to a bare Machine run of the same workload.
//
// Thread-safety: none. The nodes step one after another on the calling thread.
//
// The node clocks stay aligned by construction: every node starts at the origin
// and every node steps by the same epoch quantum.
#ifndef REALRATE_CLUSTER_CLUSTER_H_
#define REALRATE_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "exp/system.h"
#include "util/time.h"

namespace realrate {

struct ClusterConfig {
  // Number of machines (1-64 are the tested range). M = 1 is the degenerate
  // cluster, pinned bit-identical to a bare Machine run.
  int num_machines = 4;
  // Per-node stack configuration; all nodes are identical (heterogeneous
  // clusters would only need a per-node vector here).
  SystemConfig node;
  // The lockstep step quantum: cross-machine signal reads, routing, and
  // migration happen only at multiples of this. Matches the controller's
  // default 100 Hz interval so cluster-level decisions see freshly resolved
  // grants.
  Duration epoch = Duration::Millis(10);
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_machines() const { return static_cast<int>(nodes_.size()); }
  System& node(int m) { return *nodes_.at(static_cast<size_t>(m)); }
  const ClusterConfig& config() const { return config_; }

  // Called once per epoch boundary (including t = 0, before the first step),
  // after every node's EpochFence and before any node advances. This is the
  // only legal point for cross-machine work; the farm layer hangs its router
  // batch and rebalancer off it.
  using EpochHook = std::function<void(TimePoint epoch_start)>;
  void SetEpochHook(EpochHook hook) { epoch_hook_ = std::move(hook); }

  // Starts every node (machine + controller). Call once, then RunFor().
  void Start();
  // Advances every node in lockstep `epoch` quanta (a final partial quantum
  // when `d` is not a multiple).
  void RunFor(Duration d);

  // --- Cluster-level feedback signals (O(1) reads; epoch-boundary fresh) ---
  // Clamped spare head-room of node `m` in ppt, summed over its cores: the
  // machine's progress signal for the cluster controller (the ledger maintains
  // it incrementally against the post-backoff admission threshold).
  int64_t SpareSignal(int m) { return node(m).controller().ledger().spare_ppt_total(); }
  // Aggregate queue fill fraction of node `m` in [0, 1]: the machine's pressure
  // signal (delta-maintained by every BoundedBuffer the node owns).
  double PressureSignal(int m) { return node(m).queues().AggregateFillFraction(); }

  // All node clocks are equal; node 0's is the cluster's.
  TimePoint Now() { return node(0).sim().Now(); }
  int64_t epochs() const { return epochs_; }

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<System>> nodes_;
  EpochHook epoch_hook_;
  int64_t epochs_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_CLUSTER_CLUSTER_H_
