#include "cluster/cluster.h"

#include "util/assert.h"

namespace realrate {

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  RR_EXPECTS(config.num_machines >= 1);
  RR_EXPECTS(config.epoch.IsPositive());
  nodes_.reserve(static_cast<size_t>(config.num_machines));
  for (int m = 0; m < config.num_machines; ++m) {
    nodes_.push_back(std::make_unique<System>(config.node));
  }
}

void Cluster::Start() {
  for (auto& node : nodes_) {
    node->Start();
  }
}

void Cluster::RunFor(Duration d) {
  RR_EXPECTS(!(d < Duration::Zero()));
  const TimePoint end = Now() + d;
  while (Now() < end) {
    const Duration remaining = end - Now();
    const Duration step = remaining < config_.epoch ? remaining : config_.epoch;
    // Fence first: every node settles idle fast-forward at the boundary, so the
    // hook's cross-machine reads and mutations observe exactly the state a
    // continuously ticking machine would show.
    for (auto& node : nodes_) {
      node->machine().EpochFence(node->sim().Now());
    }
    if (epoch_hook_) {
      epoch_hook_(Now());
    }
    for (auto& node : nodes_) {
      node->RunFor(step);
    }
    ++epochs_;
  }
}

}  // namespace realrate
