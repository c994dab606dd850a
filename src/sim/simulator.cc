#include "sim/simulator.h"

#include <utility>

#include "util/assert.h"

namespace realrate {

Simulator::Simulator(const CpuConfig& cpu_config, int num_cpus) {
  RR_EXPECTS(num_cpus >= 1);
  cpus_.reserve(static_cast<size_t>(num_cpus));
  for (int i = 0; i < num_cpus; ++i) {
    cpus_.emplace_back(cpu_config, static_cast<CpuId>(i));
  }
}

Cycles Simulator::UsedAllCpus(CpuUse category) const {
  Cycles total = 0;
  for (const Cpu& c : cpus_) {
    total += c.Used(category);
  }
  return total;
}

EventId Simulator::ScheduleAt(TimePoint t, EventQueue::Callback fn) {
  RR_EXPECTS(t >= now_);
  return events_.Push(t, std::move(fn));
}

EventId Simulator::ScheduleAfter(Duration d, EventQueue::Callback fn) {
  RR_EXPECTS(d >= Duration::Zero());
  return events_.Push(now_ + d, std::move(fn));
}

bool Simulator::Step() {
  if (events_.Empty()) {
    return false;
  }
  auto event = events_.Pop();
  RR_CHECK(event.when >= now_);
  now_ = event.when;
  ++events_processed_;
  event.fn();
  return true;
}

void Simulator::RunUntil(TimePoint t) {
  RR_EXPECTS(t >= now_);
  while (!events_.Empty() && events_.PeekTime() <= t) {
    Step();
  }
  now_ = t;
}

}  // namespace realrate
