#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace realrate {
namespace {

TimePoint At(int64_t ms) { return TimePoint::Origin() + Duration::Millis(ms); }

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(At(30), [&] { order.push_back(3); });
  q.Push(At(10), [&] { order.push_back(1); });
  q.Push(At(20), [&] { order.push_back(2); });
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Push(At(10), [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<int64_t> seen;
  sim.ScheduleAt(At(5), [&] { seen.push_back(sim.Now().nanos()); });
  sim.ScheduleAt(At(15), [&] { seen.push_back(sim.Now().nanos()); });
  sim.RunUntil(At(20));
  EXPECT_EQ(sim.Now(), At(20));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], At(5).nanos());
  EXPECT_EQ(seen[1], At(15).nanos());
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  bool late_ran = false;
  sim.ScheduleAt(At(50), [&] { late_ran = true; });
  sim.RunUntil(At(40));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(At(60));
  EXPECT_TRUE(late_ran);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  int fires = 0;
  std::function<void()> chain = [&] {
    if (++fires < 5) {
      sim.ScheduleAfter(Duration::Millis(1), chain);
    }
  };
  sim.ScheduleAfter(Duration::Millis(1), chain);
  sim.RunFor(Duration::Millis(10));
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAfter(Duration::Millis(1), [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(CpuTest, CycleDurationRoundTrip) {
  Cpu cpu(CpuConfig{.clock_hz = 400e6});
  EXPECT_EQ(cpu.DurationToCycles(Duration::Millis(1)), 400'000);
  EXPECT_EQ(cpu.CyclesToDuration(400'000), Duration::Millis(1));
}

TEST(CpuTest, DispatchCostGrowsWithFrequency) {
  Cpu cpu(CpuConfig{});
  EXPECT_LT(cpu.DispatchCostAt(100), cpu.DispatchCostAt(1000));
  EXPECT_LT(cpu.DispatchCostAt(1000), cpu.DispatchCostAt(10000));
}

TEST(CpuTest, ControllerCostIsLinearInThreads) {
  Cpu cpu(CpuConfig{});
  const Cycles c0 = cpu.ControllerCost(0);
  const Cycles c1 = cpu.ControllerCost(1);
  const Cycles c40 = cpu.ControllerCost(40);
  EXPECT_EQ(c40 - c0, 40 * (c1 - c0));
  EXPECT_EQ(c0, cpu.config().controller_fixed_cycles);
}

TEST(CpuTest, ChargeAccumulatesPerCategory) {
  Cpu cpu(CpuConfig{});
  cpu.Charge(CpuUse::kUser, 100);
  cpu.Charge(CpuUse::kUser, 50);
  cpu.Charge(CpuUse::kDispatch, 10);
  EXPECT_EQ(cpu.Used(CpuUse::kUser), 150);
  EXPECT_EQ(cpu.Used(CpuUse::kDispatch), 10);
  EXPECT_EQ(cpu.TotalUsed(), 160);
  cpu.ResetAccounting();
  EXPECT_EQ(cpu.TotalUsed(), 0);
}

TEST(TraceTest, CountsByKindAndThread) {
  TraceRecorder trace;
  trace.SetEnabled(true);
  trace.Record(At(1), TraceKind::kDispatch, 0);
  trace.Record(At(2), TraceKind::kDispatch, 1);
  trace.Record(At(3), TraceKind::kBlock, 0);
  EXPECT_EQ(trace.Count(TraceKind::kDispatch), 2);
  EXPECT_EQ(trace.Count(TraceKind::kDispatch, 0), 1);
  EXPECT_EQ(trace.Count(TraceKind::kBlock, 1), 0);
}

TEST(TraceTest, DisabledRecorderStaysEmpty) {
  TraceRecorder trace;
  trace.Record(At(1), TraceKind::kDispatch, 0);
  EXPECT_TRUE(trace.events().empty());
}

TEST(TraceTest, HashDistinguishesSchedules) {
  TraceRecorder a;
  TraceRecorder b;
  a.SetEnabled(true);
  b.SetEnabled(true);
  a.Record(At(1), TraceKind::kDispatch, 0, 100);
  b.Record(At(1), TraceKind::kDispatch, 0, 101);
  EXPECT_NE(a.Hash(), b.Hash());
  TraceRecorder c;
  c.SetEnabled(true);
  c.Record(At(1), TraceKind::kDispatch, 0, 100);
  EXPECT_EQ(a.Hash(), c.Hash());
}

}  // namespace
}  // namespace realrate
