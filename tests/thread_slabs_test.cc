// Hot-field slabs and thread arena (task/thread_slabs.h): a new thread's column
// defaults, setters writing the columns, the period phase kept across reservation
// changes, the registry's slot-ordered thread list, migration slot stability,
// scheduler removal mid-run, the registry's slabs-only
// guard, and the trace recorder's hash-only mode the farm scenarios lean on.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/scenarios.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "task/registry.h"
#include "task/thread.h"
#include "task/thread_slabs.h"
#include "workloads/misc_work.h"
#include "workloads/web_farm.h"

namespace realrate {
namespace {

// Arena-backed threads born into a standalone slab set (no registry).
struct SlabRig {
  ThreadSlabs slabs;  // Outlives the arena's records, which refer to it.
  ThreadArena arena;

  SimThread* Spawn() {
    const auto id = static_cast<ThreadId>(slabs.slot_count());
    return arena.Create(slabs, id, "t" + std::to_string(id), std::make_unique<CpuHogWork>());
  }
};

TEST(ThreadSlabsTest, NewThreadColumnsHoldDefaults) {
  SlabRig rig;
  rig.Spawn();
  SimThread* t = rig.Spawn();
  const int32_t slot = t->slab_slot();
  EXPECT_EQ(slot, 1);
  EXPECT_EQ(&t->slabs(), &rig.slabs);
  EXPECT_EQ(rig.slabs.slot_count(), 2);
  EXPECT_EQ(rig.slabs.thread_at(slot), t);
  EXPECT_EQ(rig.slabs.state(slot), ThreadState::kRunnable);
  EXPECT_EQ(rig.slabs.policy(slot), SchedPolicy::kOther);
  EXPECT_EQ(rig.slabs.cpu(slot), 0);
  EXPECT_EQ(rig.slabs.granted_ppt(slot), 0);
  EXPECT_EQ(rig.slabs.period_nanos(slot), Duration::Millis(30).nanos());
  EXPECT_EQ(rig.slabs.rm_rank(slot), PeriodRank(Duration::Millis(30)));
  EXPECT_EQ(rig.slabs.deadline_nanos(slot), Duration::Millis(30).nanos());
  EXPECT_EQ(rig.slabs.budget(slot), 0);
  EXPECT_EQ(rig.slabs.importance(slot), 1.0);
  EXPECT_EQ(rig.slabs.runnable_count(), 2);
  EXPECT_EQ(t->period_start(), TimePoint::Origin());
}

TEST(ThreadSlabsTest, SettersWriteColumns) {
  SlabRig rig;
  SimThread* t = rig.Spawn();
  const int32_t slot = t->slab_slot();

  t->set_state(ThreadState::kSleeping);
  EXPECT_EQ(rig.slabs.state(slot), ThreadState::kSleeping);
  t->set_cpu(5);
  EXPECT_EQ(rig.slabs.cpu(slot), 5);
  t->set_policy(SchedPolicy::kReservation);
  EXPECT_EQ(rig.slabs.policy(slot), SchedPolicy::kReservation);
  t->SetReservation(Proportion::Ppt(77), Duration::Millis(7));
  EXPECT_EQ(rig.slabs.granted_ppt(slot), 77);
  EXPECT_EQ(rig.slabs.period_nanos(slot), Duration::Millis(7).nanos());
  EXPECT_EQ(rig.slabs.rm_rank(slot), PeriodRank(Duration::Millis(7)));
  t->set_importance(4.5);
  EXPECT_EQ(rig.slabs.importance(slot), 4.5);
  t->set_budget_remaining(1234);
  EXPECT_EQ(rig.slabs.budget(slot), 1234);
  t->set_period_start(TimePoint::Origin() + Duration::Millis(40));
  EXPECT_EQ(rig.slabs.deadline_nanos(slot), Duration::Millis(47).nanos());
}

TEST(ThreadSlabsTest, ReservationChangeKeepsPeriodPhase) {
  // The period start is stored as deadline - period, so a new period must move the
  // deadline and leave the start where it was.
  SlabRig rig;
  SimThread* t = rig.Spawn();
  const int32_t slot = t->slab_slot();
  const TimePoint t0 = TimePoint::Origin() + Duration::Millis(123);
  t->set_period_start(t0);
  t->SetReservation(Proportion::Ppt(250), Duration::Millis(20));
  EXPECT_EQ(t->period_start(), t0);
  EXPECT_EQ(rig.slabs.deadline_nanos(slot), (t0 + Duration::Millis(20)).nanos());
  EXPECT_EQ(rig.slabs.rm_rank(slot), PeriodRank(Duration::Millis(20)));
  t->SetReservation(Proportion::Ppt(100), Duration::Millis(7));
  EXPECT_EQ(t->period_start(), t0);
  EXPECT_EQ(t->period(), Duration::Millis(7));
  EXPECT_EQ(rig.slabs.deadline_nanos(slot), (t0 + Duration::Millis(7)).nanos());
  EXPECT_EQ(rig.slabs.rm_rank(slot), PeriodRank(Duration::Millis(7)));
}

TEST(ThreadSlabsTest, RegistryThreadListIsSlotOrder) {
  // 600 threads span three arena chunks; under ASan the registry's teardown also
  // checks the arena's chunk-walk destruction.
  ThreadRegistry threads;
  for (int i = 0; i < 600; ++i) {
    threads.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
  }
  const ThreadSlabs& slabs = *threads.slabs();
  ASSERT_EQ(threads.size(), 600u);
  ASSERT_EQ(slabs.slot_count(), 600);
  for (int32_t i = 0; i < 600; ++i) {
    SimThread* t = threads.All()[static_cast<size_t>(i)];
    EXPECT_EQ(threads.Find(i), t);
    EXPECT_EQ(slabs.thread_at(i), t);
    EXPECT_EQ(t->id(), i);
    EXPECT_EQ(t->slab_slot(), i);
    EXPECT_EQ(t->name(), "t" + std::to_string(i));
  }
  EXPECT_EQ(slabs.runnable_count(), 600);
}

TEST(ThreadSlabsTest, RunnableCountTracksStateColumn) {
  SlabRig rig;
  SimThread* a = rig.Spawn();
  SimThread* b = rig.Spawn();
  a->set_state(ThreadState::kRunnable);
  b->set_state(ThreadState::kRunnable);
  EXPECT_EQ(rig.slabs.runnable_count(), 2);
  a->set_state(ThreadState::kBlocked);
  EXPECT_EQ(rig.slabs.runnable_count(), 1);
  b->set_state(ThreadState::kExited);
  EXPECT_EQ(rig.slabs.runnable_count(), 0);
}

TEST(ThreadSlabsTest, MigrationRewritesCpuColumnWithoutMovingSlot) {
  // The Machine moves slots between cores by rewriting the cpu column; the slot
  // (and everything else in it) must not move.
  Simulator sim(CpuConfig{}, 2);
  ThreadRegistry threads;
  std::vector<std::unique_ptr<RbsScheduler>> schedulers;
  std::vector<Scheduler*> raw;
  for (CpuId c = 0; c < 2; ++c) {
    schedulers.push_back(std::make_unique<RbsScheduler>(sim.cpu(c)));
    raw.push_back(schedulers.back().get());
  }
  Machine machine(sim, raw, threads, MachineConfig{});
  SimThread* t = threads.Create("mover", std::make_unique<CpuHogWork>());
  machine.Attach(t);

  ThreadSlabs* slabs = threads.slabs();
  const int32_t slot = t->slab_slot();
  const CpuId from = t->cpu();
  const CpuId to = from == 0 ? 1 : 0;
  machine.Migrate(t, to);
  EXPECT_EQ(t->slab_slot(), slot);
  EXPECT_EQ(slabs->cpu(slot), to);
  EXPECT_EQ(slabs->thread_at(slot), t);
  EXPECT_EQ(t->cpu(), to);
}

TEST(ThreadSlabsTest, SchedulerRemoveMidRunKeepsSlabBindingAndReindexes) {
  // RemoveThread takes a thread out of the run queue mid-run; the registry keeps
  // the slab binding (slot == id is the registry's contract), and a later pick
  // must not return the removed thread.
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs(sim.cpu());
  std::vector<SimThread*> all;
  for (int i = 0; i < 8; ++i) {
    SimThread* t = threads.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
    rbs.AddThread(t);
    rbs.SetReservation(t, Proportion::Ppt(10), Duration::Millis(10 + i), sim.Now());
    all.push_back(t);
  }
  SimThread* victim = rbs.PickNext(sim.Now());
  ASSERT_NE(victim, nullptr);
  rbs.RemoveThread(victim);
  EXPECT_EQ(victim->slab_slot(), static_cast<int32_t>(victim->id()));
  for (int i = 0; i < 8; ++i) {
    SimThread* pick = rbs.PickNext(sim.Now());
    ASSERT_NE(pick, nullptr);
    EXPECT_NE(pick, victim);
  }
}

TEST(ThreadSlabsTest, TraceHashOnlyModeFoldsTheIdenticalHash) {
  // The farm scenarios run the recorder in hash-only mode; the pinned golden
  // hashes are only meaningful if that fold is bit-identical to full mode.
  TraceRecorder full;
  TraceRecorder hash_only;
  full.SetEnabled(true);
  hash_only.SetEnabled(true);
  hash_only.SetHashOnly(true);
  for (int i = 0; i < 100; ++i) {
    const TimePoint t = TimePoint{} + Duration::Millis(i);
    full.Record(t, TraceKind::kDispatch, i % 7, i, i * 2);
    hash_only.Record(t, TraceKind::kDispatch, i % 7, i, i * 2);
  }
  EXPECT_EQ(full.events().size(), 100u);
  EXPECT_TRUE(hash_only.events().empty());
  EXPECT_EQ(full.Hash(), hash_only.Hash());
  EXPECT_EQ(full.Hash(), full.HashScan());  // The incremental fold vs the oracle.
}

// Slab columns are the only thread layout: the registry constructor that still
// takes the flag, and every scenario that forwards it, reject false.
TEST(ThreadRegistryDeathTest, RejectsSlablessRegistry) {
  EXPECT_DEATH(ThreadRegistry(false), "use_slabs must be true");
}

TEST(ThreadRegistryDeathTest, ServerFarmScenarioRejectsThreadSlabsOff) {
  ServerFarmParams params;
  params.thread_slabs = false;
  EXPECT_DEATH(RunServerFarmScenario(params), "use_slabs must be true");
}

TEST(ThreadRegistryDeathTest, WebFarmScenarioRejectsThreadSlabsOff) {
  WebFarmParams params;
  params.thread_slabs = false;
  EXPECT_DEATH(RunWebFarmScenario(params), "use_slabs must be true");
}

}  // namespace
}  // namespace realrate
