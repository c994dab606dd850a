// RBS scheduler + Machine behaviour: proportion enforcement, rate-monotonic picks,
// budget exhaustion/replenishment, reservation updates, deadline misses.
#include <memory>

#include <gtest/gtest.h>

#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

class RbsRig {
 public:
  explicit RbsRig(RbsConfig rbs_config = RbsConfig{}, bool charge_overheads = false)
      : rbs_(sim_.cpu(), rbs_config),
        machine_(sim_, rbs_, threads_,
                 MachineConfig{.dispatch_interval = Duration::Millis(1),
                               .charge_overheads = charge_overheads}) {}

  SimThread* SpawnHog(const std::string& name) {
    SimThread* t = threads_.Create(name, std::make_unique<CpuHogWork>());
    machine_.Attach(t);
    return t;
  }

  void Reserve(SimThread* t, int ppt, Duration period) {
    rbs_.SetReservation(t, Proportion::Ppt(ppt), period, sim_.Now());
  }

  // Charges `t` its whole remaining budget, as a dispatch would.
  void ExhaustBudget(SimThread* t) { rbs_.OnRan(t, t->budget_remaining(), sim_.Now()); }

  double CpuShare(SimThread* t, Duration elapsed) const {
    return static_cast<double>(t->total_cycles()) /
           static_cast<double>(sim_.cpu().DurationToCycles(elapsed));
  }

  Simulator sim_;
  ThreadRegistry threads_;
  RbsScheduler rbs_;
  Machine machine_;
};

TEST(RbsSchedulerTest, SingleReservationEnforcedNotWorkConserving) {
  RbsRig rig;
  SimThread* hog = rig.SpawnHog("hog");
  rig.Reserve(hog, 300, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  // Non-work-conserving: even alone, the hog gets only its 30% reservation.
  EXPECT_NEAR(rig.CpuShare(hog, Duration::Seconds(1)), 0.30, 0.01);
}

TEST(RbsSchedulerTest, WorkConservingModeGivesIdleCapacityAway) {
  RbsRig rig(RbsConfig{.work_conserving = true});
  SimThread* hog = rig.SpawnHog("hog");
  rig.Reserve(hog, 200, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_GT(rig.CpuShare(hog, Duration::Seconds(1)), 0.95);
}

TEST(RbsSchedulerTest, TwoReservationsSplitProportionally) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  rig.Reserve(a, 300, Duration::Millis(10));
  rig.Reserve(b, 600, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_NEAR(rig.CpuShare(a, Duration::Seconds(1)), 0.30, 0.01);
  EXPECT_NEAR(rig.CpuShare(b, Duration::Seconds(1)), 0.60, 0.01);
}

TEST(RbsSchedulerTest, FinerGrainControl60To40) {
  // The paper's fine-grain control example: "assigning 60% of the CPU to thread X and
  // 40% to thread Y."
  RbsRig rig;
  SimThread* x = rig.SpawnHog("x");
  SimThread* y = rig.SpawnHog("y");
  rig.Reserve(x, 600, Duration::Millis(20));
  rig.Reserve(y, 400, Duration::Millis(20));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(2));
  EXPECT_NEAR(rig.CpuShare(x, Duration::Seconds(2)), 0.60, 0.01);
  EXPECT_NEAR(rig.CpuShare(y, Duration::Seconds(2)), 0.40, 0.01);
}

TEST(RbsSchedulerTest, UnreservedRunsOnlyInSlack) {
  RbsRig rig;
  SimThread* reserved = rig.SpawnHog("reserved");
  SimThread* background = rig.SpawnHog("background");
  rig.Reserve(reserved, 500, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_NEAR(rig.CpuShare(reserved, Duration::Seconds(1)), 0.50, 0.01);
  EXPECT_NEAR(rig.CpuShare(background, Duration::Seconds(1)), 0.50, 0.01);
}

TEST(RbsSchedulerTest, ShorterPeriodPickedFirst) {
  // Rate-monotonic: created second, the shorter period still wins the pick.
  RbsRig rig;
  SimThread* slow = rig.SpawnHog("slow");
  SimThread* fast = rig.SpawnHog("fast");
  rig.Reserve(slow, 100, Duration::Millis(50));
  rig.Reserve(fast, 100, Duration::Millis(5));
  EXPECT_EQ(rig.rbs_.PickNext(rig.sim_.Now()), fast);
  rig.ExhaustBudget(fast);
  EXPECT_EQ(rig.rbs_.PickNext(rig.sim_.Now()), slow);
}

TEST(RbsSchedulerTest, ExhaustedReservationNotPicked) {
  RbsRig rig;  // Not work-conserving.
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 100, Duration::Millis(10));
  EXPECT_EQ(rig.rbs_.PickNext(rig.sim_.Now()), t);
  rig.ExhaustBudget(t);
  EXPECT_EQ(rig.rbs_.PickNext(rig.sim_.Now()), nullptr);
}

TEST(RbsSchedulerTest, ReservedOutranksUnreserved) {
  RbsRig rig;
  SimThread* plain = rig.SpawnHog("plain");
  SimThread* reserved = rig.SpawnHog("reserved");
  rig.Reserve(reserved, 10, Duration::Millis(10));
  EXPECT_EQ(rig.rbs_.PickNext(rig.sim_.Now()), reserved);
  rig.ExhaustBudget(reserved);
  EXPECT_EQ(rig.rbs_.PickNext(rig.sim_.Now()), plain);
}

TEST(RbsSchedulerTest, BudgetExhaustionTracedAndSleeps) {
  RbsRig rig;
  rig.sim_.trace().SetEnabled(true);
  SimThread* hog = rig.SpawnHog("hog");
  rig.Reserve(hog, 100, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Millis(100));
  // 10 periods in 100 ms: the budget exhausts each period and the thread sleeps.
  EXPECT_GE(rig.sim_.trace().Count(TraceKind::kBudgetExhausted, hog->id()), 8);
  EXPECT_GE(rig.sim_.trace().Count(TraceKind::kWake, hog->id()), 8);
}

TEST(RbsSchedulerTest, PeriodBudgetComputation) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 250, Duration::Millis(40));
  // 25% of 40 ms at 400 MHz = 4,000,000 cycles.
  EXPECT_EQ(rig.rbs_.PeriodBudget(t), 4'000'000);
}

TEST(RbsSchedulerTest, SetReservationProportionOnlyKeepsPeriodPhase) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 200, Duration::Millis(10));
  const TimePoint phase = t->period_start();
  // Simulate consuming 700k of the 800k budget.
  t->OnRan(700'000);
  rig.rbs_.OnRan(t, 700'000, rig.sim_.Now());
  EXPECT_EQ(t->budget_remaining(), 100'000);
  // Raise proportion mid-period: phase must not restart; the remaining budget becomes
  // the full new budget (400 ppt of 10 ms = 1.6M cycles) minus the 700k consumed.
  rig.rbs_.SetReservation(t, Proportion::Ppt(400), Duration::Millis(10), rig.sim_.Now());
  EXPECT_EQ(t->period_start(), phase);
  EXPECT_EQ(t->budget_remaining(), 900'000);
}

TEST(RbsSchedulerTest, RepeatedReservationUpdatesAreBudgetNeutral) {
  // An oscillating controller flipping the proportion up and down within one period
  // must not mint extra budget.
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 200, Duration::Millis(10));
  for (int i = 0; i < 100; ++i) {
    rig.rbs_.SetReservation(t, Proportion::Ppt(i % 2 == 0 ? 100 : 200), Duration::Millis(10),
                            rig.sim_.Now());
  }
  EXPECT_EQ(t->budget_remaining(), rig.rbs_.PeriodBudget(t));  // 200 ppt, nothing used.
}

TEST(RbsSchedulerTest, SetReservationPeriodChangeRestartsPhase) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 200, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Millis(5));
  rig.rbs_.SetReservation(t, Proportion::Ppt(200), Duration::Millis(20), rig.sim_.Now());
  EXPECT_EQ(t->period_start(), rig.sim_.Now());
  EXPECT_EQ(t->budget_remaining(), rig.rbs_.PeriodBudget(t));
}

TEST(RbsSchedulerTest, LoweringProportionClampsBudgetAtZero) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 400, Duration::Millis(10));
  // Consume 500k cycles, more than the whole budget at the lowered proportion
  // (100 ppt of 10 ms = 400k): the remaining budget clamps to zero.
  t->OnRan(500'000);
  rig.rbs_.OnRan(t, 500'000, rig.sim_.Now());
  rig.rbs_.SetReservation(t, Proportion::Ppt(100), Duration::Millis(10), rig.sim_.Now());
  EXPECT_EQ(t->budget_remaining(), 0);
}

TEST(RbsSchedulerTest, TotalReservedSums) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  rig.Reserve(a, 300, Duration::Millis(10));
  rig.Reserve(b, 150, Duration::Millis(20));
  EXPECT_EQ(rig.rbs_.TotalReserved().ppt(), 450);
}

TEST(RbsSchedulerTest, OversubscriptionCausesDeadlineMisses) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  // 70% + 70% = 140%: someone must miss every period.
  rig.Reserve(a, 700, Duration::Millis(10));
  rig.Reserve(b, 700, Duration::Millis(10));
  int64_t miss_count = 0;
  rig.rbs_.SetDeadlineMissFn(
      [&](SimThread*, Cycles shortfall, TimePoint) {
        ++miss_count;
        EXPECT_GT(shortfall, 0);
      });
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_GT(miss_count, 50);
  EXPECT_GT(a->deadline_misses() + b->deadline_misses(), 50);
}

TEST(RbsSchedulerTest, NoMissesWhenFeasible) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  rig.Reserve(a, 400, Duration::Millis(10));
  rig.Reserve(b, 400, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(a->deadline_misses(), 0);
  EXPECT_EQ(b->deadline_misses(), 0);
}

TEST(RbsSchedulerTest, ShortPeriodThreadMeetsTightDeadlines) {
  // A 5 ms period isochronous-style reservation coexisting with a long-period one.
  RbsRig rig;
  SimThread* iso = rig.SpawnHog("iso");
  SimThread* bulk = rig.SpawnHog("bulk");
  rig.Reserve(iso, 200, Duration::Millis(5));
  rig.Reserve(bulk, 700, Duration::Millis(100));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(iso->deadline_misses(), 0);
  EXPECT_NEAR(rig.CpuShare(iso, Duration::Seconds(1)), 0.20, 0.01);
  EXPECT_NEAR(rig.CpuShare(bulk, Duration::Seconds(1)), 0.70, 0.02);
}

}  // namespace
}  // namespace realrate
