// SimThread accounting and ThreadRegistry behaviour.
#include <memory>

#include <gtest/gtest.h>

#include "task/registry.h"
#include "task/thread.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

TEST(SimThreadTest, UsageAccountingAccumulates) {
  ThreadRegistry reg;
  SimThread* t = reg.Create("t", std::make_unique<CpuHogWork>());
  t->OnRan(100);
  t->OnRan(250);
  EXPECT_EQ(t->total_cycles(), 350);
  EXPECT_EQ(t->cycles_this_period(), 350);
  t->ResetPeriodCycles();
  EXPECT_EQ(t->cycles_this_period(), 0);
  EXPECT_EQ(t->total_cycles(), 350);  // Total is never reset.
}

TEST(SimThreadTest, WindowCyclesAreTakeOnce) {
  ThreadRegistry reg;
  SimThread* t = reg.Create("t", std::make_unique<CpuHogWork>());
  t->OnRan(500);
  EXPECT_EQ(t->TakeWindowCycles(), 500);
  EXPECT_EQ(t->TakeWindowCycles(), 0);  // Taken.
  t->OnRan(70);
  EXPECT_EQ(t->TakeWindowCycles(), 70);
}

TEST(SimThreadTest, ReservationAttributes) {
  ThreadRegistry reg;
  SimThread* t = reg.Create("t", std::make_unique<CpuHogWork>());
  EXPECT_EQ(t->period(), Duration::Millis(30));  // The paper's default period.
  t->SetReservation(Proportion::Ppt(250), Duration::Millis(20));
  EXPECT_EQ(t->proportion().ppt(), 250);
  EXPECT_EQ(t->period(), Duration::Millis(20));
}

TEST(SimThreadTest, DefaultsMatchTaxonomy) {
  ThreadRegistry reg;
  SimThread* t = reg.Create("t", std::make_unique<CpuHogWork>());
  EXPECT_EQ(t->policy(), SchedPolicy::kOther);
  EXPECT_EQ(t->state(), ThreadState::kRunnable);
  EXPECT_DOUBLE_EQ(t->importance(), 1.0);
}

TEST(SimThreadTest, ProgressCounterMonotone) {
  ThreadRegistry reg;
  SimThread* t = reg.Create("t", std::make_unique<CpuHogWork>());
  t->AddProgress(10);
  t->AddProgress(15);
  EXPECT_EQ(t->progress_units(), 25);
}

TEST(ThreadRegistryTest, IdsAreSequentialAndFindable) {
  ThreadRegistry reg;
  SimThread* a = reg.Create("a", std::make_unique<CpuHogWork>());
  SimThread* b = reg.Create("b", std::make_unique<CpuHogWork>());
  EXPECT_EQ(a->id(), 0);
  EXPECT_EQ(b->id(), 1);
  EXPECT_EQ(reg.Find(0), a);
  EXPECT_EQ(reg.Find(1), b);
  EXPECT_EQ(reg.Find(2), nullptr);
  EXPECT_EQ(reg.Find(-1), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ThreadRegistryTest, FindByName) {
  ThreadRegistry reg;
  reg.Create("alpha", std::make_unique<CpuHogWork>());
  SimThread* beta = reg.Create("beta", std::make_unique<CpuHogWork>());
  EXPECT_EQ(reg.FindByName("beta"), beta);
  EXPECT_EQ(reg.FindByName("gamma"), nullptr);
}

TEST(ThreadRegistryTest, AllIteratesInCreationOrder) {
  ThreadRegistry reg;
  for (int i = 0; i < 5; ++i) {
    reg.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
  }
  const auto all = reg.All();
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(all[i]->id(), i);
  }
}

TEST(ThreadRegistryTest, BindsWorkModelToThread) {
  // Work models receive their owning thread via Bind; progress lands on the right one.
  ThreadRegistry reg;
  SimThread* t = reg.Create("hog", std::make_unique<CpuHogWork>(100));
  const RunResult r = t->work().Run(TimePoint::Origin(), 1'000);
  EXPECT_EQ(r.used, 1'000);
  EXPECT_EQ(t->progress_units(), 10);  // 1000 cycles / 100 per key.
}

TEST(ThreadStateTest, ToStringCoversAll) {
  EXPECT_STREQ(ToString(ThreadState::kRunnable), "runnable");
  EXPECT_STREQ(ToString(ThreadState::kRunning), "running");
  EXPECT_STREQ(ToString(ThreadState::kBlocked), "blocked");
  EXPECT_STREQ(ToString(ThreadState::kSleeping), "sleeping");
  EXPECT_STREQ(ToString(ThreadState::kExited), "exited");
  EXPECT_STREQ(ToString(ThreadClass::kRealTime), "real-time");
  EXPECT_STREQ(ToString(ThreadClass::kAperiodicRealTime), "aperiodic-real-time");
  EXPECT_STREQ(ToString(ThreadClass::kRealRate), "real-rate");
  EXPECT_STREQ(ToString(ThreadClass::kMiscellaneous), "miscellaneous");
}

}  // namespace
}  // namespace realrate
