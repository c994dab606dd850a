// rrbench: runs one workload of the repository benchmark and prints one JSON
// object as its last line of output. perfbench/run.py builds this program and
// launches it once per workload run, so every run has its own process, its own
// peak memory, and its own crash boundary (an RR_CHECK abort fails only that run).
//
//   rrbench --workload <web_farm|dense_pipelines|cluster_farm> --seed N
//           --seconds S --trace <0|1>
//
// Untraced runs (--trace 0) repeat the workload for S host seconds and report
// host rates from the fastest repetition, set-up time as the median, and the
// simulated outcomes, which repeat exactly. Traced runs (--trace 1) alternate
// an untraced repetition with a traced one, in which the same machines are wired
// from public constructors and timed only at public boundaries: a forwarding
// Scheduler per core, a MachineChecker for pick and tick-complete instants, and
// controller passes the benchmark schedules itself. A traced run's trace hash
// must equal the untraced one, so tracing provably leaves the simulation
// unchanged.
//
// Output keys: "fingerprint" (host and build), "attempted" (simulation runs),
// "failed" (all of them when any check failed), "errors", and "metrics".
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/cluster_farm.h"
#include "cluster/router.h"
#include "core/controller.h"
#include "exp/scenarios.h"
#include "exp/system.h"
#include "queue/registry.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "util/assert.h"
#include "util/rng.h"
#include "workloads/arrivals.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"
#include "workloads/web_farm.h"

namespace rrbench {
namespace {

using realrate::ArrivalConfig;
using realrate::BoundedBuffer;
using realrate::ClusterFarmParams;
using realrate::ClusterFarmResult;
using realrate::CpuId;
using realrate::Cycles;
using realrate::Duration;
using realrate::FeedbackAllocator;
using realrate::FrontEndRouter;
using realrate::Machine;
using realrate::MachineChecker;
using realrate::QueueRegistry;
using realrate::RbsScheduler;
using realrate::RequestRecord;
using realrate::Scheduler;
using realrate::ServerFarmParams;
using realrate::SimThread;
using realrate::Simulator;
using realrate::System;
using realrate::SystemConfig;
using realrate::ThreadRegistry;
using realrate::TimePoint;
using realrate::WebFarmParams;
using realrate::WebFarmResult;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t t0_ns) { return static_cast<double>(NowNs() - t0_ns) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Metrics = std::map<std::string, double>;

// Failed checks, each listed once; any entry fails the whole run.
struct Checks {
  std::vector<std::string> errors;
  void Expect(bool ok, const std::string& what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(what);
    }
  }
};

// How long to repeat, whether to trace, and how many simulation runs started.
struct RunPlan {
  static constexpr int kMinReps = 3;
  double seconds = 10.0;
  bool trace = false;
  int64_t attempted = 0;

  // Repetitions continue until `seconds` have passed and at least `min_reps` ran.
  bool More(int reps, int64_t start_ns, int min_reps = kMinReps) const {
    return reps < min_reps || SecondsSince(start_ns) < seconds;
  }
  // Counts a simulation run before it starts and tells run.py, so a run that
  // dies inside it is counted as attempted and failed.
  void Announce() {
    ++attempted;
    std::printf("run %lld\n", static_cast<long long>(attempted));
    std::fflush(stdout);
  }
};

// Refused over offered work, counting one extra refusal so the share is never
// zero: a closed loop refuses nothing, and a zero median admits no relative bound.
double DropFraction(int64_t refused, int64_t offered) {
  return static_cast<double>(refused + 1) / static_cast<double>(offered + 1);
}

// Host samples of the untraced repetitions: the set-up and run spans, the
// work units (requests served, or pipeline items consumed) each run completed,
// and the process's peak memory after its first run. Later runs of one process
// only add allocator fragmentation, which varies with how many fit in a run.
struct HostSamples {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> served;
  double peak_rss_mb = 0.0;

  void Record(double setup, double run, double work) {
    setup_s.push_back(setup);
    run_s.push_back(run);
    served.push_back(work);
    if (peak_rss_mb == 0.0) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
};

// The end-to-end host metrics. Rates come from the fastest repetition: other
// tenants of a shared host only ever slow a run down, in phases that last
// seconds, so the median of a run's repetitions moves with whatever phase the
// run met, while the fastest one is far steadier. Set-up time is the median.
void PutHostMetrics(const HostSamples& h, Duration horizon, Metrics& m) {
  double served_rate = 0.0;
  for (size_t i = 0; i < h.run_s.size(); ++i) {
    served_rate = std::max(served_rate, h.served[i] / h.run_s[i]);
  }
  m["served_per_host_s"] = served_rate;
  m["sim_s_per_host_s"] = horizon.ToSeconds() / *std::min_element(h.run_s.begin(), h.run_s.end());
  m["setup_s"] = Median(h.setup_s);
  m["peak_rss_mb"] = h.peak_rss_mb;
}

// ---------------------------------------------------------------------------
// Workloads. Each is a pure function of the seed; the seed reaches the program
// only through the inputs built here.
// ---------------------------------------------------------------------------

// The farm workloads run several independent request streams, each seeded
// from the run's seed, and report the median simulated outcome over them:
// drops are rare events whose count varies from stream to stream, and now and
// then a stream tips the default farm into sustained dropping.
std::vector<uint64_t> StreamSeeds(uint64_t seed, int streams) {
  realrate::Rng rng(seed);
  std::vector<uint64_t> seeds;
  for (int i = 0; i < streams; ++i) {
    seeds.push_back(rng.NextU64());
  }
  return seeds;
}

// web_farm: one Flash-style farm under open-loop Poisson arrivals at half its
// nominal capacity. The default RBS and controller configuration is kept, so the
// non-work-conserving pathology shows (latency in the hundreds of milliseconds
// and drops at half load). At 0.7x the default farm is bistable across seeds,
// which no run-to-run bound could hold.
constexpr int kWebFarmStreams = 64;
WebFarmParams WebFarmWorkload(uint64_t seed) {
  WebFarmParams p;
  p.num_cpus = 4;
  p.num_workers = 64;
  p.num_acceptors = 1;
  p.run_for = Duration::Seconds(60);
  p.arrivals.kind = ArrivalConfig::Kind::kPoisson;
  p.arrivals.seed = seed;
  p.arrivals.requests_per_sec = 0.5 * realrate::WebFarmCapacityRps(p);
  return p;
}

// cluster_farm: 16 share-nothing nodes behind the router, Pareto sessions with
// heavy-tailed service demands and request sizes, about 0.71x of capacity.
constexpr int kClusterFarmStreams = 32;
ClusterFarmParams ClusterFarmWorkload(uint64_t seed) {
  ClusterFarmParams p;
  p.num_machines = 16;
  p.farm.num_cpus = 2;
  p.farm.num_workers = 8;
  p.farm.run_for = Duration::Seconds(10);
  p.farm.arrivals.kind = ArrivalConfig::Kind::kParetoSessions;
  p.farm.arrivals.seed = seed;
  p.farm.arrivals.sessions_per_sec = 4250.0;
  p.farm.arrivals.session_alpha = 1.5;
  p.farm.arrivals.service_alpha = 2.0;
  p.farm.arrivals.bytes_alpha = 1.5;
  return p;
}

// dense_pipelines: 512 producer -> consumer pipelines plus 4 hogs on 4 cores, a
// closed loop. The seed draws the per-item producer cost within 1% of the
// scenario default: enough to vary the simulated outcomes, too little to vary
// the host work.
ServerFarmParams DensePipelinesWorkload(uint64_t seed) {
  ServerFarmParams p;
  p.num_cpus = 4;
  p.num_pipelines = 512;
  p.num_hogs = 4;
  p.run_for = Duration::Seconds(10);
  realrate::Rng rng(seed);
  p.producer_cycles_per_item = std::llround(60'000.0 * rng.NextDouble(0.99, 1.01));
  return p;
}

// The SystemConfig that RunWebFarmScenario and RunServerFarmScenario build.
template <class Params>
SystemConfig MachineConfigOf(const Params& p) {
  SystemConfig config;
  config.num_cpus = p.num_cpus;
  config.cpu.clock_hz = p.clock_hz;
  config.rbs = p.rbs;
  config.controller = p.controller;
  config.machine.idle_fast_forward = p.idle_fast_forward;
  config.machine.host_threads = p.host_threads;
  config.thread_slabs = p.thread_slabs;
  return config;
}

// ---------------------------------------------------------------------------
// Layer tracing.
// ---------------------------------------------------------------------------

// Host-time accounting for one traced run. Every timestamp goes through Stamp(),
// which counts clock reads, so each window is reported net of the reads taken
// inside it; read_ns is the calibrated cost of one read.
class Tracer {
 public:
  struct Window {
    int64_t t0 = 0;
    int64_t reads0 = 0;
    double sched0 = 0.0;
    double run0 = 0.0;
    bool open = false;
  };

  Tracer(int cores, double read_ns) : read_ns_(read_ns), cores_(static_cast<size_t>(cores)) {}

  int64_t Stamp() {
    ++reads_;
    return NowNs();
  }

  Window Open() {
    Window w;
    w.t0 = Stamp();
    w.reads0 = reads_;
    w.sched0 = sched_ns;
    w.run0 = run_ns;
    w.open = true;
    return w;
  }
  // Nanoseconds since `w` opened, net of every clock read taken inside it.
  double Close(Window& w) {
    const int64_t t1 = Stamp();
    w.open = false;
    return static_cast<double>(t1 - w.t0) - static_cast<double>(reads_ - w.reads0) * read_ns_;
  }

  // Times one scheduler call.
  template <class F>
  auto SchedCall(bool is_pick, F&& f) {
    Window w = Open();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      EndSched(is_pick, Close(w));
    } else {
      auto result = f();
      EndSched(is_pick, Close(w));
      return result;
    }
  }

  // A tick window runs from the scheduler's OnTick to the checker's
  // OnTickComplete; a run window from OnPicked to the scheduler's next OnRan.
  void OpenTick(CpuId core) { Core(core).tick = Open(); }
  void CloseTick(CpuId core) {
    Window& w = Core(core).tick;
    if (!w.open) {
      return;
    }
    const double net = Close(w);
    const double sched_inside = sched_ns - w.sched0;
    tick_ns += net;
    sched_in_ticks_ns += sched_inside;
    machine_ns += net - sched_inside - (run_ns - w.run0);
    ++ticks;
  }
  void OpenRun(CpuId core) { Core(core).run = Open(); }
  void CloseRun(CpuId core) {
    Window& w = Core(core).run;
    if (!w.open) {
      return;
    }
    run_ns += Close(w) - (sched_ns - w.sched0);
    ++runs;
  }

  // One controller pass, net of the scheduler calls it makes through the machine.
  void ControllerPass(const std::function<void()>& pass) {
    Window w = Open();
    pass();
    controller_ns += Close(w) - (sched_ns - w.sched0);
  }

  double read_ns() const { return read_ns_; }

  double sched_ns = 0.0;  // pick_ns + policy_ns.
  double pick_ns = 0.0;
  double policy_ns = 0.0;
  double sched_in_ticks_ns = 0.0;
  double tick_ns = 0.0;
  double machine_ns = 0.0;  // Tick time outside scheduler calls and workload runs.
  double run_ns = 0.0;
  double controller_ns = 0.0;
  int64_t picks = 0;
  int64_t ticks = 0;
  int64_t runs = 0;

 private:
  struct CoreWindows {
    Window tick;
    Window run;
  };

  CoreWindows& Core(CpuId core) { return cores_[static_cast<size_t>(core)]; }

  void EndSched(bool is_pick, double ns) {
    sched_ns += ns;
    if (is_pick) {
      pick_ns += ns;
      ++picks;
    } else {
      policy_ns += ns;
    }
  }

  const double read_ns_;
  int64_t reads_ = 0;
  std::vector<CoreWindows> cores_;
};

// Cost of one Tracer::Stamp: the median of five batches.
double CalibrateReadNs() {
  Tracer probe(1, 0.0);
  constexpr int kReads = 1 << 20;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kReads; ++i) {
      probe.Stamp();
    }
    batches.push_back(static_cast<double>(NowNs() - t0) / kReads);
  }
  return Median(batches);
}

// Forwards every Scheduler call to one core's RbsScheduler and times it.
class TimedScheduler : public Scheduler {
 public:
  TimedScheduler(Scheduler& inner, Tracer& tracer, CpuId core)
      : inner_(inner), tracer_(tracer), core_(core) {}

  const char* name() const override { return inner_.name(); }
  void AddThread(SimThread* t) override {
    tracer_.SchedCall(false, [&] { inner_.AddThread(t); });
  }
  void RemoveThread(SimThread* t) override {
    tracer_.SchedCall(false, [&] { inner_.RemoveThread(t); });
  }
  void OnTick(TimePoint now) override {
    tracer_.OpenTick(core_);
    tracer_.SchedCall(false, [&] { inner_.OnTick(now); });
  }
  void OnTicksSkipped(int64_t count, TimePoint now) override {
    tracer_.SchedCall(false, [&] { inner_.OnTicksSkipped(count, now); });
  }
  SimThread* PickNext(TimePoint now) override {
    return tracer_.SchedCall(true, [&] { return inner_.PickNext(now); });
  }
  Cycles MaxGrant(SimThread* t, Cycles tick_remaining) override {
    return tracer_.SchedCall(false, [&] { return inner_.MaxGrant(t, tick_remaining); });
  }
  Cycles RoundCycleBound(const SimThread* t, Cycles tick_cycles) const override {
    return inner_.RoundCycleBound(t, tick_cycles);
  }
  void OnRan(SimThread* t, Cycles used, TimePoint now) override {
    tracer_.CloseRun(core_);
    tracer_.SchedCall(false, [&] { inner_.OnRan(t, used, now); });
  }
  std::optional<TimePoint> ThrottleUntil(SimThread* t, TimePoint now) override {
    return tracer_.SchedCall(false, [&] { return inner_.ThrottleUntil(t, now); });
  }
  void OnWake(SimThread* t, TimePoint now) override {
    tracer_.SchedCall(false, [&] { inner_.OnWake(t, now); });
  }
  void OnBlock(SimThread* t, TimePoint now) override {
    tracer_.SchedCall(false, [&] { inner_.OnBlock(t, now); });
  }

 private:
  Scheduler& inner_;
  Tracer& tracer_;
  const CpuId core_;
};

// Cores are numbered across all traced machines: machine-local core c is
// tracer core `first_core + c`.
class TickChecker : public MachineChecker {
 public:
  TickChecker(Tracer& tracer, CpuId first_core) : tracer_(tracer), first_core_(first_core) {}
  void OnPicked(const Machine&, CpuId core, const SimThread*, TimePoint) override {
    tracer_.OpenRun(first_core_ + core);
  }
  void OnTickComplete(const Machine&, CpuId core, TimePoint) override {
    tracer_.CloseTick(first_core_ + core);
  }

 private:
  Tracer& tracer_;
  const CpuId first_core_;
};

// The machine System builds, wired from public constructors with a
// TimedScheduler in front of each core's RbsScheduler; its cores are tracer
// cores from `first_core` on. The schedulers and the checker are declared
// before the machine, so they outlive it.
class TracedStack {
 public:
  TracedStack(const SystemConfig& config, Tracer& tracer, CpuId first_core = 0)
      : sim(config.cpu, config.num_cpus),
        threads(config.thread_slabs),
        tracer_(tracer),
        checker_(tracer, first_core),
        interval_(config.controller.interval) {
    std::vector<Scheduler*> schedulers;
    for (int i = 0; i < config.num_cpus; ++i) {
      const auto core = static_cast<CpuId>(i);
      rbs_.push_back(std::make_unique<RbsScheduler>(sim.cpu(core), config.rbs));
      timed_.push_back(
          std::make_unique<TimedScheduler>(*rbs_.back(), tracer, first_core + core));
      schedulers.push_back(timed_.back().get());
    }
    machine = std::make_unique<Machine>(sim, std::move(schedulers), threads, config.machine);
    controller = std::make_unique<FeedbackAllocator>(*machine, *rbs_[0], queues,
                                                     config.controller);
    for (size_t i = 1; i < rbs_.size(); ++i) {
      controller->WireScheduler(*rbs_[i]);
    }
    machine->SetChecker(&checker_);
    sim.trace().SetEnabled(true);
    sim.trace().SetHashOnly(true);
  }
  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  // System::Start, except that the controller's periodic pass is scheduled here
  // (the same ScheduleAfter chain FeedbackAllocator::Start builds), so each pass
  // is timed.
  void Start() {
    machine->Start();
    SchedulePass();
  }

  Simulator sim;
  ThreadRegistry threads;
  QueueRegistry queues;

 private:
  void SchedulePass() {
    sim.ScheduleAfter(interval_, [this] {
      tracer_.ControllerPass([this] { controller->RunOnce(sim.Now()); });
      SchedulePass();
    });
  }

  Tracer& tracer_;
  TickChecker checker_;
  const Duration interval_;
  std::vector<std::unique_ptr<RbsScheduler>> rbs_;
  std::vector<std::unique_ptr<TimedScheduler>> timed_;

 public:
  std::unique_ptr<Machine> machine;
  std::unique_ptr<FeedbackAllocator> controller;
};

// Every per-layer metric, in output order.
const char* const kLayerNames[] = {
    "sim.events",
    "sim.outside_tick_s",
    "sim.ns_per_event",
    "sched.ticks",
    "sched.tick_s",
    "sched.picks",
    "sched.pick_s",
    "sched.pick_ns",
    "sched.policy_s",
    "sched.machine_s",
    "sched.dispatches",
    "sched.context_switches",
    "sched.migrations",
    "sched.idle_suspensions",
    "sched.user_frac",
    "workloads.runs",
    "workloads.run_s",
    "workloads.generate_s",
    "workloads.consumed_mb_per_sim_s",
    "queue.pushes",
    "queue.pops",
    "queue.full_hits",
    "queue.empty_hits",
    "queue.op_success_ratio",
    "core.invocations",
    "core.controller_s",
    "core.us_per_invocation",
    "core.squish_events",
    "core.quality_exceptions",
    "core.dirty_sample_ratio",
    "cluster.epoch_fences",
    "cluster.rebalanced",
    "cluster.imbalance",
    "exp.wire_s",
    "bench.span_cost_ns",
    "bench.trace_overhead_frac",
};

// The parts of a machine a workload is wired into: a System's or a TracedStack's.
struct Parts {
  Simulator& sim;
  ThreadRegistry& threads;
  QueueRegistry& queues;
  Machine& machine;
  FeedbackAllocator& controller;
};

// Wires a workload into a machine before it starts. The returned function reads
// the bytes the workload's consumers drained; it is valid while the machine lives.
using Wiring = std::function<std::function<int64_t()>(const Parts&)>;

// One run of a wired machine. `wire_s` covers building the machine and wiring
// the workload, `run_s` Start and RunFor.
struct MachineRun {
  double wire_s = 0.0;
  double run_s = 0.0;
  uint64_t hash = 0;
  int64_t consumed_bytes = 0;
  Metrics layers;  // Traced runs only.
};

// Hooks around an untraced run: `before_start` may install a MachineChecker,
// and `after_run` reads what it needs while the machine still lives.
struct Observer {
  std::function<void(Machine&)> before_start;
  std::function<void()> after_run;
};

// An untraced run on a System.
MachineRun PlainRun(const SystemConfig& config, Duration horizon, const Wiring& wiring,
                    const Observer* observer = nullptr) {
  MachineRun run;
  int64_t t0 = NowNs();
  System system(config);
  system.sim().trace().SetEnabled(true);
  system.sim().trace().SetHashOnly(true);
  const auto consumed = wiring(
      {system.sim(), system.threads(), system.queues(), system.machine(), system.controller()});
  run.wire_s = SecondsSince(t0);
  if (observer != nullptr) {
    observer->before_start(system.machine());
  }
  t0 = NowNs();
  system.Start();
  system.RunFor(horizon);
  run.run_s = SecondsSince(t0);
  if (observer != nullptr) {
    system.machine().SetChecker(nullptr);
    observer->after_run();
  }
  run.hash = system.sim().trace().Hash();
  run.consumed_bytes = consumed();
  return run;
}

// The per-layer metrics of one traced run over one or more machines, from the
// tracer and public accessors. `consumed_bytes` is what the workload's
// consumers drained.
Metrics LayerMetrics(const Tracer& tr, const std::vector<const TracedStack*>& stacks,
                     double runfor_ns, Duration horizon, int64_t consumed_bytes) {
  double events = 0.0;
  double dispatches = 0.0;
  double context_switches = 0.0;
  double migrations = 0.0;
  double idle_suspensions = 0.0;
  double epoch_fences = 0.0;
  double user_cycles = 0.0;
  double capacity_cycles = 0.0;
  int64_t pushed = 0;
  int64_t popped = 0;
  int64_t full = 0;
  int64_t empty = 0;
  uint64_t ops = 0;  // Every TryPush/TryPop/TryPopExact bumps the change epoch.
  double invocations = 0.0;
  double squish_events = 0.0;
  double quality_exceptions = 0.0;
  double samples = 0.0;
  double dirty_samples = 0.0;
  for (const TracedStack* stack : stacks) {
    events += static_cast<double>(stack->sim.events_processed());
    const Machine& machine = *stack->machine;
    dispatches += static_cast<double>(machine.dispatches());
    context_switches += static_cast<double>(machine.context_switches());
    migrations += static_cast<double>(machine.migrations());
    idle_suspensions += static_cast<double>(machine.idle_suspensions());
    epoch_fences += static_cast<double>(machine.epoch_fences());
    user_cycles += static_cast<double>(stack->sim.UsedAllCpus(realrate::CpuUse::kUser));
    capacity_cycles += static_cast<double>(stack->sim.cpu().DurationToCycles(horizon)) *
                       stack->sim.num_cpus();
    for (const BoundedBuffer* q : stack->queues.AllQueues()) {
      pushed += q->total_pushed();
      popped += q->total_popped();
      full += q->full_hits();
      empty += q->empty_hits();
      ops += q->change_epoch();
    }
    const FeedbackAllocator& ctl = *stack->controller;
    invocations += static_cast<double>(ctl.invocations());
    squish_events += static_cast<double>(ctl.squish_events());
    quality_exceptions += static_cast<double>(ctl.quality_exceptions());
    samples += static_cast<double>(ctl.clean_samples() + ctl.dirty_samples());
    dirty_samples += static_cast<double>(ctl.dirty_samples());
  }

  Metrics m;
  const double outside_ns = runfor_ns - tr.tick_ns - tr.controller_ns -
                            (tr.sched_ns - tr.sched_in_ticks_ns);
  m["sim.events"] = events;
  m["sim.outside_tick_s"] = outside_ns * 1e-9;
  m["sim.ns_per_event"] = outside_ns / events;

  m["sched.ticks"] = static_cast<double>(tr.ticks);
  m["sched.tick_s"] = tr.tick_ns * 1e-9;
  m["sched.picks"] = static_cast<double>(tr.picks);
  m["sched.pick_s"] = tr.pick_ns * 1e-9;
  m["sched.pick_ns"] = tr.pick_ns / static_cast<double>(std::max<int64_t>(1, tr.picks));
  m["sched.policy_s"] = tr.policy_ns * 1e-9;
  m["sched.machine_s"] = tr.machine_ns * 1e-9;
  m["sched.dispatches"] = dispatches;
  m["sched.context_switches"] = context_switches;
  m["sched.migrations"] = migrations;
  m["sched.idle_suspensions"] = idle_suspensions;
  m["sched.user_frac"] = user_cycles / capacity_cycles;

  m["workloads.runs"] = static_cast<double>(tr.runs);
  m["workloads.run_s"] = tr.run_ns * 1e-9;
  m["workloads.consumed_mb_per_sim_s"] =
      static_cast<double>(consumed_bytes) / 1e6 / horizon.ToSeconds();

  m["queue.pushes"] = static_cast<double>(pushed);
  m["queue.pops"] = static_cast<double>(popped);
  m["queue.full_hits"] = static_cast<double>(full);
  m["queue.empty_hits"] = static_cast<double>(empty);
  m["queue.op_success_ratio"] =
      1.0 - static_cast<double>(full + empty) / static_cast<double>(std::max<uint64_t>(1, ops));

  m["core.invocations"] = invocations;
  m["core.controller_s"] = tr.controller_ns * 1e-9;
  m["core.us_per_invocation"] = tr.controller_ns * 1e-3 / std::max(1.0, invocations);
  m["core.squish_events"] = squish_events;
  m["core.quality_exceptions"] = quality_exceptions;
  m["core.dirty_sample_ratio"] = dirty_samples / std::max(1.0, samples);

  // A single machine has no epoch fences, nothing to rebalance, and is
  // vacuously level; the cluster's traced run overrides the last two.
  m["cluster.epoch_fences"] = epoch_fences;
  m["cluster.rebalanced"] = 0.0;
  m["cluster.imbalance"] = 1.0;
  m["bench.span_cost_ns"] = 2.0 * tr.read_ns();
  return m;
}

// A traced run on a TracedStack, over the same spans PlainRun times.
MachineRun TracedRun(const SystemConfig& config, Duration horizon, const Wiring& wiring,
                     double read_ns) {
  MachineRun run;
  Tracer tracer(config.num_cpus, read_ns);
  int64_t t0 = NowNs();
  TracedStack stack(config, tracer);
  const auto consumed =
      wiring({stack.sim, stack.threads, stack.queues, *stack.machine, *stack.controller});
  run.wire_s = SecondsSince(t0);
  t0 = NowNs();
  stack.Start();
  Tracer::Window all = tracer.Open();
  stack.machine->RunFor(horizon);
  const double runfor_ns = tracer.Close(all);
  run.run_s = SecondsSince(t0);
  run.hash = stack.sim.trace().Hash();
  run.consumed_bytes = consumed();
  run.layers = LayerMetrics(tracer, {&stack}, runfor_ns, horizon, run.consumed_bytes);
  run.layers["exp.wire_s"] = run.wire_s;
  return run;
}

// Alternates untraced and traced runs of one wiring for the run's seconds. Both
// must reproduce `want_hash`, the scenario's own trace hash. Reports the median
// of each per-layer metric, and what tracing cost: traced over untraced host
// time of the same spans, minus one.
Metrics TraceLoop(RunPlan& plan, Checks& checks, const SystemConfig& config, Duration horizon,
                  uint64_t want_hash, const Wiring& wiring) {
  const double read_ns = CalibrateReadNs();
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::map<std::string, std::vector<double>> layers;
  const int64_t start = NowNs();
  for (int i = 0; plan.More(i, start); ++i) {
    plan.Announce();
    const MachineRun plain = PlainRun(config, horizon, wiring);
    checks.Expect(plain.hash == want_hash, "the wiring differs from the scenario (trace hash)");
    plan.Announce();
    const MachineRun traced = TracedRun(config, horizon, wiring, read_ns);
    checks.Expect(traced.hash == want_hash, "tracing changed the trace hash");
    plain_s.push_back(plain.wire_s + plain.run_s);
    traced_s.push_back(traced.wire_s + traced.run_s);
    for (const auto& [name, value] : traced.layers) {
      layers[name].push_back(value);
    }
  }
  Metrics m;
  for (const char* name : kLayerNames) {
    m[name] = Median(layers[name]);
  }
  m["bench.trace_overhead_frac"] = Median(traced_s) / Median(plain_s) - 1.0;
  return m;
}

// ---------------------------------------------------------------------------
// Farm workloads (web_farm, cluster_farm).
// ---------------------------------------------------------------------------

// The simulated outcome of one farm run; repetitions must match exactly.
struct FarmOutcome {
  int64_t offered = 0;
  int64_t injected = 0;
  int64_t listen_drops = 0;
  int64_t accepted = 0;
  int64_t dispatch_drops = 0;
  int64_t served = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  uint64_t hash = 0;

  bool operator==(const FarmOutcome&) const = default;
};

template <class Result>
FarmOutcome OutcomeOf(const Result& r, uint64_t hash) {
  return {r.offered, r.injected, r.listen_drops, r.accepted, r.dispatch_drops,
          r.served,  r.p50_ms,   r.p99_ms,       r.p999_ms,  hash};
}

// Conservation, and a stream the generator's cap did not cut short. `accepted`
// counts requests an acceptor placed in a worker queue, so dispatch drops sit
// beside it: served <= accepted, and accepted + dispatch_drops <= injected -
// listen_drops, with injected <= offered.
void CheckFarm(const FarmOutcome& o, int64_t max_requests, Checks& checks) {
  checks.Expect(o.served <= o.accepted &&
                    o.accepted + o.dispatch_drops <= o.injected - o.listen_drops &&
                    o.injected <= o.offered,
                "request conservation violated");
  checks.Expect(o.offered < max_requests,
                "request stream reached ArrivalConfig::max_requests (" +
                    std::to_string(max_requests) + ") and was truncated");
  checks.Expect(o.served > 0, "the farm served no request");
}

// Cycles through a farm's streams until the run's seconds are up, and at
// least once through all of them plus one repeat; `rep(k, host)` runs stream k
// once. A stream's repeats must reproduce its first run exactly.
Metrics RepeatFarm(RunPlan& plan, Checks& checks, int streams, Duration horizon,
                   int64_t max_requests,
                   const std::function<FarmOutcome(int, HostSamples&)>& rep) {
  HostSamples host;
  std::vector<std::optional<FarmOutcome>> first(static_cast<size_t>(streams));
  const int64_t start = NowNs();
  for (int i = 0; plan.More(i, start, streams + 1); ++i) {
    const int k = i % streams;
    plan.Announce();
    const FarmOutcome o = rep(k, host);
    std::optional<FarmOutcome>& f = first[static_cast<size_t>(k)];
    if (!f) {
      f = o;
      CheckFarm(o, max_requests, checks);
    }
    checks.Expect(o == *f, "stream " + std::to_string(k) +
                               " did not repeat exactly (trace hash or outcome)");
  }
  Metrics m;
  PutHostMetrics(host, horizon, m);
  std::map<std::string, std::vector<double>> outcomes;
  int64_t offered = 0;
  for (const std::optional<FarmOutcome>& f : first) {
    offered += f->offered;
    outcomes["req_p50_ms"].push_back(f->p50_ms);
    outcomes["req_p99_ms"].push_back(f->p99_ms);
    outcomes["req_p999_ms"].push_back(f->p999_ms);
    outcomes["drop_frac"].push_back(
        DropFraction(f->listen_drops + f->dispatch_drops, f->offered));
  }
  for (const auto& [name, values] : outcomes) {
    m[name] = Median(values);
  }
  m["offered"] = static_cast<double>(offered);
  return m;
}

// Generates `farm`'s request stream as its replay, the farm workloads' set-up
// span; returns the host seconds it took.
double GenerateReplay(WebFarmParams& farm) {
  const int64_t t0 = NowNs();
  farm.replay = realrate::GenerateRequests(farm.arrivals, farm.run_for);
  return SecondsSince(t0);
}

// The farm RunWebFarmScenario and RunClusterFarmScenario build on a machine,
// without its request records.
realrate::WebFarmBuild FarmBuild(const WebFarmParams& params) {
  realrate::WebFarmBuild build;
  build.tag = "web";
  build.num_workers = params.num_workers;
  build.num_acceptors = params.num_acceptors;
  build.accept_cycles = params.accept_cycles;
  build.listen_queue_bytes = params.listen_queue_bytes;
  build.worker_queue_bytes = params.worker_queue_bytes;
  build.clock_hz = params.clock_hz;
  return build;
}

// RunWebFarmScenario's farm, wired through BuildWebFarm on a given stream.
Wiring WebFarmWiring(const WebFarmParams& params, const std::vector<RequestRecord>& records) {
  return [&params, &records](const Parts& parts) {
    realrate::WebFarmBuild build = FarmBuild(params);
    build.records = records;
    std::shared_ptr<realrate::WebFarmInstance> farm = realrate::BuildWebFarm(
        build, parts.sim, parts.threads, parts.queues, parts.machine, &parts.controller);
    return std::function<int64_t()>([farm] {
      int64_t consumed = 0;
      for (const auto& stream : farm->worker_streams) {
        consumed += stream->buffer->total_popped();
      }
      return consumed;
    });
  };
}

Metrics RunWebFarm(uint64_t seed, RunPlan& plan, Checks& checks) {
  std::vector<WebFarmParams> streams;
  for (uint64_t stream_seed : StreamSeeds(seed, kWebFarmStreams)) {
    streams.push_back(WebFarmWorkload(stream_seed));
  }
  if (plan.trace) {
    // Stream 0 through RunWebFarmScenario is the reference every wiring here
    // must reproduce.
    WebFarmParams params = streams[0];
    std::vector<double> generate_s;
    for (int i = 0; i < RunPlan::kMinReps; ++i) {
      generate_s.push_back(GenerateReplay(params));
    }
    plan.Announce();
    const uint64_t want = realrate::RunWebFarmScenario(params).trace_hash;
    const std::vector<RequestRecord> records = std::move(params.replay);
    params.replay.clear();
    Metrics m = TraceLoop(plan, checks, MachineConfigOf(params), params.run_for, want,
                          WebFarmWiring(params, records));
    m["workloads.generate_s"] = Median(generate_s);
    return m;
  }
  const WebFarmParams& shape = streams[0];
  return RepeatFarm(plan, checks, kWebFarmStreams, shape.run_for, shape.arrivals.max_requests,
                    [&](int k, HostSamples& host) {
                      WebFarmParams p = streams[static_cast<size_t>(k)];
                      const double setup_s = GenerateReplay(p);
                      const int64_t t0 = NowNs();
                      const WebFarmResult r = realrate::RunWebFarmScenario(p);
                      host.Record(setup_s, SecondsSince(t0), static_cast<double>(r.served));
                      return OutcomeOf(r, r.trace_hash);
                    });
}

// The traced cluster_farm run: RunClusterFarmScenario rebuilt from public parts
// (one TracedStack per node, the scenario's epoch hook of rebalancer and
// router, and Cluster::RunFor's epoch loop), so its layers are timed like the
// other workloads'. The hook and the fences count as time outside ticks. The
// returned hash folds the per-machine hashes as the scenario's cluster_hash does.
MachineRun TracedClusterRun(const ClusterFarmParams& params,
                            const std::vector<RequestRecord>& records, double read_ns) {
  const int machines = params.num_machines;
  RR_CHECK(machines > 1);
  const WebFarmParams& farm_params = params.farm;
  const SystemConfig config = MachineConfigOf(farm_params);
  Tracer tracer(machines * config.num_cpus, read_ns);
  MachineRun run;
  int64_t t0 = NowNs();
  std::vector<std::unique_ptr<TracedStack>> nodes;
  std::vector<std::unique_ptr<realrate::WebFarmInstance>> farms;
  for (int m = 0; m < machines; ++m) {
    nodes.push_back(
        std::make_unique<TracedStack>(config, tracer, static_cast<CpuId>(m * config.num_cpus)));
    TracedStack& node = *nodes.back();
    // With more than one machine the router injects the records epoch by epoch.
    farms.push_back(realrate::BuildWebFarm(FarmBuild(farm_params), node.sim, node.threads,
                                           node.queues, *node.machine, node.controller.get()));
  }
  run.wire_s = SecondsSince(t0);

  const Duration horizon = farm_params.run_for;
  const int64_t clamp_bytes =
      std::min(farm_params.listen_queue_bytes, farm_params.worker_queue_bytes);
  const int64_t rebalance_every =
      params.rebalance_interval.IsPositive()
          ? std::max<int64_t>(1, (params.rebalance_interval + params.epoch -
                                  Duration::Nanos(1)) / params.epoch)
          : 0;
  FrontEndRouter router(params.router, machines);
  std::vector<std::unique_ptr<realrate::RequestInjector>> injectors;
  int64_t rebalanced = 0;
  size_t next_record = 0;
  int64_t epoch_index = 0;
  auto hook = [&](TimePoint epoch_start) {
    if (rebalance_every > 0 && epoch_index > 0 && epoch_index % rebalance_every == 0) {
      size_t donor = 0;
      size_t recipient = 0;
      for (size_t m = 1; m < farms.size(); ++m) {
        const size_t backlog = farms[m]->listen.meta.size();
        if (backlog > farms[donor]->listen.meta.size()) {
          donor = m;
        }
        if (backlog < farms[recipient]->listen.meta.size()) {
          recipient = m;
        }
      }
      auto& from = farms[donor]->listen;
      auto& to = farms[recipient]->listen;
      int moves = 0;
      while (moves < params.rebalance_max_moves &&
             from.meta.size() > static_cast<size_t>(params.rebalance_threshold *
                                                    static_cast<double>(to.meta.size() + 1)) &&
             to.buffer->fill() + from.meta.back().bytes <= to.buffer->capacity()) {
        const realrate::PendingRequest moved = from.meta.back();
        from.meta.pop_back();
        RR_CHECK(from.buffer->TryPopExact(moved.bytes));
        RR_CHECK(to.buffer->TryPush(moved.bytes));
        to.meta.push_back(moved);
        ++moves;
      }
      rebalanced += moves;
    }
    std::vector<realrate::MachineSignals> signals;
    for (const auto& node : nodes) {
      signals.push_back({node->controller->ledger().spare_ppt_total(),
                         node->queues.AggregateFillFraction()});
    }
    router.UpdateSignals(signals);
    const Duration remaining = horizon - (epoch_start - TimePoint::Origin());
    const Duration step = remaining < params.epoch ? remaining : params.epoch;
    const Duration window_end = (epoch_start + step) - TimePoint::Origin();
    std::vector<std::vector<RequestRecord>> batches(static_cast<size_t>(machines));
    while (next_record < records.size() && records[next_record].arrival < window_end) {
      batches[static_cast<size_t>(router.Route())].push_back(records[next_record]);
      ++next_record;
    }
    for (size_t m = 0; m < batches.size(); ++m) {
      if (batches[m].empty()) {
        continue;
      }
      realrate::WebFarmInstance* farm = farms[m].get();
      injectors.push_back(std::make_unique<realrate::RequestInjector>(
          nodes[m]->sim, std::move(batches[m]),
          [farm, clamp_bytes](const RequestRecord& rec) {
            realrate::PendingRequest p;
            p.arrival = rec.arrival;
            p.bytes = std::clamp<int64_t>(rec.bytes, 1, clamp_bytes);
            p.service_cycles = rec.service_cycles;
            if (farm->listen.buffer->TryPush(p.bytes)) {
              farm->listen.meta.push_back(p);
            } else {
              ++farm->listen_drops;
            }
          }));
      injectors.back()->Start();
    }
    ++epoch_index;
  };

  t0 = NowNs();
  for (const auto& node : nodes) {
    node->Start();
  }
  Tracer::Window all = tracer.Open();
  const TimePoint end = nodes[0]->sim.Now() + horizon;
  while (nodes[0]->sim.Now() < end) {
    const Duration remaining = end - nodes[0]->sim.Now();
    const Duration step = remaining < params.epoch ? remaining : params.epoch;
    for (const auto& node : nodes) {
      node->machine->EpochFence(node->sim.Now());
    }
    hook(nodes[0]->sim.Now());
    for (const auto& node : nodes) {
      node->machine->RunFor(step);
    }
  }
  const double runfor_ns = tracer.Close(all);
  run.run_s = SecondsSince(t0);

  std::vector<const TracedStack*> stacks;
  uint64_t hash = 14695981039346656037ull;  // FNV-1a fold, as the scenario's.
  int64_t served = 0;
  int64_t max_served = 0;
  for (size_t m = 0; m < nodes.size(); ++m) {
    stacks.push_back(nodes[m].get());
    hash ^= nodes[m]->sim.trace().Hash();
    hash *= 1099511628211ull;
    served += farms[m]->served();
    max_served = std::max(max_served, farms[m]->served());
    for (const auto& stream : farms[m]->worker_streams) {
      run.consumed_bytes += stream->buffer->total_popped();
    }
  }
  run.hash = hash;
  run.layers = LayerMetrics(tracer, stacks, runfor_ns, horizon, run.consumed_bytes);
  run.layers["cluster.rebalanced"] = static_cast<double>(rebalanced);
  run.layers["cluster.imbalance"] =
      static_cast<double>(max_served) / (static_cast<double>(served) / machines);
  run.layers["exp.wire_s"] = run.wire_s;
  return run;
}

Metrics RunClusterFarm(uint64_t seed, RunPlan& plan, Checks& checks) {
  std::vector<ClusterFarmParams> streams;
  for (uint64_t stream_seed : StreamSeeds(seed, kClusterFarmStreams)) {
    streams.push_back(ClusterFarmWorkload(stream_seed));
  }
  const WebFarmParams& shape = streams[0].farm;
  if (!plan.trace) {
    return RepeatFarm(plan, checks, kClusterFarmStreams, shape.run_for,
                      shape.arrivals.max_requests, [&](int k, HostSamples& host) {
                        ClusterFarmParams p = streams[static_cast<size_t>(k)];
                        const double setup_s = GenerateReplay(p.farm);
                        const int64_t t0 = NowNs();
                        const ClusterFarmResult r = realrate::RunClusterFarmScenario(p);
                        host.Record(setup_s, SecondsSince(t0), static_cast<double>(r.served));
                        return OutcomeOf(r, r.cluster_hash);
                      });
  }
  // Alternates the scenario on stream 0, the reference, with its traced rebuild.
  ClusterFarmParams params = streams[0];
  const double read_ns = CalibrateReadNs();
  std::vector<double> generate_s;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::map<std::string, std::vector<double>> layers;
  const int64_t start = NowNs();
  for (int i = 0; plan.More(i, start); ++i) {
    plan.Announce();
    generate_s.push_back(GenerateReplay(params.farm));
    int64_t t0 = NowNs();
    const uint64_t want = realrate::RunClusterFarmScenario(params).cluster_hash;
    plain_s.push_back(SecondsSince(t0));
    plan.Announce();
    const MachineRun traced = TracedClusterRun(params, params.farm.replay, read_ns);
    checks.Expect(traced.hash == want, "the traced cluster differs from the scenario (trace hash)");
    traced_s.push_back(traced.wire_s + traced.run_s);
    for (const auto& [name, value] : traced.layers) {
      layers[name].push_back(value);
    }
  }
  Metrics m;
  for (const char* name : kLayerNames) {
    m[name] = Median(layers[name]);
  }
  m["workloads.generate_s"] = Median(generate_s);
  m["bench.trace_overhead_frac"] = Median(traced_s) / Median(plain_s) - 1.0;
  return m;
}

// ---------------------------------------------------------------------------
// dense_pipelines.
// ---------------------------------------------------------------------------

struct Pipelines {
  std::vector<BoundedBuffer*> queues;
  std::vector<SimThread*> producers;
  std::vector<SimThread*> consumers;
};

// RunServerFarmScenario's spawn and admit calls, in its order; each run compares
// trace hashes against the scenario's, which checks they stay the same. The
// pipelines are written to `*out` when it is set.
Wiring DensePipelinesWiring(const ServerFarmParams& p, Pipelines* out = nullptr) {
  return [&p, out](const Parts& parts) {
    static constexpr int64_t kPeriodSpreadMs[] = {5, 8, 10, 12, 16, 20, 25, 32, 40};
    constexpr size_t kSpread = sizeof(kPeriodSpreadMs) / sizeof(kPeriodSpreadMs[0]);
    auto spawn = [&](std::string name, std::unique_ptr<realrate::WorkModel> work) {
      SimThread* t = parts.threads.Create(std::move(name), std::move(work));
      parts.machine.Attach(t);
      return t;
    };
    auto pipes = std::make_shared<Pipelines>();
    for (int i = 0; i < p.num_pipelines; ++i) {
      const std::string tag = std::to_string(i);
      BoundedBuffer* queue = parts.queues.CreateQueue("farm" + tag, p.queue_bytes);
      parts.machine.Attach(queue);
      SimThread* producer = spawn(
          "producer" + tag,
          std::make_unique<realrate::ProducerWork>(queue, p.producer_cycles_per_item,
                                                   realrate::RateSchedule(p.bytes_per_item)));
      SimThread* consumer = spawn(
          "consumer" + tag,
          std::make_unique<realrate::ConsumerWork>(queue, p.consumer_cycles_per_byte));
      parts.queues.Register(queue, producer->id(), realrate::QueueRole::kProducer);
      parts.queues.Register(queue, consumer->id(), realrate::QueueRole::kConsumer);
      const Duration period =
          Duration::Millis(kPeriodSpreadMs[static_cast<size_t>(i) % kSpread]);
      RR_CHECK(parts.controller.AddRealTime(producer, p.producer_proportion, period));
      parts.controller.AddRealRate(consumer);
      pipes->queues.push_back(queue);
      pipes->producers.push_back(producer);
      pipes->consumers.push_back(consumer);
    }
    for (int i = 0; i < p.num_hogs; ++i) {
      SimThread* hog =
          spawn("hog" + std::to_string(i), std::make_unique<realrate::CpuHogWork>());
      parts.controller.AddMiscellaneous(hog);
    }
    if (out != nullptr) {
      *out = *pipes;
    }
    return std::function<int64_t()>([pipes] {
      int64_t consumed = 0;
      for (const SimThread* c : pipes->consumers) {
        consumed += c->progress_units();
      }
      return consumed;
    });
  };
}

// Item latency through the pipelines: from the end of the producer slice that
// pushed an item to the end of the consumer slice that popped its last byte. A
// slice's end is its tick's start plus the cycles its core had charged in that
// tick when the next slice (or the tick's end) began. Latencies go into a
// one-microsecond histogram, which gives percentiles in little memory.
class ItemLatencyProbe : public MachineChecker {
 public:
  ItemLatencyProbe(const Pipelines& pipes, int num_cpus, int64_t item_bytes)
      : queues_(pipes.queues),
        item_bytes_(item_bytes),
        cores_(static_cast<size_t>(num_cpus)),
        lanes_(pipes.queues.size()) {
    for (size_t i = 0; i < pipes.queues.size(); ++i) {
      Index(pipes.producers[i], static_cast<int32_t>(i) + 1);
      Index(pipes.consumers[i], -static_cast<int32_t>(i) - 1);
    }
  }

  void OnPicked(const Machine& machine, CpuId core, const SimThread* pick,
                TimePoint now) override {
    Settle(machine, core, now);
    cores_[static_cast<size_t>(core)].last = pick;
  }
  void OnTickComplete(const Machine& machine, CpuId core, TimePoint now) override {
    Settle(machine, core, now);
    CoreState& c = cores_[static_cast<size_t>(core)];
    c.last = nullptr;
    c.tick_base = machine.sim().cpu(core).TotalUsed();
  }

  int64_t items() const { return items_; }
  // Milliseconds, interpolated between order statistics as SampleSet does.
  double PercentileMs(double p) const {
    if (items_ == 0) {
      return 0.0;
    }
    const double rank = p / 100.0 * static_cast<double>(items_ - 1);
    const auto lo = static_cast<int64_t>(rank);
    const int64_t hi = std::min(lo + 1, items_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return (NthUs(lo) * (1.0 - frac) + NthUs(hi) * frac) * 1e-3;
  }

 private:
  struct CoreState {
    const SimThread* last = nullptr;  // The slice this core ran last, if unsettled.
    Cycles tick_base = 0;             // The core's charged cycles when its tick began.
  };
  struct Lane {
    std::vector<int64_t> pushed_ns;  // Push instants of the items in flight.
    size_t head = 0;
    int64_t pushed_bytes = 0;
    int64_t consumed_bytes = 0;
  };

  void Index(const SimThread* t, int32_t code) {
    const auto id = static_cast<size_t>(t->id());
    if (role_.size() <= id) {
      role_.resize(id + 1, 0);
    }
    role_[id] = code;
  }

  // Books the queue movement of the slice that just ended on `core`.
  void Settle(const Machine& machine, CpuId core, TimePoint now) {
    const CoreState& c = cores_[static_cast<size_t>(core)];
    if (c.last == nullptr || static_cast<size_t>(c.last->id()) >= role_.size() ||
        role_[static_cast<size_t>(c.last->id())] == 0) {
      return;
    }
    const realrate::Cpu& cpu = machine.sim().cpu(core);
    const Cycles into_tick =
        std::clamp<Cycles>(cpu.TotalUsed() - c.tick_base, 0, machine.cycles_per_tick());
    const int64_t end_ns = now.nanos() +
                           cpu.CyclesToDuration(into_tick).nanos();
    const int32_t code = role_[static_cast<size_t>(c.last->id())];
    const auto i = static_cast<size_t>(code > 0 ? code - 1 : -code - 1);
    Lane& lane = lanes_[i];
    const BoundedBuffer& q = *queues_[i];
    if (code > 0) {
      for (; lane.pushed_bytes + item_bytes_ <= q.total_pushed(); lane.pushed_bytes += item_bytes_) {
        lane.pushed_ns.push_back(end_ns);
      }
      return;
    }
    for (; lane.head < lane.pushed_ns.size() &&
           lane.consumed_bytes + item_bytes_ <= q.total_popped();
         ++lane.head, lane.consumed_bytes += item_bytes_) {
      // Cores run one tick's slices one after another, so a consumer can pop an
      // item a later slice offset on another core pushed; that counts as zero.
      const auto us =
          static_cast<size_t>(std::max<int64_t>(0, end_ns - lane.pushed_ns[lane.head]) / 1000);
      if (histogram_.size() <= us) {
        histogram_.resize(us + 1, 0);
      }
      ++histogram_[us];
      ++items_;
    }
    if (lane.head == lane.pushed_ns.size()) {
      lane.pushed_ns.clear();
      lane.head = 0;
    }
  }

  // The k-th smallest latency (from 0), in microseconds.
  double NthUs(int64_t k) const {
    int64_t seen = 0;
    for (size_t us = 0; us < histogram_.size(); ++us) {
      seen += histogram_[us];
      if (seen > k) {
        return static_cast<double>(us);
      }
    }
    return static_cast<double>(histogram_.size() - 1);
  }

  const std::vector<BoundedBuffer*> queues_;
  const int64_t item_bytes_;
  std::vector<CoreState> cores_;
  std::vector<Lane> lanes_;
  std::vector<int32_t> role_;  // ThreadId -> +(pipe + 1) producer, -(pipe + 1) consumer.
  std::vector<int64_t> histogram_;
  int64_t items_ = 0;
};

Metrics RunDensePipelines(uint64_t seed, RunPlan& plan, Checks& checks) {
  const ServerFarmParams params = DensePipelinesWorkload(seed);
  const SystemConfig config = MachineConfigOf(params);
  if (plan.trace) {
    // RunServerFarmScenario is the reference every wiring here must reproduce.
    plan.Announce();
    const uint64_t want = realrate::RunServerFarmScenario(params).trace_hash;
    Metrics m = TraceLoop(plan, checks, config, params.run_for, want,
                          DensePipelinesWiring(params));
    // A closed loop has no request stream; its generated input is the seeded
    // pipeline shape.
    std::vector<double> generate_s;
    for (int i = 0; i < RunPlan::kMinReps; ++i) {
      const int64_t t0 = NowNs();
      const ServerFarmParams drawn = DensePipelinesWorkload(seed);
      generate_s.push_back(SecondsSince(t0));
      checks.Expect(drawn.producer_cycles_per_item == params.producer_cycles_per_item,
                    "the seeded pipeline shape is not deterministic");
    }
    m["workloads.generate_s"] = Median(generate_s);
    return m;
  }

  // The first run records item latencies and stays out of the host medians;
  // the timed ones, wiring as set-up and Start + RunFor as run, must
  // reproduce its trace.
  Pipelines pipes;
  std::optional<ItemLatencyProbe> probe;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  int64_t pushed_bytes = 0;
  int64_t refused = 0;
  const Observer observer{
      [&](Machine& machine) {
        probe.emplace(pipes, params.num_cpus, static_cast<int64_t>(params.bytes_per_item));
        machine.SetChecker(&*probe);
      },
      [&] {
        checks.Expect(probe->items() > 0, "the pipelines consumed no item");
        p50_ms = probe->PercentileMs(50.0);
        p99_ms = probe->PercentileMs(99.0);
        p999_ms = probe->PercentileMs(99.9);
        for (const BoundedBuffer* q : pipes.queues) {
          pushed_bytes += q->total_pushed();
          refused += q->full_hits();
        }
        probe.reset();
        pipes = {};
      }};
  plan.Announce();
  const MachineRun first =
      PlainRun(config, params.run_for, DensePipelinesWiring(params, &pipes), &observer);
  const auto item_bytes = static_cast<int64_t>(params.bytes_per_item);
  HostSamples host;
  const int64_t start = NowNs();
  for (int i = 0; plan.More(i, start); ++i) {
    plan.Announce();
    const MachineRun run = PlainRun(config, params.run_for, DensePipelinesWiring(params));
    checks.Expect(run.hash == first.hash && run.consumed_bytes == first.consumed_bytes,
                  "repetition " + std::to_string(i) +
                      " differs from the first (trace hash or outcome)");
    host.Record(run.wire_s, run.run_s, static_cast<double>(run.consumed_bytes / item_bytes));
  }
  Metrics m;
  PutHostMetrics(host, params.run_for, m);
  m["req_p50_ms"] = p50_ms;
  m["req_p99_ms"] = p99_ms;
  m["req_p999_ms"] = p999_ms;
  // Offered pushes are the items pushed plus the pushes a full queue refused.
  const int64_t offered = pushed_bytes / item_bytes + refused;
  m["drop_frac"] = DropFraction(refused, offered);
  m["offered"] = static_cast<double>(offered);
  return m;
}

// ---------------------------------------------------------------------------
// Fingerprint and main.
// ---------------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, model.find_last_not_of(' ') - first + 1);
    }
  }
#endif
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "rrbench: %s\nusage: rrbench --workload <web_farm|dense_pipelines|"
               "cluster_farm> [--seed N] [--seconds S] [--trace 0|1]\n",
               why.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 7;
  RunPlan plan;
  if (argc % 2 == 0) {
    return Usage("every flag takes one value");
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
      continue;
    }
    if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      plan.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      plan.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end == value || *end != '\0') {
      return Usage("bad value for " + flag);
    }
  }
  if (std::strcmp(RRBENCH_BUILD_TYPE, "Release") != 0) {
    return Usage(std::string("refusing to time a '") + RRBENCH_BUILD_TYPE +
                 "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }

  Checks checks;
  Metrics metrics;
  if (workload == "web_farm") {
    metrics = RunWebFarm(seed, plan, checks);
  } else if (workload == "dense_pipelines") {
    metrics = RunDensePipelines(seed, plan, checks);
  } else if (workload == "cluster_farm") {
    metrics = RunClusterFarm(seed, plan, checks);
  } else {
    return Usage("unknown workload '" + workload + "'");
  }

  std::string out = "{\"fingerprint\": {\"cpus\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"cpu_model\": " + JsonString(CpuModel()) +
                    ", \"compiler\": " + JsonString(RRBENCH_COMPILER) +
                    ", \"build_type\": " + JsonString(RRBENCH_BUILD_TYPE) + "}";
  out += ", \"attempted\": " + std::to_string(plan.attempted);
  out += ", \"failed\": " + std::to_string(checks.errors.empty() ? 0 : plan.attempted);
  out += ", \"errors\": [";
  for (size_t i = 0; i < checks.errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(checks.errors[i]);
  }
  out += "], \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += sep + JsonString(name) + ": " + (std::isfinite(value) ? buf : "null");
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return checks.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace rrbench

int main(int argc, char** argv) { return rrbench::Main(argc, argv); }
