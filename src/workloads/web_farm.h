// A Flash-style web-server farm (Pai et al.'s event-driven server, recast onto the
// paper's real-rate machinery): an open-loop RequestInjector pushes requests into a
// listen queue; acceptor threads pop them, pay a per-request accept cost, and
// round-robin dispatch into per-worker BoundedBuffers; worker threads drain their
// queue, spend each request's service demand, and record its end-to-end latency.
//
// Every thread is registered real-rate, so the feedback allocator sees the farm
// exactly as the paper intends: progress is queue drain, pressure is queue fill, and
// sustained over-subscription surfaces as admission drops and p99/p999 latency —
// the regimes the closed-loop fuzzer cannot reach (ROADMAP item 4).
//
// Determinism: the whole farm is a pure function of (params, request stream). The
// same seed — or the same replay log — produces a bit-identical trace on every run,
// pinned by tests/web_farm_test.cc and tools/trace_replay.
#ifndef REALRATE_WORKLOADS_WEB_FARM_H_
#define REALRATE_WORKLOADS_WEB_FARM_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "queue/bounded_buffer.h"
#include "queue/registry.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "task/registry.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/types.h"
#include "workloads/arrivals.h"

namespace realrate {

// A request sitting in (or popped from) a farm queue. BoundedBuffer counts bytes
// only, so per-request identity (arrival time, service demand) rides in a side-band
// FIFO that the single-threaded simulation keeps exactly in step with the buffer.
struct PendingRequest {
  Duration arrival = Duration::Zero();  // Offset from the start of the run.
  int64_t bytes = 0;
  Cycles service_cycles = 0;
};

// A BoundedBuffer plus its side-band request FIFO. Invariant: buffer->fill() equals
// the sum of meta's bytes at every event boundary.
struct RequestStream {
  BoundedBuffer* buffer = nullptr;  // Owned by the QueueRegistry.
  std::deque<PendingRequest> meta;
};

// Pops requests off the listen stream, spends `accept_cycles` on each, then
// dispatches it to a worker queue: strict round-robin over the workers, scanning
// forward past full queues, dropping the request (admission control, counted) when
// every worker queue is full. Blocks on an empty listen queue.
class AcceptorWork : public WorkModel {
 public:
  AcceptorWork(RequestStream* listen, std::vector<RequestStream*> workers,
               Cycles accept_cycles);

  RunResult Run(TimePoint now, Cycles granted) override;

  int64_t accepted() const { return accepted_; }
  int64_t dropped() const { return dropped_; }

 private:
  // Hands current_ to a worker queue (or drops it when all are full).
  void Dispatch();

  RequestStream* const listen_;
  const std::vector<RequestStream*> workers_;
  const Cycles accept_cycles_;
  PendingRequest current_{};
  bool request_in_hand_ = false;
  Cycles into_accept_ = 0;
  size_t rr_ = 0;
  int64_t accepted_ = 0;
  int64_t dropped_ = 0;
};

// Drains one worker queue: pops a request, spends its service_cycles, then records
// its end-to-end latency (arrival -> completion, in seconds) into the shared
// SampleSet. Progress (the real-rate signal) is one unit per served request.
class WebWorkerWork : public WorkModel {
 public:
  WebWorkerWork(RequestStream* in, double clock_hz, SampleSet* latencies);

  RunResult Run(TimePoint now, Cycles granted) override;

  int64_t served() const { return served_; }

 private:
  RequestStream* const in_;
  const double clock_hz_;
  SampleSet* const latencies_;
  PendingRequest current_{};
  bool request_in_hand_ = false;
  Cycles into_request_ = 0;
  int64_t served_ = 0;
};

// Construction inputs for one farm wired into an existing machine (the differential
// harness builds farms from an OpenLoopSpec; RunWebFarmScenario from WebFarmParams).
struct WebFarmBuild {
  std::string tag = "farm";  // Name prefix for queues and threads.
  int num_workers = 4;
  int num_acceptors = 1;
  Cycles accept_cycles = 10'000;
  int64_t listen_queue_bytes = 64 * 1024;
  int64_t worker_queue_bytes = 16 * 1024;
  double clock_hz = 400e6;  // For sub-slice completion offsets in latency records.
  std::vector<RequestRecord> records;
  // Baseline-scheduler attributes (harness runs under lottery/MLFQ/fixed-priority).
  int priority = 0;
  int64_t tickets = 0;
};

// The runtime state of one wired farm: streams, injector, latency samples, and the
// borrowed thread/work pointers the caller harvests results from. Must outlive the
// run. Threads and buffers are owned by the registries as usual.
class WebFarmInstance {
 public:
  int64_t listen_drops = 0;  // Arrivals that found the listen queue full.

  RequestStream listen;
  std::vector<std::unique_ptr<RequestStream>> worker_streams;
  std::unique_ptr<RequestInjector> injector;
  SampleSet latencies;

  std::vector<SimThread*> acceptor_threads;
  std::vector<SimThread*> worker_threads;
  std::vector<AcceptorWork*> acceptors;  // Borrowed from the threads' work models.
  std::vector<WebWorkerWork*> workers;

  int64_t accepted() const;
  int64_t dispatch_drops() const;
  int64_t served() const;
};

// Wires one farm into the machine: creates the listen and per-worker queues,
// spawns acceptors and workers (registered AddRealRate when `controller` is
// non-null, prioritized/ticketed for the baselines either way), registers every
// queue endpoint, and starts the injector. Oversized log records are clamped to
// the smallest queue capacity so hand-written logs can't violate the TryPush
// contract. Call before the machine starts.
std::unique_ptr<WebFarmInstance> BuildWebFarm(const WebFarmBuild& build, Simulator& sim,
                                              ThreadRegistry& threads,
                                              QueueRegistry& queues, Machine& machine,
                                              FeedbackAllocator* controller);

// Standalone scenario entry point (benches, tools/trace_replay, golden tests).
struct WebFarmParams {
  int num_cpus = 4;
  int num_workers = 8;
  int num_acceptors = 1;
  double clock_hz = 400e6;
  Cycles accept_cycles = 10'000;
  int64_t listen_queue_bytes = 64 * 1024;
  int64_t worker_queue_bytes = 16 * 1024;
  // The request stream: `replay` when non-empty (trace replay), otherwise generated
  // from `arrivals` over [0, run_for).
  ArrivalConfig arrivals;
  std::vector<RequestRecord> replay;
  Duration run_for = Duration::Seconds(2);
  // Must be 1; stays only for perfbench/rrbench.cc, goes with the next benchmark change.
  int host_threads = 1;
  RbsConfig rbs;
  ControllerConfig controller;
  // Must be true; stays only for perfbench/rrbench.cc, goes with the next benchmark
  // change (forwarded to SystemConfig::thread_slabs).
  bool thread_slabs = true;
  bool idle_fast_forward = true;
};

struct WebFarmResult {
  int num_cpus = 0;
  int num_workers = 0;
  int64_t offered = 0;   // Requests in the stream (within the horizon).
  int64_t injected = 0;  // Arrived before the run ended.
  int64_t listen_drops = 0;
  int64_t accepted = 0;
  int64_t dispatch_drops = 0;  // Accepted but every worker queue was full.
  int64_t served = 0;
  // End-to-end request latency (arrival -> completion), milliseconds. Zero when
  // nothing was served.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double aggregate_user_fraction = 0.0;
  int64_t total_dispatches = 0;
  int64_t squish_events = 0;
  int64_t quality_exceptions = 0;
  uint64_t trace_hash = 0;
};

WebFarmResult RunWebFarmScenario(const WebFarmParams& params);

// The request rate (per second) at which the farm's CPUs are exactly saturated by
// mean service + accept demand — the 1.0x point of an offered-load sweep.
double WebFarmCapacityRps(const WebFarmParams& params);

}  // namespace realrate

#endif  // REALRATE_WORKLOADS_WEB_FARM_H_
