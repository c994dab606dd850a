#include "workloads/web_farm.h"

#include <algorithm>
#include <utility>

#include "exp/system.h"
#include "task/thread.h"
#include "util/assert.h"

namespace realrate {

AcceptorWork::AcceptorWork(RequestStream* listen, std::vector<RequestStream*> workers,
                           Cycles accept_cycles)
    : listen_(listen), workers_(std::move(workers)), accept_cycles_(accept_cycles) {
  RR_EXPECTS(listen != nullptr);
  RR_EXPECTS(!workers_.empty());
  RR_EXPECTS(accept_cycles > 0);
}

void AcceptorWork::Dispatch() {
  // Strict round-robin with overflow scan: the cursor advances one worker per
  // request; a full target is skipped in favor of the next with room; when every
  // worker queue is full, the request is dropped (admission control — the farm's
  // observable response to sustained over-subscription).
  const size_t n = workers_.size();
  const size_t start = rr_;
  rr_ = (rr_ + 1) % n;
  for (size_t i = 0; i < n; ++i) {
    RequestStream* w = workers_[(start + i) % n];
    if (w->buffer->TryPush(current_.bytes)) {
      w->meta.push_back(current_);
      ++accepted_;
      self()->AddProgress(1);
      return;
    }
  }
  ++dropped_;
}

RunResult AcceptorWork::Run(TimePoint /*now*/, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    if (!request_in_hand_) {
      if (listen_->meta.empty()) {
        listen_->buffer->WaitForData(self()->id());
        return RunResult::Blocked(used, listen_->buffer->id());
      }
      current_ = listen_->meta.front();
      // The side-band FIFO and the byte queue move in lock step (single-threaded
      // simulation), so the exact pop cannot fail while meta is non-empty.
      RR_CHECK(listen_->buffer->TryPopExact(current_.bytes));
      listen_->meta.pop_front();
      request_in_hand_ = true;
      into_accept_ = 0;
    }
    const Cycles step = std::min(accept_cycles_ - into_accept_, granted - used);
    used += step;
    into_accept_ += step;
    if (into_accept_ >= accept_cycles_) {
      Dispatch();
      request_in_hand_ = false;
    }
  }
  return RunResult::Ran(used);
}

WebWorkerWork::WebWorkerWork(RequestStream* in, double clock_hz, SampleSet* latencies)
    : in_(in), clock_hz_(clock_hz), latencies_(latencies) {
  RR_EXPECTS(in != nullptr);
  RR_EXPECTS(clock_hz > 0);
  RR_EXPECTS(latencies != nullptr);
}

RunResult WebWorkerWork::Run(TimePoint now, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    if (!request_in_hand_) {
      if (in_->meta.empty()) {
        in_->buffer->WaitForData(self()->id());
        return RunResult::Blocked(used, in_->buffer->id());
      }
      current_ = in_->meta.front();
      RR_CHECK(in_->buffer->TryPopExact(current_.bytes));
      in_->meta.pop_front();
      request_in_hand_ = true;
      into_request_ = 0;
    }
    const Cycles step = std::min(current_.service_cycles - into_request_, granted - used);
    used += step;
    into_request_ += step;
    if (into_request_ >= current_.service_cycles) {
      // Completion time = slice start + cycles consumed so far this slice. `now` is
      // the dispatch time of this grant, so the sub-slice offset keeps latency exact
      // rather than quantized to the dispatch tick.
      const double completion_s = (now - TimePoint::Origin()).ToSeconds() +
                                  static_cast<double>(used) / clock_hz_;
      latencies_->Add(completion_s - current_.arrival.ToSeconds());
      request_in_hand_ = false;
      ++served_;
      self()->AddProgress(1);
    }
  }
  return RunResult::Ran(used);
}

int64_t WebFarmInstance::accepted() const {
  int64_t total = 0;
  for (const AcceptorWork* a : acceptors) {
    total += a->accepted();
  }
  return total;
}

int64_t WebFarmInstance::dispatch_drops() const {
  int64_t total = 0;
  for (const AcceptorWork* a : acceptors) {
    total += a->dropped();
  }
  return total;
}

int64_t WebFarmInstance::served() const {
  int64_t total = 0;
  for (const WebWorkerWork* w : workers) {
    total += w->served();
  }
  return total;
}

std::unique_ptr<WebFarmInstance> BuildWebFarm(const WebFarmBuild& build, Simulator& sim,
                                              ThreadRegistry& threads,
                                              QueueRegistry& queues, Machine& machine,
                                              FeedbackAllocator* controller) {
  RR_EXPECTS(build.num_workers >= 1);
  RR_EXPECTS(build.num_acceptors >= 1);
  RR_EXPECTS(build.accept_cycles > 0);
  RR_EXPECTS(build.listen_queue_bytes > 0);
  RR_EXPECTS(build.worker_queue_bytes > 0);
  RR_EXPECTS(build.clock_hz > 0);

  auto farm = std::make_unique<WebFarmInstance>();
  farm->listen.buffer = queues.CreateQueue(build.tag + ".listen", build.listen_queue_bytes);
  machine.Attach(farm->listen.buffer);

  std::vector<RequestStream*> worker_ptrs;
  for (int i = 0; i < build.num_workers; ++i) {
    auto stream = std::make_unique<RequestStream>();
    stream->buffer =
        queues.CreateQueue(build.tag + ".w" + std::to_string(i), build.worker_queue_bytes);
    machine.Attach(stream->buffer);
    worker_ptrs.push_back(stream.get());
    farm->worker_streams.push_back(std::move(stream));
  }

  // AddRealRate requires the thread's queue metrics to exist, so decoration stops
  // at machine attachment; the controller registration happens after the per-thread
  // queues.Register calls below.
  auto decorate = [&](SimThread* t) {
    if (build.priority != 0) {
      t->set_priority(build.priority);
    }
    if (build.tickets != 0) {
      t->set_tickets(build.tickets);
    }
    machine.Attach(t);
  };
  auto add_real_rate = [&](SimThread* t) {
    if (controller != nullptr) {
      controller->AddRealRate(t);
    }
  };

  for (int i = 0; i < build.num_acceptors; ++i) {
    auto work =
        std::make_unique<AcceptorWork>(&farm->listen, worker_ptrs, build.accept_cycles);
    farm->acceptors.push_back(work.get());
    SimThread* t =
        threads.Create(build.tag + ".acceptor" + std::to_string(i), std::move(work));
    decorate(t);
    // Consumer of the listen queue only. Registering the acceptor as a producer on
    // every worker queue would sum num_workers negative fan-out terms against one
    // positive listen term, throttling it to the allocation floor exactly when the
    // listen queue is pegged. The acceptor is an admission-control stage, not a
    // paced producer: downstream overflow is handled by dispatch drops, so its
    // progress pressure is the listen fill alone.
    queues.Register(farm->listen.buffer, t->id(), QueueRole::kConsumer);
    add_real_rate(t);
    farm->acceptor_threads.push_back(t);
  }

  for (int i = 0; i < build.num_workers; ++i) {
    auto work =
        std::make_unique<WebWorkerWork>(worker_ptrs[static_cast<size_t>(i)],
                                        build.clock_hz, &farm->latencies);
    farm->workers.push_back(work.get());
    SimThread* t =
        threads.Create(build.tag + ".worker" + std::to_string(i), std::move(work));
    decorate(t);
    queues.Register(worker_ptrs[static_cast<size_t>(i)]->buffer, t->id(),
                    QueueRole::kConsumer);
    add_real_rate(t);
    farm->worker_threads.push_back(t);
  }

  // The injector clamps oversized records to the smallest queue so a hand-written
  // replay log can never violate the TryPush size contract.
  const int64_t clamp_bytes = std::min(build.listen_queue_bytes, build.worker_queue_bytes);
  WebFarmInstance* raw = farm.get();
  farm->injector = std::make_unique<RequestInjector>(
      sim, build.records, [raw, clamp_bytes](const RequestRecord& rec) {
        PendingRequest p;
        p.arrival = rec.arrival;
        p.bytes = std::clamp<int64_t>(rec.bytes, 1, clamp_bytes);
        p.service_cycles = rec.service_cycles;
        if (raw->listen.buffer->TryPush(p.bytes)) {
          raw->listen.meta.push_back(p);
        } else {
          ++raw->listen_drops;
        }
      });
  farm->injector->Start();
  return farm;
}

WebFarmResult RunWebFarmScenario(const WebFarmParams& params) {
  RR_EXPECTS(params.num_cpus >= 1);
  RR_EXPECTS(params.run_for.IsPositive());

  SystemConfig config;
  config.num_cpus = params.num_cpus;
  config.cpu.clock_hz = params.clock_hz;
  config.rbs = params.rbs;
  config.controller = params.controller;
  config.machine.idle_fast_forward = params.idle_fast_forward;
  config.machine.host_threads = params.host_threads;
  config.thread_slabs = params.thread_slabs;
  System system(config);
  system.sim().trace().SetEnabled(true);
  // Only the hash is read; at overload densities the farm records a lot of events.
  system.sim().trace().SetHashOnly(true);

  WebFarmBuild build;
  build.tag = "web";
  build.num_workers = params.num_workers;
  build.num_acceptors = params.num_acceptors;
  build.accept_cycles = params.accept_cycles;
  build.listen_queue_bytes = params.listen_queue_bytes;
  build.worker_queue_bytes = params.worker_queue_bytes;
  build.clock_hz = params.clock_hz;
  build.records = params.replay.empty() ? GenerateRequests(params.arrivals, params.run_for)
                                        : params.replay;
  const auto offered = static_cast<int64_t>(build.records.size());

  std::unique_ptr<WebFarmInstance> farm =
      BuildWebFarm(build, system.sim(), system.threads(), system.queues(),
                   system.machine(), &system.controller());

  system.Start();
  system.RunFor(params.run_for);

  WebFarmResult result;
  result.num_cpus = params.num_cpus;
  result.num_workers = params.num_workers;
  result.offered = offered;
  result.injected = farm->injector->injected();
  result.listen_drops = farm->listen_drops;
  result.accepted = farm->accepted();
  result.dispatch_drops = farm->dispatch_drops();
  result.served = farm->served();
  if (!farm->latencies.empty()) {
    result.p50_ms = farm->latencies.Percentile(50.0) * 1e3;
    result.p99_ms = farm->latencies.Percentile(99.0) * 1e3;
    result.p999_ms = farm->latencies.Percentile(99.9) * 1e3;
    result.mean_ms = farm->latencies.Mean() * 1e3;
    result.max_ms = farm->latencies.Percentile(100.0) * 1e3;
  }
  const auto per_core_capacity =
      static_cast<double>(system.sim().cpu().DurationToCycles(params.run_for));
  result.aggregate_user_fraction =
      static_cast<double>(system.sim().UsedAllCpus(CpuUse::kUser)) /
      (per_core_capacity * params.num_cpus);
  result.total_dispatches = system.machine().dispatches();
  result.squish_events = system.controller().squish_events();
  result.quality_exceptions = system.controller().quality_exceptions();
  result.trace_hash = system.sim().trace().Hash();
  return result;
}

double WebFarmCapacityRps(const WebFarmParams& params) {
  const double per_request =
      MeanServiceCycles(params.arrivals) + static_cast<double>(params.accept_cycles);
  return static_cast<double>(params.num_cpus) * params.clock_hz / per_request;
}

}  // namespace realrate
