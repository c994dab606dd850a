// Seeded scenario generator: composes random machines (1-8 cores) running random
// mixtures of the paper's building blocks — producer→[stage...]→consumer pipelines,
// CPU hogs, and periodic real-time reservations — with rate programs (constant,
// bursty, pulsed, phase-shifting) driving each pipeline's production rate. Everything
// is derived from a single uint64 seed through util/rng, so any generated scenario is
// replayable bit-for-bit from its seed alone.
//
// A WorkloadSpec is plain data: it describes the scenario without reference to a
// scheduler, so the differential runner (harness/differential.h) can execute the same
// spec under RBS+feedback and under each baseline scheduler and cross-check them.
#ifndef REALRATE_HARNESS_WORKLOAD_GEN_H_
#define REALRATE_HARNESS_WORKLOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"
#include "util/types.h"
#include "workloads/arrivals.h"
#include "workloads/rate_schedule.h"

namespace realrate {

// One override segment of a pipeline's production-rate program (bytes per item during
// [start, start + width)). Generated programs are one of: constant (no segments),
// bursty (a few random segments), pulsed (a regular square wave), or phase-shifting
// (a square wave whose pulse width drifts each cycle).
struct RateSegmentSpec {
  Duration start = Duration::Zero();  // Offset from simulation start.
  Duration width = Duration::Zero();
  double bytes_per_item = 0.0;
};

// An intermediate pipeline stage (PipelineStageWork) between source and sink.
struct StageSpec {
  Cycles cycles_per_byte = 0;
  int64_t chunk_bytes = 0;
  int64_t queue_bytes = 0;  // Capacity of the queue feeding this stage's consumer side.
};

// One producer → [stages...] → consumer chain.
struct PipelineSpec {
  // Source: either a reservation-backed ProducerWork (proportion/period below) or an
  // isochronous PacedProducerWork (wall-clock interval; drops when the queue is full).
  bool paced = false;
  Proportion producer_proportion = Proportion::Zero();
  Duration producer_period = Duration::Zero();
  Cycles producer_cycles_per_item = 0;
  double bytes_per_item = 0.0;  // Base rate; segments override it over time.
  std::vector<RateSegmentSpec> segments;
  Duration paced_interval = Duration::Zero();
  int64_t source_queue_bytes = 0;
  std::vector<StageSpec> stages;
  Cycles consumer_cycles_per_byte = 0;
  // Baseline-scheduler attributes (every thread in the chain shares them).
  int priority = 0;
  int64_t tickets = 0;
};

// A miscellaneous CPU hog (never blocks; squished by the feedback controller,
// prioritized/ticketed under the baselines).
struct HogSpec {
  Cycles cycles_per_key = 0;
  double importance = 1.0;
  int priority = 0;
  int64_t tickets = 0;
};

// A periodic real-time reservation around a CPU-bound body: under RBS+feedback this
// is an admitted fixed reservation (budget-throttled each period); under baselines it
// is just another prioritized hog.
struct ReservationSpec {
  Proportion proportion = Proportion::Zero();
  Duration period = Duration::Zero();
  int priority = 0;
  int64_t tickets = 0;
};

// An aperiodic real-time reservation (paper Figure 2: proportion specified, period
// assigned by the controller) around a CPU-bound body. Baselines treat it as a
// prioritized hog.
struct AperiodicSpec {
  Proportion proportion = Proportion::Zero();
  int priority = 0;
  int64_t tickets = 0;
};

// An interactive editor (§3.2): InteractiveWork listening on a tty, driven by a
// seeded TypingProcess with the given think time. Under RBS+feedback it is
// registered AddInteractive; baselines schedule it like any blocked-mostly thread.
struct InteractiveSpec {
  Cycles cycles_per_event = 0;
  Duration mean_think = Duration::Millis(200);
  int priority = 0;
  int64_t tickets = 0;
};

// An open-loop web farm (workloads/web_farm.h): a seeded arrival stream feeding a
// listen queue, acceptor threads round-robin dispatching into per-worker queues,
// workers registered real-rate. The arrival stream is wall-clock-driven (requests
// come when the outside world sends them), so — like a paced pipeline — it is
// excluded from the clock-scaling metamorphic variant. The stream is materialized
// over [0, spec.run_for) regardless of any per-run horizon override, so every
// metamorphic variant replays the identical request sequence.
struct OpenLoopSpec {
  ArrivalConfig arrivals;
  int num_workers = 4;
  int num_acceptors = 1;
  Cycles accept_cycles = 10'000;
  int64_t listen_queue_bytes = 0;
  int64_t worker_queue_bytes = 0;
  int priority = 0;
  int64_t tickets = 0;
};

// A cluster scenario (src/cluster): `open_loops[0]` describes one cluster-wide
// arrival stream and the per-node farm shape; `num_machines` nodes of
// `WorkloadSpec::num_cpus` cores each run it behind the front-end router. Specs
// with num_machines > 0 take the cluster differential battery (M=1 pinned
// bit-identical to a bare machine, rerun stability) instead of the scheduler
// battery.
struct ClusterSpec {
  int num_machines = 0;  // 0 = not a cluster scenario (the default).
  Duration epoch = Duration::Millis(10);
  bool feedback_router = true;  // false = round-robin baseline.
  double pressure_damping = 0.5;
  Duration rebalance_interval = Duration::Zero();  // Zero disables.
  double rebalance_threshold = 2.0;
  int rebalance_max_moves = 64;
};

struct WorkloadSpec {
  uint64_t seed = 0;
  int num_cpus = 1;
  double clock_hz = 400e6;
  Duration run_for = Duration::Zero();
  std::vector<PipelineSpec> pipelines;
  std::vector<HogSpec> hogs;
  std::vector<ReservationSpec> reservations;
  std::vector<AperiodicSpec> aperiodics;
  std::vector<InteractiveSpec> interactives;
  std::vector<OpenLoopSpec> open_loops;
  ClusterSpec cluster;

  // Human-readable dump (the repro artifact realrate_check prints for a failing seed).
  std::string ToString() const;
};

// Derives the complete scenario from `seed`. Deterministic and platform-stable: the
// same seed always yields the same spec. Generated specs are feasible by
// construction — fixed reservations total at most 45% of the machine so per-core
// admission always succeeds, and item/chunk sizes never exceed their queue's capacity.
WorkloadSpec GenerateWorkload(uint64_t seed);

// The rate program described by `spec` (base value plus override segments).
RateSchedule BuildRateSchedule(const PipelineSpec& spec);

// Stable per-component sub-seed (e.g. one per lottery run queue) derived from the
// workload seed, so components never share or reuse raw seeds.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

}  // namespace realrate

#endif  // REALRATE_HARNESS_WORKLOAD_GEN_H_
