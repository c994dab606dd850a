#include "harness/workload_gen.h"

#include <algorithm>
#include <cstdio>

#include "util/assert.h"
#include "util/rng.h"

namespace realrate {

namespace {

// Draws a rate program for a pipeline whose base item size is `base` bytes. Values
// stay within [lo, hi] so items always fit their queue.
std::vector<RateSegmentSpec> DrawSegments(Rng& rng, double base, double lo, double hi,
                                          Duration run_for) {
  std::vector<RateSegmentSpec> segments;
  const auto horizon_ms = run_for.millis();
  const int kind = static_cast<int>(rng.NextBounded(4));
  switch (kind) {
    case 0:  // Constant.
      break;
    case 1: {  // Bursty: a few random overrides.
      const int n = 1 + static_cast<int>(rng.NextBounded(3));
      for (int i = 0; i < n; ++i) {
        RateSegmentSpec s;
        s.start = Duration::Millis(static_cast<int64_t>(rng.NextBounded(
            static_cast<uint64_t>(std::max<int64_t>(1, horizon_ms)))));
        s.width = Duration::Millis(20 + static_cast<int64_t>(rng.NextBounded(180)));
        s.bytes_per_item = rng.NextDouble(lo, hi);
        segments.push_back(s);
      }
      break;
    }
    case 2: {  // Pulsed: a regular square wave doubling (clamped) the base.
      const Duration width = Duration::Millis(30 + static_cast<int64_t>(rng.NextBounded(120)));
      const Duration gap = Duration::Millis(30 + static_cast<int64_t>(rng.NextBounded(120)));
      const double high = std::min(hi, 2.0 * base);
      for (Duration at = Duration::Millis(50); at < run_for; at += width + gap) {
        segments.push_back({at, width, high});
      }
      break;
    }
    case 3: {  // Phase-shifting: pulse width drifts each cycle.
      Duration width = Duration::Millis(40 + static_cast<int64_t>(rng.NextBounded(80)));
      const Duration gap = Duration::Millis(40 + static_cast<int64_t>(rng.NextBounded(80)));
      const int64_t drift_ms = 5 + static_cast<int64_t>(rng.NextBounded(25));
      const double high = std::min(hi, 2.0 * base);
      for (Duration at = Duration::Millis(50); at < run_for; at += width + gap) {
        segments.push_back({at, width, high});
        width += Duration::Millis(drift_ms);
      }
      break;
    }
  }
  return segments;
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64-style mix of (seed, salt); any stable bijective-ish scramble works.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RateSchedule BuildRateSchedule(const PipelineSpec& spec) {
  RateSchedule schedule(spec.bytes_per_item);
  for (const RateSegmentSpec& s : spec.segments) {
    schedule.AddSegment(TimePoint::Origin() + s.start, s.width, s.bytes_per_item);
  }
  return schedule;
}

WorkloadSpec GenerateWorkload(uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0));
  WorkloadSpec spec;
  spec.seed = seed;
  spec.num_cpus = 1 + static_cast<int>(rng.NextBounded(8));
  spec.clock_hz = 400e6;
  spec.run_for = Duration::Millis(300 + static_cast<int64_t>(rng.NextBounded(500)));

  // Cluster bucket (~1 seed in 16): one cluster-wide open-loop request stream
  // routed across 2-4 small machines by the front-end router (src/cluster), at
  // an offered load from deep underload to 1.6x the whole cluster's capacity.
  // Half the seeds also run the cross-machine rebalancer, and a quarter fall
  // back to the round-robin router baseline. These specs take the cluster
  // differential battery (harness/differential.cc): M=1 pinned bit-identical to
  // a bare machine, and rerun stability.
  if (rng.NextBool(0.0625)) {
    spec.num_cpus = 2 + static_cast<int>(rng.NextBounded(2));  // Cores per NODE.
    spec.run_for = Duration::Millis(120 + static_cast<int64_t>(rng.NextBounded(130)));
    spec.cluster.num_machines = 2 + static_cast<int>(rng.NextBounded(3));  // 2-4.
    spec.cluster.epoch = Duration::Millis(5 + static_cast<int64_t>(rng.NextBounded(10)));
    spec.cluster.feedback_router = !rng.NextBool(0.25);
    spec.cluster.pressure_damping = rng.NextDouble() * 0.9;
    if (rng.NextBool(0.5)) {
      spec.cluster.rebalance_interval =
          Duration::Millis(20 + static_cast<int64_t>(rng.NextBounded(80)));
      spec.cluster.rebalance_threshold = 1.2 + rng.NextDouble();
      spec.cluster.rebalance_max_moves = 16 + static_cast<int>(rng.NextBounded(48));
    }
    OpenLoopSpec ol;
    ol.num_workers = 2 + static_cast<int>(rng.NextBounded(4));  // Per node.
    ol.num_acceptors = 1;
    ol.accept_cycles = 5'000 + static_cast<Cycles>(rng.NextBounded(15'000));
    ol.arrivals.seed = DeriveSeed(seed, 0xC105);
    ol.arrivals.service_cycles = 60'000 + static_cast<Cycles>(rng.NextBounded(180'000));
    if (rng.NextBool(0.3)) {  // Heavy-tailed service demand.
      ol.arrivals.service_alpha = 1.3 + rng.NextDouble() * 1.2;
      ol.arrivals.max_service_cycles = ol.arrivals.service_cycles * 50;
    }
    ol.arrivals.request_bytes = 64 + static_cast<int64_t>(rng.NextBounded(192));
    ol.arrivals.max_request_bytes = ol.arrivals.request_bytes * 16;
    ol.worker_queue_bytes = ol.arrivals.max_request_bytes * 16;
    ol.listen_queue_bytes = ol.arrivals.max_request_bytes * 64;
    // Offered load as a ratio of the CLUSTER's saturation rate.
    const double node_capacity_rps =
        spec.num_cpus * spec.clock_hz /
        (MeanServiceCycles(ol.arrivals) + static_cast<double>(ol.accept_cycles));
    ol.arrivals.requests_per_sec =
        (0.3 + rng.NextDouble() * 1.3) * spec.cluster.num_machines * node_capacity_rps;
    spec.open_loops.push_back(std::move(ol));
    return spec;
  }

  // High-thread-count bucket (~1 seed in 10): a server-farm style machine with 512+
  // threads of short two-stage pipelines, so fuzzing exercises the indexed dispatch
  // path (many reserved threads, diverse period ranks) at scale. Short horizon keeps
  // the differential battery affordable. Reservations stay tiny so the machine-wide
  // 45% fixed budget holds: ≤ 360 producers × ≤ 4 ppt = 1.44 < 0.45 × 4 cores.
  if (rng.NextBool(0.1)) {
    spec.num_cpus = 4 + static_cast<int>(rng.NextBounded(5));  // 4-8 cores.
    spec.run_for = Duration::Millis(60 + static_cast<int64_t>(rng.NextBounded(80)));
    const int farm_pipelines = 256 + static_cast<int>(rng.NextBounded(104));
    for (int i = 0; i < farm_pipelines; ++i) {
      PipelineSpec p;
      p.producer_cycles_per_item = 50'000 + static_cast<Cycles>(rng.NextBounded(150'000));
      p.bytes_per_item = 40.0 + rng.NextDouble() * 80.0;
      p.consumer_cycles_per_byte = 200 + static_cast<Cycles>(rng.NextBounded(800));
      p.producer_proportion = Proportion::Ppt(2 + static_cast<int>(rng.NextBounded(3)));
      // Deterministic period variety (no extra draws): 28 distinct rate-monotonic
      // ranks cycling across the farm.
      p.producer_period = Duration::Millis(5 + i % 28);
      p.source_queue_bytes = static_cast<int64_t>(2.0 * p.bytes_per_item) * 8;
      p.priority = 3 + i % 5;
      p.tickets = 50 + (i % 7) * 37;
      spec.pipelines.push_back(std::move(p));
    }
    return spec;
  }

  // Control-plane bucket (~1 seed in 20): 1000+ controlled threads spanning all five
  // paper classes — real-time (pipeline producers), real-rate (pipeline consumers),
  // miscellaneous (hogs), aperiodic real-time, and interactive (tty editors) — so
  // fuzzing exercises the controller's staged pipeline (BudgetLedger, dirty-set
  // sampler, batched actuation, and the shadow/trace-equality oracles against
  // RunOnceReference) at production thread counts. Short horizon keeps the battery
  // affordable. Feasibility by construction needs both budgets to hold on the
  // smallest (6-core) machine: fixed reservations ≤ 479 producers × 3 ppt + 96
  // aperiodics × 3 ppt = 1.73 < 0.45 × 6 cores, and the adaptive allocation floors
  // (≤ 655 adaptive threads × 5 ppt = 3.28) plus fixed stay within the 6 × 0.95
  // admission ceiling, so per-core squish never has to overflow a core.
  if (rng.NextBool(0.05)) {
    spec.num_cpus = 6 + static_cast<int>(rng.NextBounded(3));  // 6-8 cores.
    spec.run_for = Duration::Millis(40 + static_cast<int64_t>(rng.NextBounded(40)));
    const int mega_pipelines = 416 + static_cast<int>(rng.NextBounded(64));
    for (int i = 0; i < mega_pipelines; ++i) {
      PipelineSpec p;
      p.producer_cycles_per_item = 60'000 + static_cast<Cycles>(rng.NextBounded(120'000));
      p.bytes_per_item = 40.0 + rng.NextDouble() * 60.0;
      p.consumer_cycles_per_byte = 200 + static_cast<Cycles>(rng.NextBounded(600));
      p.producer_proportion = Proportion::Ppt(1 + static_cast<int>(rng.NextBounded(3)));
      p.producer_period = Duration::Millis(5 + i % 28);
      p.source_queue_bytes = static_cast<int64_t>(2.0 * p.bytes_per_item) * 8;
      p.priority = 3 + i % 5;
      p.tickets = 50 + (i % 7) * 37;
      spec.pipelines.push_back(std::move(p));
    }
    const int mega_hogs = 96 + static_cast<int>(rng.NextBounded(32));
    for (int i = 0; i < mega_hogs; ++i) {
      HogSpec h;
      h.cycles_per_key = 500 + static_cast<Cycles>(rng.NextBounded(4'500));
      h.importance = 1.0 + rng.NextDouble() * 7.0;
      h.priority = 1 + i % 10;
      h.tickets = 10 + (i % 13) * 30;
      spec.hogs.push_back(h);
    }
    const int mega_aperiodics = 64 + static_cast<int>(rng.NextBounded(32));
    for (int i = 0; i < mega_aperiodics; ++i) {
      AperiodicSpec a;
      a.proportion = Proportion::Ppt(1 + static_cast<int>(rng.NextBounded(3)));
      a.priority = 2 + i % 8;
      a.tickets = 20 + (i % 11) * 25;
      spec.aperiodics.push_back(a);
    }
    const int mega_interactives = 32 + static_cast<int>(rng.NextBounded(16));
    for (int i = 0; i < mega_interactives; ++i) {
      InteractiveSpec e;
      e.cycles_per_event = 100'000 + static_cast<Cycles>(rng.NextBounded(400'000));
      e.mean_think = Duration::Millis(50 + static_cast<int64_t>(rng.NextBounded(250)));
      e.priority = 4 + i % 6;
      e.tickets = 100 + (i % 5) * 60;
      spec.interactives.push_back(e);
    }
    return spec;
  }

  // Open-loop bucket (~1 seed in 12): a Flash-style web farm driven by a seeded
  // arrival process (workloads/arrivals.h) at an offered load drawn from deep
  // underload to 2.2x the farm's CPU capacity, so fuzzing covers the regimes the
  // closed-loop buckets cannot express — sustained over-subscription, flash
  // crowds, admission drops. A couple of hogs ride along so the metamorphic
  // variants that strip wall-clock sources (clock scaling, core monotonicity)
  // still have work to measure. All farm threads are adaptive (real-rate), so
  // the fixed-reservation budget is untouched by construction.
  if (rng.NextBool(0.08)) {
    spec.num_cpus = 2 + static_cast<int>(rng.NextBounded(3));  // 2-4 cores.
    spec.run_for = Duration::Millis(120 + static_cast<int64_t>(rng.NextBounded(130)));
    OpenLoopSpec ol;
    ol.num_workers = 2 + static_cast<int>(rng.NextBounded(5));  // 2-6.
    ol.num_acceptors = 1;
    ol.accept_cycles = 5'000 + static_cast<Cycles>(rng.NextBounded(15'000));
    ol.arrivals.seed = DeriveSeed(seed, 0xA221);
    ol.arrivals.service_cycles = 60'000 + static_cast<Cycles>(rng.NextBounded(240'000));
    if (rng.NextBool(0.35)) {  // Heavy-tailed service demand.
      ol.arrivals.service_alpha = 1.3 + rng.NextDouble() * 1.2;
      ol.arrivals.max_service_cycles = ol.arrivals.service_cycles * 50;
    }
    ol.arrivals.request_bytes = 64 + static_cast<int64_t>(rng.NextBounded(192));
    if (rng.NextBool(0.4)) {  // Heavy-tailed response sizes.
      ol.arrivals.bytes_alpha = 1.2 + rng.NextDouble() * 1.3;
    }
    ol.arrivals.max_request_bytes = ol.arrivals.request_bytes * 16;
    ol.worker_queue_bytes = ol.arrivals.max_request_bytes * 16;
    ol.listen_queue_bytes = ol.arrivals.max_request_bytes * 64;
    // Offered load as a ratio of the farm's saturation rate.
    const double capacity_rps =
        spec.num_cpus * spec.clock_hz /
        (MeanServiceCycles(ol.arrivals) + static_cast<double>(ol.accept_cycles));
    const double target_rps = (0.4 + rng.NextDouble() * 1.8) * capacity_rps;
    if (rng.NextBool(0.4)) {  // Session churn instead of memoryless arrivals.
      ol.arrivals.kind = ArrivalConfig::Kind::kParetoSessions;
      ol.arrivals.session_alpha = 1.3 + rng.NextDouble() * 1.2;
      ol.arrivals.session_min_requests = 2.0;
      ol.arrivals.mean_think = Duration::Millis(2 + static_cast<int64_t>(rng.NextBounded(6)));
      const double mean_session_requests = ol.arrivals.session_min_requests *
                                           ol.arrivals.session_alpha /
                                           (ol.arrivals.session_alpha - 1.0);
      ol.arrivals.sessions_per_sec = target_rps / mean_session_requests;
    } else {
      ol.arrivals.requests_per_sec = target_rps;
    }
    if (rng.NextBool(0.5)) {  // Flash crowd: a 2-4x spike mid-run, then back to 1x.
      const int64_t horizon_ms = spec.run_for.millis();
      const auto t0_ms = static_cast<int64_t>(rng.NextBounded(
          static_cast<uint64_t>(std::max<int64_t>(1, horizon_ms / 2))));
      const int64_t width_ms =
          horizon_ms / 5 + static_cast<int64_t>(rng.NextBounded(
                               static_cast<uint64_t>(std::max<int64_t>(1, horizon_ms / 5))));
      const double spike = 2.0 + rng.NextDouble() * 2.0;
      ol.arrivals.load_curve.push_back({Duration::Millis(t0_ms), spike});
      ol.arrivals.load_curve.push_back({Duration::Millis(t0_ms + width_ms), 1.0});
    }
    ol.priority = 3 + static_cast<int>(rng.NextBounded(5));
    ol.tickets = 50 + static_cast<int64_t>(rng.NextBounded(250));
    spec.open_loops.push_back(std::move(ol));
    const int ol_hogs = 1 + static_cast<int>(rng.NextBounded(2));
    for (int i = 0; i < ol_hogs; ++i) {
      HogSpec h;
      h.cycles_per_key = 500 + static_cast<Cycles>(rng.NextBounded(4'500));
      h.importance = 1.0 + rng.NextDouble() * 7.0;
      h.priority = 1 + static_cast<int>(rng.NextBounded(10));
      h.tickets = 10 + static_cast<int64_t>(rng.NextBounded(390));
      spec.hogs.push_back(h);
    }
    return spec;
  }

  // Matched-pipeline bucket (~1 seed in 8): matched-rate unpaced pipelines on 4
  // cores whose per-tick traffic (a few hundred bytes each way at 40 ppt / 400 MHz)
  // is small against the 64 KB queues, so the feedback controller's half-full
  // steering holds every queue away from both its empty and its full edge. Half
  // the pipelines carry one chunked stage, so PipelineStageWork runs in this
  // steady regime too. Reservations total ≤ 8 × 40 ppt = 0.32 < 0.45 × 4 cores.
  if (rng.NextBool(0.125)) {
    spec.num_cpus = 4;
    spec.run_for = Duration::Millis(200 + static_cast<int64_t>(rng.NextBounded(100)));
    const int matched_pipelines = 6 + static_cast<int>(rng.NextBounded(3));  // 6-8.
    for (int i = 0; i < matched_pipelines; ++i) {
      PipelineSpec p;
      p.producer_cycles_per_item = 3'000 + static_cast<Cycles>(rng.NextBounded(3'000));
      p.bytes_per_item = 48.0 + rng.NextDouble() * 32.0;
      p.consumer_cycles_per_byte = 300 + static_cast<Cycles>(rng.NextBounded(300));
      p.producer_proportion = Proportion::Ppt(40);
      p.producer_period = Duration::Millis(5 + i % 9);
      p.source_queue_bytes = 64 * 1024;
      if (i % 2 == 0) {
        StageSpec stage;
        stage.cycles_per_byte = 200 + static_cast<Cycles>(rng.NextBounded(400));
        stage.chunk_bytes = 96 + static_cast<int64_t>(rng.NextBounded(64));
        stage.queue_bytes = 64 * 1024;
        p.stages.push_back(stage);
      }
      p.priority = 3 + i % 5;
      p.tickets = 50 + (i % 7) * 37;
      spec.pipelines.push_back(std::move(p));
    }
    return spec;
  }

  // Fixed-reservation budget: at most 45% of the machine, each reservation at most
  // 45% of one core. The controller's least-fixed-loaded-core admission then always
  // finds a core below 50%, so every generated reservation is admitted (see
  // FeedbackAllocator::PlaceAndAdmit).
  double fixed_budget = 0.45 * spec.num_cpus;

  const int num_pipelines = static_cast<int>(rng.NextBounded(4));  // 0-3.
  for (int i = 0; i < num_pipelines; ++i) {
    PipelineSpec p;
    p.paced = rng.NextBool(0.25);
    p.producer_cycles_per_item = 100'000 + static_cast<Cycles>(rng.NextBounded(700'000));
    p.bytes_per_item = 50.0 + rng.NextDouble() * 350.0;
    p.consumer_cycles_per_byte = 500 + static_cast<Cycles>(rng.NextBounded(3'500));
    p.paced_interval = Duration::Millis(2 + static_cast<int64_t>(rng.NextBounded(18)));
    const double request = 0.03 + rng.NextDouble() * 0.09;  // 3-12% of one core.
    p.producer_proportion = Proportion::FromFraction(std::min(request, fixed_budget));
    p.producer_period = Duration::Millis(5 + static_cast<int64_t>(rng.NextBounded(15)));
    // Paced producers run unreserved, but their proportion still counts against the
    // budget: metamorphic variants (harness/differential.cc) may flip paced to
    // reserved and must stay admissible.
    fixed_budget -= p.producer_proportion.ToFraction();
    // Queues hold at least a handful of the largest possible items.
    const double max_bytes = 2.0 * p.bytes_per_item;
    p.source_queue_bytes =
        static_cast<int64_t>(max_bytes) * (4 + static_cast<int64_t>(rng.NextBounded(16)));
    p.segments = DrawSegments(rng, p.bytes_per_item, 0.5 * p.bytes_per_item, max_bytes,
                              spec.run_for);
    const int num_stages = static_cast<int>(rng.NextBounded(3));  // 0-2.
    for (int s = 0; s < num_stages; ++s) {
      StageSpec stage;
      stage.cycles_per_byte = 100 + static_cast<Cycles>(rng.NextBounded(1'900));
      stage.chunk_bytes = 100 + static_cast<int64_t>(rng.NextBounded(300));
      stage.queue_bytes = stage.chunk_bytes * (4 + static_cast<int64_t>(rng.NextBounded(16)));
      p.stages.push_back(stage);
    }
    p.priority = 3 + static_cast<int>(rng.NextBounded(5));
    p.tickets = 50 + static_cast<int64_t>(rng.NextBounded(250));
    spec.pipelines.push_back(std::move(p));
  }

  const int num_hogs = static_cast<int>(rng.NextBounded(4));  // 0-3.
  for (int i = 0; i < num_hogs; ++i) {
    HogSpec h;
    h.cycles_per_key = 500 + static_cast<Cycles>(rng.NextBounded(4'500));
    h.importance = 1.0 + rng.NextDouble() * 7.0;
    h.priority = 1 + static_cast<int>(rng.NextBounded(10));
    h.tickets = 10 + static_cast<int64_t>(rng.NextBounded(390));
    spec.hogs.push_back(h);
  }

  const int num_reservations = static_cast<int>(rng.NextBounded(3));  // 0-2.
  for (int i = 0; i < num_reservations; ++i) {
    const double request = 0.05 + rng.NextDouble() * 0.25;  // 5-30% of one core.
    if (request > fixed_budget) {
      continue;  // Budget exhausted; keep the draw sequence stable regardless.
    }
    ReservationSpec r;
    r.proportion = Proportion::FromFraction(request);
    r.period = Duration::Millis(5 + static_cast<int64_t>(rng.NextBounded(25)));
    r.priority = 1 + static_cast<int>(rng.NextBounded(10));
    r.tickets = 10 + static_cast<int64_t>(rng.NextBounded(390));
    // Deduct the ppt-quantized value actually stored (not the raw draw), so the
    // spec's summed fixed fraction respects the budget bit-exactly.
    fixed_budget -= r.proportion.ToFraction();
    spec.reservations.push_back(r);
  }

  if (spec.pipelines.empty() && spec.hogs.empty() && spec.reservations.empty()) {
    // Never generate an empty machine; a lone hog still exercises dispatch/squish.
    spec.hogs.push_back({1'000, 1.0, 5, 100});
  }

  // About one default-bucket seed in four adds a best-effort hog, so the RBS
  // round-robin fallback and its occupancy gate see a runnable unreserved thread.
  // Drawn last, so the rest of the spec is the same with or without it.
  if (rng.NextBool(0.25)) {
    HogSpec h;
    h.cycles_per_key = 500 + static_cast<Cycles>(rng.NextBounded(4'500));
    h.priority = 1 + static_cast<int>(rng.NextBounded(10));
    h.tickets = 10 + static_cast<int64_t>(rng.NextBounded(390));
    h.best_effort = true;
    spec.hogs.push_back(h);
  }
  return spec;
}

std::string WorkloadSpec::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "workload seed=%llu cpus=%d clock=%.0fMHz run_for=%lldms\n",
                static_cast<unsigned long long>(seed), num_cpus, clock_hz / 1e6,
                static_cast<long long>(run_for.millis()));
  out += line;
  if (cluster.num_machines > 0) {
    std::snprintf(line, sizeof(line),
                  "  cluster: machines=%d epoch=%lldms router=%s damping=%.2f "
                  "rebalance=%lldms/%.2fx/max%d\n",
                  cluster.num_machines, static_cast<long long>(cluster.epoch.millis()),
                  cluster.feedback_router ? "feedback" : "round-robin",
                  cluster.pressure_damping,
                  static_cast<long long>(cluster.rebalance_interval.millis()),
                  cluster.rebalance_threshold, cluster.rebalance_max_moves);
    out += line;
  }
  for (size_t i = 0; i < pipelines.size(); ++i) {
    const PipelineSpec& p = pipelines[i];
    std::snprintf(line, sizeof(line),
                  "  pipeline[%zu]: %s cycles/item=%lld bytes/item=%.1f (%zu segments) "
                  "queue=%lldB stages=%zu consumer=%lldcyc/B prio=%d tickets=%lld\n",
                  i, p.paced ? "paced" : "reserved",
                  static_cast<long long>(p.producer_cycles_per_item), p.bytes_per_item,
                  p.segments.size(), static_cast<long long>(p.source_queue_bytes),
                  p.stages.size(), static_cast<long long>(p.consumer_cycles_per_byte),
                  p.priority, static_cast<long long>(p.tickets));
    out += line;
    if (!p.paced) {
      std::snprintf(line, sizeof(line), "    reservation %dppt / %lldms\n",
                    p.producer_proportion.ppt(),
                    static_cast<long long>(p.producer_period.millis()));
      out += line;
    }
  }
  for (size_t i = 0; i < hogs.size(); ++i) {
    const HogSpec& h = hogs[i];
    std::snprintf(line, sizeof(line),
                  "  hog[%zu]: %lldcyc/key importance=%.2f prio=%d tickets=%lld%s\n", i,
                  static_cast<long long>(h.cycles_per_key), h.importance, h.priority,
                  static_cast<long long>(h.tickets), h.best_effort ? " best-effort" : "");
    out += line;
  }
  for (size_t i = 0; i < reservations.size(); ++i) {
    const ReservationSpec& r = reservations[i];
    std::snprintf(line, sizeof(line),
                  "  reservation[%zu]: %dppt / %lldms prio=%d tickets=%lld\n", i,
                  r.proportion.ppt(), static_cast<long long>(r.period.millis()),
                  r.priority, static_cast<long long>(r.tickets));
    out += line;
  }
  for (size_t i = 0; i < aperiodics.size(); ++i) {
    const AperiodicSpec& a = aperiodics[i];
    std::snprintf(line, sizeof(line), "  aperiodic[%zu]: %dppt prio=%d tickets=%lld\n", i,
                  a.proportion.ppt(), a.priority, static_cast<long long>(a.tickets));
    out += line;
  }
  for (size_t i = 0; i < open_loops.size(); ++i) {
    const OpenLoopSpec& ol = open_loops[i];
    const char* kind =
        ol.arrivals.kind == ArrivalConfig::Kind::kPoisson ? "poisson" : "sessions";
    const double rate = ol.arrivals.kind == ArrivalConfig::Kind::kPoisson
                            ? ol.arrivals.requests_per_sec
                            : ol.arrivals.sessions_per_sec;
    std::snprintf(line, sizeof(line),
                  "  open_loop[%zu]: %s rate=%.0f/s workers=%d acceptors=%d "
                  "accept=%lldcyc service=%lldcyc(a=%.2f) bytes=%lld(a=%.2f) "
                  "curve=%zu prio=%d tickets=%lld\n",
                  i, kind, rate, ol.num_workers, ol.num_acceptors,
                  static_cast<long long>(ol.accept_cycles),
                  static_cast<long long>(ol.arrivals.service_cycles),
                  ol.arrivals.service_alpha, static_cast<long long>(ol.arrivals.request_bytes),
                  ol.arrivals.bytes_alpha, ol.arrivals.load_curve.size(), ol.priority,
                  static_cast<long long>(ol.tickets));
    out += line;
  }
  for (size_t i = 0; i < interactives.size(); ++i) {
    const InteractiveSpec& e = interactives[i];
    std::snprintf(line, sizeof(line),
                  "  interactive[%zu]: %lldcyc/event think=%lldms prio=%d tickets=%lld\n",
                  i, static_cast<long long>(e.cycles_per_event),
                  static_cast<long long>(e.mean_think.millis()), e.priority,
                  static_cast<long long>(e.tickets));
    out += line;
  }
  return out;
}

}  // namespace realrate
