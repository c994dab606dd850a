// Producer and consumer work models for bounded-buffer pipelines — the paper's
// canonical real-rate application. "Both the producer and consumer loop for some
// number of cycles before they enqueue or dequeue a block of data."
#ifndef REALRATE_WORKLOADS_PRODUCER_CONSUMER_H_
#define REALRATE_WORKLOADS_PRODUCER_CONSUMER_H_

#include "queue/bounded_buffer.h"
#include "task/work_model.h"
#include "workloads/rate_schedule.h"

namespace realrate {

// Loops `cycles_per_item` cycles, then enqueues one item of `schedule(t)` bytes.
// Production rate in bytes/cycle is schedule(t) / cycles_per_item; progress rate in
// bytes/sec is that times the thread's allocation (cycles/sec) — exactly the Fig. 6
// setup where the producer's reservation is fixed and its bytes/cycle is modulated.
class ProducerWork : public WorkModel {
 public:
  ProducerWork(BoundedBuffer* out, Cycles cycles_per_item, RateSchedule bytes_per_item);

  RunResult Run(TimePoint now, Cycles granted) override;

  int64_t items_produced() const { return items_; }

 private:
  BoundedBuffer* const out_;
  const Cycles cycles_per_item_;
  const RateSchedule bytes_per_item_;
  Cycles into_item_ = 0;  // Cycles already spent on the item under construction.
  int64_t items_ = 0;
};

// An isochronous source: every `interval` it spends `cycles_per_item` preparing an item
// of `item_bytes` bytes, pushes it, and sleeps until the next interval — a capture
// device or network feed whose offered load is fixed in wall-clock terms, independent
// of the scheduler. Items that do not fit are dropped (real devices overrun).
class PacedProducerWork : public WorkModel {
 public:
  PacedProducerWork(BoundedBuffer* out, int64_t item_bytes, Duration interval,
                    Cycles cycles_per_item);

  RunResult Run(TimePoint now, Cycles granted) override;

  int64_t items_produced() const { return items_; }
  int64_t items_dropped() const { return dropped_; }

 private:
  BoundedBuffer* const out_;
  const int64_t item_bytes_;
  const Duration interval_;
  const Cycles cycles_per_item_;
  TimePoint next_item_time_;
  Cycles into_item_ = 0;
  int64_t items_ = 0;
  int64_t dropped_ = 0;
};

// Dequeues data and spends `cycles_per_byte` on every byte (fixed consumption rate in
// bytes/cycle). Blocks when the queue is empty.
class ConsumerWork : public WorkModel {
 public:
  ConsumerWork(BoundedBuffer* in, Cycles cycles_per_byte);

  RunResult Run(TimePoint now, Cycles granted) override;

  int64_t bytes_consumed() const { return bytes_; }

 private:
  BoundedBuffer* const in_;
  const Cycles cycles_per_byte_;
  int64_t bytes_ = 0;
};

// A pipeline stage: consumes from `in`, spends `cycles_per_byte` per byte, then pushes
// `amplification` output bytes per input byte to `out`. Blocks on empty input or full
// output. A video decoder is a stage with large cycles_per_byte and amplification > 1.
class PipelineStageWork : public WorkModel {
 public:
  PipelineStageWork(BoundedBuffer* in, BoundedBuffer* out, Cycles cycles_per_byte,
                    double amplification, int64_t chunk_bytes);

  RunResult Run(TimePoint now, Cycles granted) override;

  int64_t bytes_processed() const { return bytes_; }

 private:
  BoundedBuffer* const in_;
  BoundedBuffer* const out_;
  const Cycles cycles_per_byte_;
  const double amplification_;
  const int64_t chunk_bytes_;
  int64_t pending_out_ = 0;  // Processed bytes awaiting space in `out`.
  Cycles into_chunk_ = 0;
  int64_t chunk_in_flight_ = 0;  // Input bytes already popped for the current chunk.
  int64_t bytes_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_WORKLOADS_PRODUCER_CONSUMER_H_
