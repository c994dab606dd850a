#include "workloads/producer_consumer.h"

#include <algorithm>

#include "task/thread.h"
#include "util/assert.h"

namespace realrate {

ProducerWork::ProducerWork(BoundedBuffer* out, Cycles cycles_per_item,
                           RateSchedule bytes_per_item)
    : out_(out), cycles_per_item_(cycles_per_item), bytes_per_item_(std::move(bytes_per_item)) {
  RR_EXPECTS(out != nullptr);
  RR_EXPECTS(cycles_per_item > 0);
}

RunResult ProducerWork::Run(TimePoint now, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    const Cycles needed = cycles_per_item_ - into_item_;
    const Cycles step = std::min(needed, granted - used);
    used += step;
    into_item_ += step;
    if (into_item_ < cycles_per_item_) {
      break;  // Slice ended mid-item; resume next slice.
    }
    // Item complete: enqueue it.
    const auto bytes = std::max<int64_t>(1, static_cast<int64_t>(bytes_per_item_.ValueAt(now)));
    if (!out_->TryPush(bytes)) {
      // Queue full: block until the consumer makes room. The finished item stays
      // pending (into_item_ keeps its value) and is re-pushed on wake.
      into_item_ = cycles_per_item_;
      out_->WaitForSpace(self()->id());
      return RunResult::Blocked(used, out_->id());
    }
    into_item_ = 0;
    ++items_;
    self()->AddProgress(bytes);
  }
  return RunResult::Ran(used);
}

PacedProducerWork::PacedProducerWork(BoundedBuffer* out, int64_t item_bytes,
                                     Duration interval, Cycles cycles_per_item)
    : out_(out), item_bytes_(item_bytes), interval_(interval),
      cycles_per_item_(cycles_per_item) {
  RR_EXPECTS(out != nullptr);
  RR_EXPECTS(item_bytes > 0);
  RR_EXPECTS(interval.IsPositive());
  RR_EXPECTS(cycles_per_item > 0);
}

RunResult PacedProducerWork::Run(TimePoint now, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    if (now < next_item_time_) {
      return RunResult::Sleeping(used, next_item_time_);
    }
    const Cycles step = std::min(cycles_per_item_ - into_item_, granted - used);
    used += step;
    into_item_ += step;
    if (into_item_ < cycles_per_item_) {
      break;  // Slice ended mid-item.
    }
    into_item_ = 0;
    if (out_->TryPush(item_bytes_)) {
      ++items_;
      self()->AddProgress(item_bytes_);
    } else {
      ++dropped_;  // Overrun: the device cannot wait.
    }
    next_item_time_ = std::max(next_item_time_ + interval_, now);
  }
  return RunResult::Ran(used);
}

ConsumerWork::ConsumerWork(BoundedBuffer* in, Cycles cycles_per_byte)
    : in_(in), cycles_per_byte_(cycles_per_byte) {
  RR_EXPECTS(in != nullptr);
  RR_EXPECTS(cycles_per_byte > 0);
}

RunResult ConsumerWork::Run(TimePoint /*now*/, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    const Cycles affordable_bytes = (granted - used) / cycles_per_byte_;
    if (affordable_bytes == 0) {
      // Less than one byte's worth of cycles left; burn the remainder as partial work.
      used = granted;
      break;
    }
    const int64_t got = in_->TryPop(affordable_bytes);
    if (got == 0) {
      in_->WaitForData(self()->id());
      return RunResult::Blocked(used, in_->id());
    }
    used += got * cycles_per_byte_;
    bytes_ += got;
    self()->AddProgress(got);
  }
  return RunResult::Ran(used);
}

PipelineStageWork::PipelineStageWork(BoundedBuffer* in, BoundedBuffer* out,
                                     Cycles cycles_per_byte, double amplification,
                                     int64_t chunk_bytes)
    : in_(in),
      out_(out),
      cycles_per_byte_(cycles_per_byte),
      amplification_(amplification),
      chunk_bytes_(chunk_bytes) {
  RR_EXPECTS(in != nullptr);
  RR_EXPECTS(out != nullptr);
  RR_EXPECTS(cycles_per_byte > 0);
  RR_EXPECTS(amplification > 0);
  RR_EXPECTS(chunk_bytes > 0);
}

RunResult PipelineStageWork::Run(TimePoint /*now*/, Cycles granted) {
  Cycles used = 0;
  while (used < granted) {
    // Flush any processed output waiting for space downstream.
    if (pending_out_ > 0) {
      if (!out_->TryPush(pending_out_)) {
        out_->WaitForSpace(self()->id());
        return RunResult::Blocked(used, out_->id());
      }
      pending_out_ = 0;
    }
    // Acquire input for the current chunk.
    if (chunk_in_flight_ == 0) {
      chunk_in_flight_ = in_->TryPop(chunk_bytes_);
      if (chunk_in_flight_ == 0) {
        in_->WaitForData(self()->id());
        return RunResult::Blocked(used, in_->id());
      }
      into_chunk_ = 0;
    }
    // Process the chunk.
    const Cycles chunk_cost = chunk_in_flight_ * cycles_per_byte_;
    const Cycles step = std::min(chunk_cost - into_chunk_, granted - used);
    used += step;
    into_chunk_ += step;
    if (into_chunk_ < chunk_cost) {
      break;  // Mid-chunk; resume next slice.
    }
    bytes_ += chunk_in_flight_;
    self()->AddProgress(chunk_in_flight_);
    pending_out_ =
        std::max<int64_t>(1, static_cast<int64_t>(chunk_in_flight_ * amplification_));
    chunk_in_flight_ = 0;
  }
  return RunResult::Ran(used);
}

}  // namespace realrate
