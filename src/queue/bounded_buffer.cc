#include "queue/bounded_buffer.h"

#include <algorithm>
#include <utility>

namespace realrate {

BoundedBuffer::BoundedBuffer(QueueId id, std::string name, int64_t capacity_bytes)
    : id_(id), name_(std::move(name)), capacity_(capacity_bytes) {
  RR_EXPECTS(capacity_bytes > 0);
}

bool BoundedBuffer::TryPush(int64_t bytes) {
  RR_EXPECTS(bytes > 0);
  // An item larger than the whole queue can never fit: a producer would block on
  // WaitForSpace forever waiting for room that cannot exist (silent livelock). Loud
  // contract violation instead — size items to the queue, not vice versa.
  RR_EXPECTS(bytes <= capacity_);
  ++change_epoch_;
  if (fill_ + bytes > capacity_) {
    ++full_hits_;
    return false;
  }
  ApplyFillDelta(bytes);
  total_pushed_ += bytes;
  WakeAll(waiting_consumers_);
  RR_ENSURES(fill_ <= capacity_);
  return true;
}

int64_t BoundedBuffer::TryPop(int64_t bytes) {
  RR_EXPECTS(bytes > 0);
  ++change_epoch_;
  const int64_t n = std::min(bytes, fill_);
  if (n == 0) {
    ++empty_hits_;
    return 0;
  }
  ApplyFillDelta(-n);
  total_popped_ += n;
  WakeAll(waiting_producers_);
  RR_ENSURES(fill_ >= 0);
  return n;
}

bool BoundedBuffer::TryPopExact(int64_t bytes) {
  RR_EXPECTS(bytes > 0);
  // Mirror of the TryPush contract: an exact pop larger than the whole queue can
  // never succeed, so a consumer would block on WaitForData forever.
  RR_EXPECTS(bytes <= capacity_);
  ++change_epoch_;
  if (fill_ < bytes) {
    ++empty_hits_;
    return false;
  }
  ApplyFillDelta(-bytes);
  total_popped_ += bytes;
  WakeAll(waiting_producers_);
  return true;
}

void BoundedBuffer::WaitForSpace(ThreadId thread) {
  RR_EXPECTS(thread != kInvalidThreadId);
  waiting_producers_.push_back(thread);
}

void BoundedBuffer::WaitForData(ThreadId thread) {
  RR_EXPECTS(thread != kInvalidThreadId);
  waiting_consumers_.push_back(thread);
}

void BoundedBuffer::WakeAll(std::vector<ThreadId>& waiters) {
  if (waiters.empty()) {
    return;
  }
  // Swap out first: a woken thread's work model may re-register during the callback.
  std::vector<ThreadId> to_wake;
  to_wake.swap(waiters);
  if (wake_fn_) {
    for (ThreadId t : to_wake) {
      wake_fn_(t);
    }
  }
}

}  // namespace realrate
