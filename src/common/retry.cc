#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace uload {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t XorShift(uint64_t* s) {
  uint64_t x = *s ? *s : 0x9e3779b97f4a7c15ull;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *s = x;
  return x;
}

}  // namespace

RetryState::RetryState(const RetryPolicy& policy, uint64_t seed)
    : policy_(policy), rng_(seed) {
  if (policy_.overall_deadline_ms > 0) {
    // Saturates: a budget past the clock's range never expires.
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    const int64_t now = NowMs();
    deadline_ms_ = policy_.overall_deadline_ms > kMax - now
                       ? kMax
                       : now + policy_.overall_deadline_ms;
  }
}

bool RetryState::MayRetry() const {
  if (attempts_ >= policy_.max_attempts) return false;
  if (deadline_ms_ > 0 && NowMs() >= deadline_ms_) return false;
  return true;
}

int64_t RetryState::NextBackoffMs(int64_t server_hint_ms) {
  int attempt = ++attempts_;
  // No backoff before the first attempt.
  if (attempt <= 1 && server_hint_ms < 0) return 0;
  double base = static_cast<double>(policy_.initial_backoff_ms) *
                std::pow(policy_.backoff_multiplier, attempt - 2 < 0
                                                         ? 0
                                                         : attempt - 2);
  base = std::min(base, static_cast<double>(policy_.max_backoff_ms));
  double j = std::clamp(policy_.jitter, 0.0, 1.0);
  // Uniform in [1-j, 1+j] from the owned xorshift state.
  double u = static_cast<double>(XorShift(&rng_) >> 11) /
             static_cast<double>(1ull << 53);
  double factor = 1.0 - j + 2.0 * j * u;
  int64_t delay = attempt <= 1 ? 0 : static_cast<int64_t>(base * factor);
  if (server_hint_ms >= 0) delay = std::max(delay, server_hint_ms);
  if (deadline_ms_ > 0) {
    delay = std::min(delay, std::max<int64_t>(0, deadline_ms_ - NowMs()));
  }
  return delay;
}

int64_t RetryState::RemainingBudgetMs() const {
  if (deadline_ms_ == 0) return 0;
  return std::max<int64_t>(1, deadline_ms_ - NowMs());
}

}  // namespace uload
