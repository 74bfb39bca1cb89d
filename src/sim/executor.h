// Executor: the minimal scheduling surface the protocol depends on.
//
// The coordinator's state machines need exactly three things — deferred
// execution, cancellation, and a random stream. Abstracting them lets the
// identical protocol code run under the deterministic virtual-time
// Simulator (tests, benches) and under the wall-clock runtime::EpollLoop
// (src/runtime) without a single #ifdef: the algorithm is asynchronous by
// construction (§2), so nothing above this interface may depend on which
// clock drives it.
#pragma once

#include <functional>

#include "common/rng.h"
#include "sim/simulator.h"

namespace fabec::sim {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs `fn` after `delay` (>= 0). Returns a handle for cancel().
  virtual EventId schedule_event(Duration delay,
                                 std::function<void()> fn) = 0;

  /// Cancels a pending event; false if it already ran or was cancelled.
  virtual bool cancel_event(EventId id) = 0;

  /// The executor's root random stream. Only call from executor context.
  virtual Rng& random() = 0;
};

/// Simulator adapter: virtual time.
class SimulatorExecutor final : public Executor {
 public:
  explicit SimulatorExecutor(Simulator* simulator) : sim_(simulator) {}

  EventId schedule_event(Duration delay, std::function<void()> fn) override {
    return sim_->schedule_after(delay, std::move(fn));
  }
  bool cancel_event(EventId id) override { return sim_->cancel(id); }
  Rng& random() override { return sim_->rng(); }

 private:
  Simulator* sim_;
};

}  // namespace fabec::sim
