// Epoch-versioned holder of the runtime's virtual topology.
//
// The topology used to be a frozen member of the Runtime; live
// reconfiguration (paper Sec. IV-B) makes it a first-class mutable
// policy instead. Every install() bumps the epoch, so protocol code can
// detect that a remap happened between two observations, and keeps an
// append-only history of (epoch, kind, install time) for diagnostics.
//
// The manager hands out `const VirtualTopology&` only; callers must not
// cache the reference across a suspension point that may include a
// reconfiguration (re-fetch through Runtime::topology() instead, the
// way all protocol code here does). The one exception is the credit
// banks, which read adjacency through a pointer: each generation lives
// in its own heap object, so a bank remapped onto the next topology
// before install() keeps pointing at it once it is current.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/topology.hpp"
#include "sim/time.hpp"

namespace vtopo::armci {

class TopologyManager {
 public:
  /// One installed topology generation.
  struct Generation {
    std::uint64_t epoch = 0;
    core::TopologyKind kind = core::TopologyKind::kFcg;
    sim::TimeNs installed_at = 0;
    int max_forwards = 0;
  };

  explicit TopologyManager(core::VirtualTopology initial)
      : current_(std::make_unique<const core::VirtualTopology>(
            std::move(initial))) {
    history_.push_back(
        Generation{0, current_->kind(), 0, current_->max_forwards()});
  }

  [[nodiscard]] const core::VirtualTopology& current() const {
    return *current_;
  }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Swap in the next topology; returns the new epoch. The caller (the
  /// Runtime's reconfigure path) is responsible for quiescing the
  /// request path first — install() itself is instantaneous.
  std::uint64_t install(std::unique_ptr<const core::VirtualTopology> next,
                        sim::TimeNs now) {
    current_ = std::move(next);
    ++epoch_;
    history_.push_back(Generation{epoch_, current_->kind(), now,
                                  current_->max_forwards()});
    return epoch_;
  }

  /// Every generation installed so far, oldest first (index == epoch).
  [[nodiscard]] const std::vector<Generation>& history() const {
    return history_;
  }

  /// Loosest per-request forwarding bound across every generation
  /// installed so far. Run-cumulative statistics (max_forwards_seen)
  /// must be checked against this, not against the current topology:
  /// a hop that was legal under an earlier, deeper generation stays in
  /// the counter after a reconfiguration to a shallower one.
  [[nodiscard]] int max_forwards_bound() const {
    int bound = 0;
    for (const Generation& g : history_) {
      bound = std::max(bound, g.max_forwards);
    }
    return bound;
  }

 private:
  std::unique_ptr<const core::VirtualTopology> current_;
  std::uint64_t epoch_ = 0;
  std::vector<Generation> history_;
};

}  // namespace vtopo::armci
