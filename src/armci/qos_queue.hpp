// Class-aware CHT request queue.
//
// Replaces the CHT's single sim::AsyncQueue with three per-class FIFOs
// plus a weighted deficit-round-robin dequeue and slack-estimated aging.
// The consumer-parking protocol is copied from sim::AsyncQueue verbatim
// (one schedule_after(0) per push-with-parked-consumer), and with QoS
// disabled the selection degenerates to "pop the globally oldest entry"
// — three FIFOs whose heads are compared by push sequence number are a
// single FIFO — so the disabled path schedules the exact same events as
// the old queue and the figure goldens stay byte-identical.
//
// Shutdown poison is a flag, not a queued item: it is delivered only
// once every class FIFO has drained, which both keeps the weighted
// dequeue from reordering a request behind the poison and makes
// backlog() naturally exclude it.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "armci/params.hpp"
#include "armci/request.hpp"
#include "sim/engine.hpp"

namespace vtopo::armci {

class QosQueue {
 public:
  QosQueue(sim::Engine& eng, const QosParams* qos)
      : eng_(&eng), qos_(qos) {}

  void push(RequestPtr r) {
    const auto cls = static_cast<std::size_t>(r->cls);
    assert(cls < static_cast<std::size_t>(kNumPriorities));
    q_[cls].push_back(Entry{std::move(r), next_seq_++});
    wake();
  }

  /// Arm shutdown: pop() returns nullptr once all FIFOs are empty.
  void poison() {
    poison_ = true;
    wake();
  }

  /// Queue depth, excluding the shutdown poison.
  [[nodiscard]] std::size_t size() const {
    return q_[0].size() + q_[1].size() + q_[2].size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Requests whose dequeue class was boosted above their nominal class
  /// by aging (monotone counter; caller diffs).
  [[nodiscard]] std::uint64_t aged_promotions() const { return aged_; }

  /// Awaitable pop; at most one consumer may be suspended at a time.
  /// Returns nullptr for the shutdown poison.
  auto pop() {
    struct Awaiter {
      QosQueue* q;
      bool await_ready() const { return !q->empty() || q->poison_; }
      void await_suspend(std::coroutine_handle<> h) {
        assert(!q->consumer_ && "QosQueue: second concurrent consumer");
        q->consumer_ = h;
      }
      RequestPtr await_resume() { return q->take(); }
    };
    return Awaiter{this};
  }

 private:
  struct Entry {
    RequestPtr r;
    std::uint64_t seq = 0;  ///< global push order (FIFO tie-break)
  };

  /// One class's FIFO: a vector plus a head index. Unlike std::deque it
  /// allocates nothing until its first push, so the CHTs of nodes that
  /// never receive a request cost no heap. Popped slots are reclaimed
  /// when the FIFO drains or is half consumed (amortized O(1) per pop).
  struct Fifo {
    std::vector<Entry> v;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == v.size(); }
    [[nodiscard]] std::size_t size() const { return v.size() - head; }
    [[nodiscard]] Entry& front() { return v[head]; }
    [[nodiscard]] const Entry& front() const { return v[head]; }
    void push_back(Entry e) { v.push_back(std::move(e)); }
    void pop_front() {
      if (++head == v.size()) {
        v.clear();
        head = 0;
      } else if (2 * head >= v.size()) {
        v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  void wake() {
    if (consumer_) {
      auto h = std::exchange(consumer_, nullptr);
      eng_->schedule_after(0, [h] { h.resume(); });
    }
  }

  [[nodiscard]] bool qos_on() const {
    return qos_ != nullptr && qos_->enabled;
  }

  /// Aging: every elapsed aging_quantum of queue wait promotes the
  /// entry's effective class one step (bulk -> normal -> critical).
  [[nodiscard]] int effective_class(const Entry& e) const {
    const int cls = static_cast<int>(e.r->cls);
    const sim::TimeNs quantum = qos_->aging_quantum;
    if (quantum <= 0) return cls;
    const sim::TimeNs waited = eng_->now() - e.r->enqueued_ns;
    if (waited <= 0) return cls;
    const auto boost = static_cast<int>(waited / quantum);
    const int eff = cls + (boost > kNumPriorities ? kNumPriorities : boost);
    return eff >= kNumPriorities - 1 ? kNumPriorities - 1 : eff;
  }

  [[nodiscard]] int refill(int c) const {
    const int w = c == 0   ? qos_->weight_bulk
                  : c == 1 ? qos_->weight_normal
                           : qos_->weight_critical;
    return w < 1 ? 1 : w;  // a zero weight would starve the refill loop
  }

  RequestPtr take() {
    if (empty()) {
      assert(poison_ && "QosQueue: resumed with nothing to deliver");
      return nullptr;
    }
    std::size_t pick;
    if (!qos_on()) {
      // FIFO-exact: the globally oldest head across the class FIFOs.
      pick = oldest_head();
    } else {
      pick = select_drr();
    }
    RequestPtr r = std::move(q_[pick].front().r);
    q_[pick].pop_front();
    return r;
  }

  [[nodiscard]] std::size_t oldest_head() const {
    std::size_t best = kNumPriorities;
    std::uint64_t best_seq = ~std::uint64_t{0};
    for (std::size_t c = 0; c < kNumPriorities; ++c) {
      if (!q_[c].empty() && q_[c].front().seq < best_seq) {
        best_seq = q_[c].front().seq;
        best = c;
      }
    }
    assert(best < static_cast<std::size_t>(kNumPriorities));
    return best;
  }

  /// Weighted deficit round-robin over the class FIFOs with aging.
  /// Among non-empty classes holding round credit, the one whose head
  /// has the highest aged effective class wins (ties broken FIFO by
  /// push sequence); when every non-empty class has exhausted its
  /// quantum the round credits refill from the weights. Bulk therefore
  /// still drains under a sustained critical storm — once per round via
  /// its quantum, and promptly once its head ages past a quantum.
  std::size_t select_drr() {
    for (int attempt = 0; attempt < 2; ++attempt) {
      std::size_t best = kNumPriorities;
      int best_eff = -1;
      std::uint64_t best_seq = ~std::uint64_t{0};
      for (std::size_t c = 0; c < kNumPriorities; ++c) {
        if (q_[c].empty() || credits_[c] <= 0) continue;
        const int eff = effective_class(q_[c].front());
        if (eff > best_eff ||
            (eff == best_eff && q_[c].front().seq < best_seq)) {
          best = c;
          best_eff = eff;
          best_seq = q_[c].front().seq;
        }
      }
      if (best < static_cast<std::size_t>(kNumPriorities)) {
        --credits_[best];
        if (best_eff > static_cast<int>(q_[best].front().r->cls)) ++aged_;
        return best;
      }
      for (int c = 0; c < kNumPriorities; ++c) credits_[c] = refill(c);
    }
    return oldest_head();  // unreachable: refill guarantees a candidate
  }

  sim::Engine* eng_;
  const QosParams* qos_;
  Fifo q_[kNumPriorities];
  std::uint64_t next_seq_ = 0;
  int credits_[kNumPriorities] = {0, 0, 0};
  std::uint64_t aged_ = 0;
  bool poison_ = false;
  std::coroutine_handle<> consumer_{};
};

}  // namespace vtopo::armci
