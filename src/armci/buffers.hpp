// Request-buffer credit accounting (the resource the paper's directed
// graph models).
//
// Edge E(i, j): node i dedicates buffers_per_process * ppn buffers to
// senders on node j. We track the credits on the *sender* side: before
// node j (a process or its CHT) may send a request to node i, it must
// acquire one credit for edge (i <- j); the credit returns when i's
// acknowledgment (or the response, for the first hop) arrives back at j.
// Exhausted credits block the sender — for a forwarding CHT this is the
// hold-and-wait that makes arbitrary forwarding orders deadlock.
//
// Storage is sized by traffic, not by topology (the paper's Sec. III
// point: buffers for peers a node never talks to cost nothing). A bank
// built on a VirtualTopology reads adjacency from it — two nodes are
// adjacent when they differ in exactly one grid coordinate, an O(rank)
// check with no allocation — so it stores no per-peer state at all for
// an untouched edge. The bank keeps one 8-byte edge record per edge that
// has carried traffic or was added explicitly (a self-healing overlay
// edge, or every edge of a bank built from an explicit neighbor list),
// sorted by neighbor id and holding a 4-byte index into a vector of pool
// records that are materialized on first use. An untouched edge is a
// full pool by construction, so the const readers report that fresh
// state without allocating. The per-send credit probe stays a binary
// search over the edge records plus an int decrement — no hash, no
// per-pool Semaphore object. Waiting coroutines queue FIFO through a
// waiter arena shared by all pools of the bank; release() hands the
// credit straight to the oldest waiter (count unchanged), preserving the
// exact fairness and event-scheduling semantics of the Semaphore-based
// implementation.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "armci/params.hpp"
#include "armci/request.hpp"
#include "core/coords.hpp"
#include "core/topology.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

/// Sender-side credit pools on one node: one edge record per touched or
/// explicit out-edge, one pool record per edge that has carried traffic.
///
/// With QoS armed (QosParams::enabled and nonzero reservations) each pool
/// is notionally partitioned into three lanes: a critical-only lane of
/// `reserve_critical` credits, a >=normal lane of `reserve_normal`, and
/// the shared remainder usable by any class. High classes drain the
/// shared lane first and fall back to their reserved lanes only when it
/// is exhausted, so a critical request can always acquire a buffer even
/// when bulk traffic has the shared portion of the pool drained.
/// Per-class in_use accounting runs unconditionally (pure bookkeeping,
/// no event change) so conservation stays checkable under VTOPO_VALIDATE
/// whether or not QoS is on; with zero reservations the eligibility and
/// hand-off logic is bit-equivalent to the single-lane bank.
class CreditBank {
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Pool {
    std::int64_t count = 0;
    std::int64_t in_use = 0;     ///< credits currently held by senders
    /// in_use split by holder class (sums to in_use).
    std::array<std::int64_t, kNumPriorities> cls_in_use{};
    /// Reserved-lane holds: laneC is critical-only, laneN is >=normal
    /// (split by holder class so releases stay attributable). Shared-
    /// lane holds are the remainder of in_use.
    std::int64_t lane_c_used = 0;
    std::int64_t lane_n_used_normal = 0;
    std::int64_t lane_n_used_critical = 0;
    std::uint32_t head = kNil;   ///< oldest waiter (arena index)
    std::uint32_t tail = kNil;   ///< newest waiter
    std::uint32_t nwait = 0;
  };

  /// One recorded out-edge: the neighbor id (the binary-search key) and
  /// the index of its pool in pools_, kNil while the edge is untouched.
  struct Edge {
    core::NodeId nbr;
    std::uint32_t pool = kNil;
  };

  struct Waiter {
    std::coroutine_handle<> h;
    std::uint32_t next = kNil;
    Priority cls = Priority::kNormal;
  };

 public:
  /// A bank over an explicit edge list. `neighbors` must be the node's
  /// direct-edge peers in ascending order (core::VirtualTopology::
  /// neighbors() order). `qos` may be null (no reserved lanes ever) or
  /// point at long-lived params whose reservations are read live on every
  /// acquire/release.
  CreditBank(sim::Engine& eng, std::int64_t credits_per_edge,
             const std::vector<core::NodeId>& neighbors,
             const QosParams* qos = nullptr)
      : eng_(&eng), qos_(qos), limit_(credits_per_edge) {
    assert(std::is_sorted(neighbors.begin(), neighbors.end()));
    fresh_.count = credits_per_edge;
    set_edges(neighbors);
  }

  /// A bank for node `self` whose edges are `topo`'s: every node
  /// connected to `self` is an out-neighbor, with no per-edge record
  /// until the edge carries traffic. `topo` must outlive the bank's use
  /// of it (the Runtime passes its installed topology, whose address
  /// stays fixed across reconfigurations).
  CreditBank(sim::Engine& eng, std::int64_t credits_per_edge,
             const core::VirtualTopology* topo, core::NodeId self,
             const QosParams* qos = nullptr)
      : eng_(&eng),
        qos_(qos),
        topo_(topo),
        self_(self),
        limit_(credits_per_edge) {
    assert(topo != nullptr && self >= 0 && self < topo->num_nodes());
    fresh_.count = credits_per_edge;
  }

  struct [[nodiscard]] Acquire {
    CreditBank* bank;
    std::uint32_t pool;
    Priority cls;
    bool await_ready() const {
      Pool& p = bank->pools_[pool];
      if (bank->eligible(p, cls)) {
        bank->take(p, cls);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      bank->park(pool, h, cls);
    }
    void await_resume() const noexcept {}
  };

  /// Take one credit for sending to `receiver`; suspends FIFO when the
  /// edge (as visible to `cls` — reserved lanes excluded for lower
  /// classes) is exhausted.
  [[nodiscard]] Acquire acquire(core::NodeId receiver,
                                Priority cls = Priority::kNormal) {
    return Acquire{this, touch(receiver), cls};
  }

  /// Return one credit held by a `cls` sender for the edge to
  /// `receiver`. The oldest waiter whose class may use the freed credit
  /// (reserved lanes considered) receives it immediately, resumed via
  /// the event queue at the current time; without reservations that is
  /// exactly the old oldest-waiter hand-off.
  void release(core::NodeId receiver, Priority cls = Priority::kNormal) {
    Pool& p = pools_[touch(receiver)];
    VTOPO_CHECK(p.in_use > 0, "credit released that was never acquired");
    VTOPO_CHECK(p.cls_in_use[static_cast<std::size_t>(cls)] > 0,
                "credit released by a class holding none");
    give_back(p, cls);
    // Hand the freed credit to the oldest waiter that can use it. A
    // waiter of a low class may stay parked past this release when the
    // only free credits sit in lanes reserved above it.
    std::uint32_t prev = kNil;
    for (std::uint32_t w = p.head; w != kNil; w = arena_[w].next) {
      if (!eligible(p, arena_[w].cls)) {
        prev = w;
        continue;
      }
      take(p, arena_[w].cls);
      if (prev == kNil) {
        p.head = arena_[w].next;
      } else {
        arena_[prev].next = arena_[w].next;
      }
      if (p.tail == w) p.tail = prev;
      --p.nwait;
      const std::coroutine_handle<> h = arena_[w].h;
      arena_[w].next = free_;
      free_ = w;
      eng_->schedule_after(0, [h] { h.resume(); });
      return;
    }
  }

  [[nodiscard]] std::int64_t available(core::NodeId receiver) const {
    return view(receiver).count;
  }
  [[nodiscard]] std::size_t waiters(core::NodeId receiver) const {
    return view(receiver).nwait;
  }
  [[nodiscard]] std::int64_t in_use(core::NodeId receiver) const {
    return view(receiver).in_use;
  }
  [[nodiscard]] std::int64_t credits_per_edge() const { return limit_; }

  /// Credits of `receiver`'s pool a fresh request of class `cls` could
  /// take right now (reserved lanes excluded for lower classes).
  [[nodiscard]] bool may_acquire(core::NodeId receiver, Priority cls) const {
    return eligible(view(receiver), cls);
  }

  /// Pool records this bank has materialized: the edges that have
  /// carried traffic (or a fault) since construction or the last remap.
  [[nodiscard]] std::size_t pools_materialized() const {
    return pools_.size();
  }

  /// Edge records this bank holds: its touched edges plus any explicit
  /// or overlay edge. A topology-backed bank's untouched edges have none.
  [[nodiscard]] std::size_t edges_materialized() const {
    return edges_.size();
  }

  /// Times a critical acquire was satisfied from a reserved lane (the
  /// shared lane was drained; without the reservation it would have
  /// parked behind bulk).
  [[nodiscard]] std::uint64_t reserved_grants() const {
    return reserved_grants_;
  }

  /// Credit conservation: for every pool, free + in-use credits equal
  /// the per-edge limit, neither is negative, per-class holds sum to the
  /// total, reserved-lane holds are attributed to classes entitled to
  /// them, and a waiter can only be parked while every credit its class
  /// may use is taken (with no reservations: while the pool is
  /// exhausted). Only materialized pools are walked: an untouched pool is
  /// the fresh state, which satisfies every clause.
  [[nodiscard]] bool conserved() const {
    for (const Pool& p : pools_) {
      if (p.count < 0 || p.in_use < 0) return false;
      if (p.count + p.in_use != limit_) return false;
      std::int64_t cls_sum = 0;
      for (const std::int64_t c : p.cls_in_use) {
        if (c < 0) return false;
        cls_sum += c;
      }
      if (cls_sum != p.in_use) return false;
      if (p.lane_c_used < 0 || p.lane_n_used_normal < 0 ||
          p.lane_n_used_critical < 0) {
        return false;
      }
      if (p.lane_c_used + p.lane_n_used_critical >
          p.cls_in_use[static_cast<std::size_t>(Priority::kCritical)]) {
        return false;
      }
      if (p.lane_n_used_normal >
          p.cls_in_use[static_cast<std::size_t>(Priority::kNormal)]) {
        return false;
      }
      for (std::uint32_t w = p.head; w != kNil; w = arena_[w].next) {
        if (eligible(p, arena_[w].cls)) return false;
      }
    }
    return true;
  }

  /// Abort (via validate_fail) unless conserved(). Compiled into every
  /// build so the validate ctest can exercise it; `what` names the bank
  /// in the failure message.
  void check_conserved(const char* what) const {
    VTOPO_CHECK_ALWAYS(conserved(), what);
  }

  /// Quiescence: conservation plus no credit held and no waiter parked —
  /// the shutdown condition after a clean run_all().
  void check_quiescent(const char* what) const {
    check_conserved(what);
    for (const Pool& p : pools_) {
      VTOPO_CHECK_ALWAYS(p.in_use == 0 && p.nwait == 0, what);
    }
  }

  /// Total time senders on this node spent blocked on exhausted credits.
  [[nodiscard]] sim::TimeNs blocked_ns() const { return blocked_ns_; }
  void add_blocked(sim::TimeNs d) { blocked_ns_ += d; }

  /// True when no credit is held and no waiter is parked on any pool —
  /// the per-node drain condition of the reconfiguration quiesce loop.
  [[nodiscard]] bool idle() const {
    for (const Pool& p : pools_) {
      if (p.in_use != 0 || p.nwait != 0) return false;
    }
    return true;
  }

  /// Pool-set delta of one remap at this bank.
  struct RemapStats {
    std::int64_t kept = 0;     ///< pools carried over (kept_edges)
    std::int64_t added = 0;    ///< pools freshly allocated (added_edges)
    std::int64_t removed = 0;  ///< pools torn down (removed_edges)
  };

  /// Incrementally remap the bank to a new sorted out-neighbor list:
  /// kept edges keep their buffer sets, added edges start fresh at the
  /// per-edge limit, removed edges are dropped. The bank must be idle()
  /// and conserved() — the Runtime quiesces the request path first — so
  /// every pool is in its fresh state and none needs carrying over: the
  /// new edges all start untouched. The stats count edges (the model's
  /// buffer sets), not host records. Afterwards the bank's edges are
  /// exactly `new_neighbors`, held as explicit records.
  RemapStats apply_remap(const std::vector<core::NodeId>& new_neighbors) {
    return remap(new_neighbors, nullptr, /*incremental=*/true);
  }

  /// Incremental remap of a topology-backed bank onto `next`: the same
  /// edge counts as apply_remap(next.neighbors(self)), but afterwards the
  /// bank reads its edges from `next` and holds no edge record. `next`
  /// must outlive the bank's use of it — the Runtime remaps onto the
  /// topology object it then installs.
  RemapStats apply_remap(const core::VirtualTopology& next) {
    return remap(next.neighbors(self()), &next, /*incremental=*/true);
  }

  /// Ensure a (possibly non-topology) out-edge toward `receiver` exists,
  /// recording an untouched (full) edge when missing. Safe on a live
  /// bank: a parked waiter refers to its pool record, which inserting an
  /// edge record never moves. Used by the self-healing overlay, which
  /// dedicates direct buffers to a target when its dimension-order next
  /// hop is dead; conservation holds per pool (the new pool starts at
  /// the limit). Returns true when an edge was added.
  bool ensure_edge(core::NodeId receiver) {
    const std::size_t i = lower_bound(receiver);
    if (recorded(i, receiver) || topology_edge(receiver)) return false;
    edges_.insert(edges_.begin() + static_cast<std::ptrdiff_t>(i),
                  Edge{receiver});
    return true;
  }

  /// True when the bank has an edge toward `receiver` (explicit, overlay
  /// or topology). Materializes nothing.
  [[nodiscard]] bool has_edge(core::NodeId receiver) const {
    return recorded(lower_bound(receiver), receiver) ||
           topology_edge(receiver);
  }

  /// Buffer-exhaustion fault: move every currently free credit of the
  /// edge toward `receiver` into in_use (as if a misbehaving sender held
  /// them). Conservation still holds — the credits are held, not lost —
  /// so validate checks stay meaningful during the outage. Returns the
  /// number of credits seized.
  std::int64_t seize(core::NodeId receiver) {
    Pool& p = pools_[touch(receiver)];
    const std::int64_t taken = p.count;
    p.in_use += taken;
    // Seized credits are booked as shared bulk holds: the fault models a
    // misbehaving bulk sender, and shared attribution means a seize can
    // drain the reserved lanes too (that is the outage being modeled).
    p.cls_in_use[static_cast<std::size_t>(Priority::kBulk)] += taken;
    p.count = 0;
    return taken;
  }

  /// Release credits seized by a buffer-exhaustion fault, honoring the
  /// FIFO waiter hand-off exactly like normal releases.
  void restore(core::NodeId receiver, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      release(receiver, Priority::kBulk);
    }
  }

  /// Full-rebuild alternative to apply_remap(): every edge of
  /// the new neighbor list counts as reallocated, every old edge as torn
  /// down, regardless of overlap. Exists so the reconfiguration bench can
  /// price the naive strategy against the incremental one.
  RemapStats rebuild(const std::vector<core::NodeId>& new_neighbors) {
    return remap(new_neighbors, nullptr, /*incremental=*/false);
  }

  /// Full rebuild of a topology-backed bank onto `next` (see the
  /// topology overload of apply_remap()).
  RemapStats rebuild(const core::VirtualTopology& next) {
    return remap(next.neighbors(self()), &next, /*incremental=*/false);
  }

 private:
  /// The node this topology-backed bank belongs to.
  [[nodiscard]] core::NodeId self() const {
    VTOPO_CHECK_ALWAYS(topo_ != nullptr,
                       "topology remap of an explicit-edge credit bank");
    return self_;
  }

  /// Every edge the bank has: the topology's (when backed by one) plus
  /// the explicit and overlay records, ascending. Only built at remap
  /// time.
  [[nodiscard]] std::vector<core::NodeId> edge_set() const {
    std::vector<core::NodeId> recs;
    recs.reserve(edges_.size());
    for (const Edge& e : edges_) recs.push_back(e.nbr);
    if (topo_ == nullptr) return recs;
    const std::vector<core::NodeId> nbrs = topo_->neighbors(self_);
    std::vector<core::NodeId> all;
    all.reserve(nbrs.size() + recs.size());
    std::set_union(nbrs.begin(), nbrs.end(), recs.begin(), recs.end(),
                   std::back_inserter(all));
    return all;
  }

  /// Shared body of the remaps: count the edge delta from edge_set() to
  /// `new_neighbors`, then make the bank's edges `next_topo`'s (holding
  /// no record) or, without one, exactly `new_neighbors`.
  RemapStats remap(const std::vector<core::NodeId>& new_neighbors,
                   const core::VirtualTopology* next_topo,
                   bool incremental) {
    assert(std::is_sorted(new_neighbors.begin(), new_neighbors.end()));
    VTOPO_CHECK_ALWAYS(idle(), "remap of a non-idle credit bank");
    VTOPO_CHECK_ALWAYS(conserved(), "remap of an unconserved credit bank");
    const std::vector<core::NodeId> old = edge_set();
    RemapStats rs;
    if (incremental) {
      std::size_t i = 0;
      for (const core::NodeId nbr : new_neighbors) {
        while (i < old.size() && old[i] < nbr) {
          ++i;
          ++rs.removed;
        }
        if (i < old.size() && old[i] == nbr) {
          ++i;
          ++rs.kept;
        } else {
          ++rs.added;
        }
      }
      rs.removed += static_cast<std::int64_t>(old.size() - i);
    } else {
      rs.removed = static_cast<std::int64_t>(old.size());
      rs.added = static_cast<std::int64_t>(new_neighbors.size());
    }
    topo_ = next_topo;
    if (next_topo == nullptr) {
      set_edges(new_neighbors);
    } else {
      set_edges({});
    }
    return rs;
  }

  /// Replace the edge records by `neighbors`, all untouched, dropping
  /// every pool record (callers guarantee each was in its fresh state).
  void set_edges(const std::vector<core::NodeId>& neighbors) {
    edges_.clear();
    edges_.reserve(neighbors.size());
    for (const core::NodeId nbr : neighbors) edges_.push_back(Edge{nbr});
    pools_.clear();
  }

  /// Index of the first edge record not below `receiver`.
  [[nodiscard]] std::size_t lower_bound(core::NodeId receiver) const {
    return static_cast<std::size_t>(
        std::lower_bound(
            edges_.begin(), edges_.end(), receiver,
            [](const Edge& e, core::NodeId r) { return e.nbr < r; }) -
        edges_.begin());
  }

  /// True when edge record `i` (a lower_bound() result) is `receiver`'s.
  [[nodiscard]] bool recorded(std::size_t i, core::NodeId receiver) const {
    return i < edges_.size() && edges_[i].nbr == receiver;
  }

  /// True when the backing topology connects this node to `receiver`.
  [[nodiscard]] bool topology_edge(core::NodeId receiver) const {
    return topo_ != nullptr && topo_->connected(self_, receiver);
  }

  /// The edge's pool, or the fresh state when it was never touched.
  [[nodiscard]] const Pool& view(core::NodeId receiver) const {
    const std::size_t i = lower_bound(receiver);
    if (recorded(i, receiver)) {
      const std::uint32_t pool = edges_[i].pool;
      return pool == kNil ? fresh_ : pools_[pool];
    }
    assert(topology_edge(receiver) && "credit requested for a non-neighbor");
    return fresh_;
  }

  /// Index of the edge's pool record, materializing the edge record and
  /// the pool from the fresh state on first use.
  std::uint32_t touch(core::NodeId receiver) {
    const std::size_t i = lower_bound(receiver);
    if (!recorded(i, receiver)) {
      assert(topology_edge(receiver) &&
             "credit requested for a non-neighbor");
      edges_.insert(edges_.begin() + static_cast<std::ptrdiff_t>(i),
                    Edge{receiver});
    }
    Edge& e = edges_[i];
    if (e.pool == kNil) {
      e.pool = static_cast<std::uint32_t>(pools_.size());
      pools_.push_back(fresh_);
    }
    return e.pool;
  }

  void park(std::uint32_t pool, std::coroutine_handle<> h, Priority cls) {
    std::uint32_t w;
    if (free_ != kNil) {
      w = free_;
      free_ = arena_[w].next;
    } else {
      w = static_cast<std::uint32_t>(arena_.size());
      arena_.emplace_back();
    }
    arena_[w].h = h;
    arena_[w].next = kNil;
    arena_[w].cls = cls;
    Pool& p = pools_[pool];
    if (p.tail == kNil) {
      p.head = w;
    } else {
      arena_[p.tail].next = w;
    }
    p.tail = w;
    ++p.nwait;
  }

  /// Effective lane reservations, clamped so at least one shared credit
  /// always remains (a pool that is all reserve would deadlock bulk
  /// permanently instead of merely deprioritizing it). Zero when QoS is
  /// off, collapsing every lane computation to the single-lane bank.
  [[nodiscard]] std::int64_t reserve_c() const {
    if (qos_ == nullptr || !qos_->enabled) return 0;
    const auto r = static_cast<std::int64_t>(qos_->reserve_critical);
    return std::clamp<std::int64_t>(r, 0, limit_ - 1);
  }
  [[nodiscard]] std::int64_t reserve_n() const {
    if (qos_ == nullptr || !qos_->enabled) return 0;
    const auto r = static_cast<std::int64_t>(qos_->reserve_normal);
    return std::clamp<std::int64_t>(r, 0, limit_ - 1 - reserve_c());
  }

  [[nodiscard]] std::int64_t lane_c_free(const Pool& p) const {
    return std::max<std::int64_t>(0, reserve_c() - p.lane_c_used);
  }
  [[nodiscard]] std::int64_t lane_n_free(const Pool& p) const {
    return std::max<std::int64_t>(
        0, reserve_n() - (p.lane_n_used_normal + p.lane_n_used_critical));
  }
  /// May go negative transiently when reservations are raised while
  /// shared credits are held (live QoS retune); eligibility treats that
  /// as "no shared credit free", which is exactly right.
  [[nodiscard]] std::int64_t shared_free(const Pool& p) const {
    return p.count - lane_c_free(p) - lane_n_free(p);
  }

  /// Whether a fresh `cls` request may take a credit now: each class
  /// sees the free count minus every lane reserved above it.
  [[nodiscard]] bool eligible(const Pool& p, Priority cls) const {
    switch (cls) {
      case Priority::kBulk:
        return shared_free(p) > 0;
      case Priority::kNormal:
        return p.count - lane_c_free(p) > 0;
      case Priority::kCritical:
        return p.count > 0;
    }
    return false;
  }

  /// Take one credit for `cls`, attributing it shared-lane first and
  /// only falling back to the class's reserved lanes when the shared
  /// portion is drained (reserves stay free for the next emergency).
  /// Caller guarantees eligible(p, cls).
  void take(Pool& p, Priority cls) {
    const bool shared_ok = shared_free(p) > 0;
    --p.count;
    ++p.in_use;
    ++p.cls_in_use[static_cast<std::size_t>(cls)];
    if (shared_ok || cls == Priority::kBulk) return;
    if (cls == Priority::kNormal) {
      ++p.lane_n_used_normal;
      return;
    }
    if (lane_n_free(p) > 0) {
      ++p.lane_n_used_critical;
    } else {
      ++p.lane_c_used;
      ++reserved_grants_;
    }
  }

  /// Undo one `cls` hold, freeing the most-reserved lane the class may
  /// have been occupying first so reserves replenish before the shared
  /// pool does.
  void give_back(Pool& p, Priority cls) {
    ++p.count;
    --p.in_use;
    --p.cls_in_use[static_cast<std::size_t>(cls)];
    if (cls == Priority::kCritical) {
      if (p.lane_c_used > 0) {
        --p.lane_c_used;
      } else if (p.lane_n_used_critical > 0) {
        --p.lane_n_used_critical;
      }
    } else if (cls == Priority::kNormal) {
      if (p.lane_n_used_normal > 0) --p.lane_n_used_normal;
    }
  }

  sim::Engine* eng_;
  const QosParams* qos_ = nullptr;
  /// Adjacency source; null for a bank over explicit edges only.
  const core::VirtualTopology* topo_ = nullptr;
  core::NodeId self_ = core::kInvalidNode;  ///< the node topo_ is read for
  std::int64_t limit_ = 0;      ///< credits_per_edge at construction
  Pool fresh_;                  ///< an untouched pool: count == limit_
  std::vector<Edge> edges_;     ///< recorded edges, sorted by nbr
  std::vector<Pool> pools_;     ///< touched pools only
  std::vector<Waiter> arena_;   ///< shared by all pools of this bank
  std::uint32_t free_ = kNil;   ///< head of recycled arena entries
  std::uint64_t reserved_grants_ = 0;
  sim::TimeNs blocked_ns_ = 0;
};

}  // namespace vtopo::armci
