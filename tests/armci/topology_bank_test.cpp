// Topology-backed credit banks: a bank built on a VirtualTopology reads
// its adjacency from the topology and records only the edges that carry
// traffic or are added explicitly, yet behaves exactly like a bank built
// from the node's full neighbor list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "armci/buffers.hpp"
#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "core/topology.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace vtopo::armci {
namespace {

using core::NodeId;
using core::TopologyKind;
using core::VirtualTopology;

constexpr Priority kClasses[] = {Priority::kBulk, Priority::kNormal,
                                 Priority::kCritical};

/// The four kinds at the sizes the adjacency checks sweep.
std::vector<VirtualTopology> small_topologies() {
  return {VirtualTopology::make(TopologyKind::kFcg, 12),
          VirtualTopology::make(TopologyKind::kMfcg, 30),
          VirtualTopology::make(TopologyKind::kCfcg, 27),
          VirtualTopology::make(TopologyKind::kHypercube, 16)};
}

TEST(TopologyCreditBank, HasEdgeMatchesConnectedAndMaterializesNothing) {
  for (const VirtualTopology& topo : small_topologies()) {
    sim::Engine eng;
    for (NodeId self = 0; self < topo.num_nodes(); ++self) {
      const CreditBank bank(eng, 4, &topo, self);
      for (NodeId r = 0; r < topo.num_nodes(); ++r) {
        EXPECT_EQ(bank.has_edge(r), topo.connected(self, r))
            << topo.name() << " " << self << "->" << r;
      }
      EXPECT_EQ(bank.edges_materialized(), 0u) << topo.name();
      EXPECT_EQ(bank.pools_materialized(), 0u) << topo.name();
    }
  }
}

// ------------------------------------------------------- differential

using Held = std::pair<NodeId, Priority>;

sim::Co<void> take(CreditBank& bank, NodeId nbr, Priority cls,
                   std::vector<Held>* held) {
  co_await bank.acquire(nbr, cls);
  held->emplace_back(nbr, cls);
}

void expect_same(const CreditBank& a, const CreditBank& b,
                 const std::vector<NodeId>& nbrs, int step) {
  for (const NodeId n : nbrs) {
    ASSERT_EQ(a.available(n), b.available(n)) << "step " << step;
    ASSERT_EQ(a.waiters(n), b.waiters(n)) << "step " << step;
    ASSERT_EQ(a.in_use(n), b.in_use(n)) << "step " << step;
    for (const Priority cls : kClasses) {
      ASSERT_EQ(a.may_acquire(n, cls), b.may_acquire(n, cls))
          << "step " << step;
    }
  }
  ASSERT_TRUE(a.conserved()) << "step " << step;
  ASSERT_TRUE(b.conserved()) << "step " << step;
  // Every record of the topology-backed bank is an edge that carried
  // traffic: it has no untouched or overlay record here.
  ASSERT_EQ(a.edges_materialized(), a.pools_materialized())
      << "step " << step;
}

/// Both banks, each on its own engine, driven by one seeded stream.
struct Pair {
  sim::Engine eng_a;
  sim::Engine eng_b;
  CreditBank a;
  CreditBank b;
  std::vector<Held> held_a;
  std::vector<Held> held_b;
  std::vector<std::pair<NodeId, std::int64_t>> seized;
  std::size_t max_waiters = 0;  ///< deepest edge queue the stream built

  Pair(const VirtualTopology& topo, NodeId self, const QosParams* qos)
      : a(eng_a, 4, &topo, self, qos),
        b(eng_b, 4, topo.neighbors(self), qos) {}

  void run() {
    eng_a.run();
    eng_b.run();
  }

  /// Random acquire / release / seize / restore steps, comparing both
  /// banks after each.
  void stream(const std::vector<NodeId>& nbrs, std::uint64_t seed,
              int steps) {
    sim::Rng rng(seed);
    const auto pick_nbr = [&] {
      return nbrs[static_cast<std::size_t>(rng.uniform(nbrs.size()))];
    };
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t op = rng.uniform(10);
      if (op < 5) {
        const NodeId n = pick_nbr();
        const Priority cls = kClasses[rng.uniform(3)];
        sim::spawn(take(a, n, cls, &held_a));
        sim::spawn(take(b, n, cls, &held_b));
      } else if (op < 8 && !held_a.empty()) {
        const auto i = static_cast<std::size_t>(rng.uniform(held_a.size()));
        const auto [n, cls] = held_a[i];
        held_a.erase(held_a.begin() + static_cast<std::ptrdiff_t>(i));
        held_b.erase(held_b.begin() + static_cast<std::ptrdiff_t>(i));
        a.release(n, cls);
        b.release(n, cls);
      } else if (op == 8) {
        const NodeId n = pick_nbr();
        const std::int64_t got = a.seize(n);
        ASSERT_EQ(got, b.seize(n)) << "step " << step;
        seized.emplace_back(n, got);
      } else if (!seized.empty()) {
        const auto i = static_cast<std::size_t>(rng.uniform(seized.size()));
        const auto [n, count] = seized[i];
        seized.erase(seized.begin() + static_cast<std::ptrdiff_t>(i));
        a.restore(n, count);
        b.restore(n, count);
      }
      run();
      ASSERT_EQ(held_a, held_b) << "step " << step;
      expect_same(a, b, nbrs, step);
      for (const NodeId n : nbrs) {
        max_waiters = std::max(max_waiters, a.waiters(n));
      }
    }
  }

  /// Restore every seizure and release every hold until both banks are
  /// quiescent.
  void drain() {
    while (!held_a.empty() || !seized.empty()) {
      for (const auto& [n, count] : seized) {
        a.restore(n, count);
        b.restore(n, count);
      }
      seized.clear();
      run();
      std::vector<Held> held;
      held.swap(held_a);
      held_b.clear();
      for (const auto& [n, cls] : held) {
        a.release(n, cls);
        b.release(n, cls);
      }
      run();
      ASSERT_EQ(held_a, held_b);
    }
    a.check_quiescent("topology-backed bank after drain");
    b.check_quiescent("explicit bank after drain");
  }
};

void expect_same_stats(const CreditBank::RemapStats& x,
                       const CreditBank::RemapStats& y) {
  EXPECT_EQ(x.kept, y.kept);
  EXPECT_EQ(x.added, y.added);
  EXPECT_EQ(x.removed, y.removed);
}

/// A node `self` is not connected to under `topo`, or -1.
NodeId non_neighbor(const VirtualTopology& topo, NodeId self) {
  for (NodeId r = 0; r < topo.num_nodes(); ++r) {
    if (r != self && !topo.connected(self, r)) return r;
  }
  return -1;
}

/// Give both banks one overlay edge toward a node `self` is not connected
/// to under `topo`. Under FCG every node is a neighbor, so ensure_edge()
/// must add nothing instead.
void add_overlay(Pair& p, const VirtualTopology& topo, NodeId self) {
  const NodeId x = non_neighbor(topo, self);
  if (x < 0) {
    const NodeId nbr = self == 0 ? 1 : 0;
    EXPECT_FALSE(p.a.ensure_edge(nbr));
    EXPECT_FALSE(p.b.ensure_edge(nbr));
    return;
  }
  EXPECT_FALSE(p.a.has_edge(x));
  EXPECT_TRUE(p.a.ensure_edge(x));
  EXPECT_TRUE(p.b.ensure_edge(x));
  EXPECT_TRUE(p.a.has_edge(x));
  EXPECT_TRUE(p.b.has_edge(x));
  EXPECT_EQ(p.a.edges_materialized(), p.a.pools_materialized() + 1);
}

struct RemapCase {
  TopologyKind from;
  TopologyKind to;
  std::int64_t nodes;
};

TEST(TopologyCreditBank, MatchesExplicitBankUnderRandomStreamsAndRemaps) {
  const RemapCase cases[] = {
      {TopologyKind::kFcg, TopologyKind::kMfcg, 12},
      {TopologyKind::kMfcg, TopologyKind::kCfcg, 30},
      {TopologyKind::kCfcg, TopologyKind::kFcg, 27},
      {TopologyKind::kHypercube, TopologyKind::kMfcg, 16}};
  std::uint64_t seed = 1;
  for (const RemapCase& c : cases) {
    const VirtualTopology t1 = VirtualTopology::make(c.from, c.nodes);
    const VirtualTopology t2 = VirtualTopology::make(c.to, c.nodes);
    for (const bool qos_on : {false, true}) {
      QosParams qos;
      qos.enabled = qos_on;
      qos.reserve_critical = 1;
      qos.reserve_normal = 1;
      for (const NodeId self : {NodeId{0}, static_cast<NodeId>(c.nodes / 2),
                                static_cast<NodeId>(c.nodes - 1)}) {
        for (const bool overlay : {false, true}) {
          SCOPED_TRACE(t1.name() + " -> " + t2.name() + " self " +
                       std::to_string(self) + (qos_on ? " qos" : "") +
                       (overlay ? " overlay" : ""));
          Pair p(t1, self, &qos);
          p.stream(t1.neighbors(self), seed++, 300);
          EXPECT_GT(p.max_waiters, 0u) << "the stream never parked";
          p.drain();
          if (overlay) add_overlay(p, t1, self);
          expect_same_stats(p.a.apply_remap(t2),
                            p.b.apply_remap(t2.neighbors(self)));
          EXPECT_EQ(p.a.edges_materialized(), 0u);
          for (NodeId r = 0; r < c.nodes; ++r) {
            EXPECT_EQ(p.a.has_edge(r), t2.connected(self, r)) << r;
            EXPECT_EQ(p.a.has_edge(r), p.b.has_edge(r)) << r;
          }
          // The remapped banks keep agreeing on the new edges.
          p.stream(t2.neighbors(self), seed++, 100);
          p.drain();
          if (overlay) add_overlay(p, t2, self);
          expect_same_stats(p.a.rebuild(t1), p.b.rebuild(t1.neighbors(self)));
          EXPECT_EQ(p.a.edges_materialized(), 0u);
          EXPECT_EQ(p.a.pools_materialized(), 0u);
        }
      }
    }
  }
}

#ifndef NDEBUG

TEST(TopologyCreditBankDeath, AcquireTowardNonNeighborAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const VirtualTopology topo = VirtualTopology::make(TopologyKind::kMfcg, 30);
  const NodeId far = non_neighbor(topo, 0);
  ASSERT_GE(far, 0);
  EXPECT_DEATH(
      {
        sim::Engine eng;
        CreditBank bank(eng, 4, &topo, 0);
        (void)bank.acquire(far);
      },
      "credit requested for a non-neighbor");
}

#endif

// --------------------------------------------------------------- Runtime

/// One-counter flood: every rank fetch-&-adds rank 0's counter `ops`
/// times; returns the edge records held over all banks.
std::size_t flood_edges(Runtime& rt, int ops) {
  const std::int64_t off = rt.memory().alloc_all(8);
  rt.spawn_all([off, ops](Proc& p) -> sim::Co<void> {
    for (int k = 0; k < ops; ++k) co_await p.fetch_add(GAddr{0, off}, 1);
  });
  rt.run_all();
  rt.validate_quiescent();
  EXPECT_EQ(rt.memory().read_i64(GAddr{0, off}), ops * rt.num_procs());
  std::size_t edges = 0;
  for (NodeId n = 0; n < rt.num_nodes(); ++n) {
    EXPECT_TRUE(rt.credits(n).conserved()) << "node " << n;
    edges += rt.credits(n).edges_materialized();
  }
  return edges;
}

Runtime::Config flood_cfg(std::int64_t nodes, Backend backend) {
  Runtime::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = 2;
  cfg.topology = TopologyKind::kMfcg;
  cfg.backend = backend;
  return cfg;
}

TEST(TopologyRuntime, OneCounterFloodRecordsAtMostTwoEdgesPerNode) {
  constexpr std::int64_t kNodes = 1024;
  Runtime rt(flood_cfg(kNodes, Backend::kSim));
  const std::size_t edges = flood_edges(rt, 2);
  EXPECT_GT(edges, 0u);
  EXPECT_LE(edges, static_cast<std::size_t>(2 * kNodes));
}

TEST(TopologyRuntime, ThreadsBackendFloodRecordsOnOwningWorkers) {
  // Edge records are inserted only by the bank's own node worker: the
  // TSan threads battery runs this test with the race detector watching.
  constexpr std::int64_t kNodes = 16;
  Runtime rt(flood_cfg(kNodes, Backend::kThreads));
  const std::size_t edges = flood_edges(rt, 3);
  EXPECT_GT(edges, 0u);
  EXPECT_LE(edges, static_cast<std::size_t>(2 * kNodes));
}

sim::Co<void> reconfigure_at(Runtime* rt, sim::TimeNs at, TopologyKind to,
                             bool* switched) {
  co_await sim::Sleep(rt->engine(), at);
  *switched = co_await rt->reconfigure(to, ReconfigMode::kIncremental);
}

TEST(TopologyRuntime, BanksFollowTheInstalledTopologyAcrossReconfiguration) {
  // Floods before and after a live MFCG -> hypercube remap: afterwards
  // every bank reads the installed topology's adjacency and still holds
  // only the records of edges the second flood touched.
  sim::Engine eng;
  Runtime::Config cfg = flood_cfg(16, Backend::kSim);
  Runtime rt(eng, cfg);
  const std::int64_t off = rt.memory().alloc_all(8);
  rt.spawn_all([off](Proc& p) -> sim::Co<void> {
    for (int k = 0; k < 2; ++k) co_await p.fetch_add(GAddr{0, off}, 1);
    co_await p.compute(sim::ms(2));
    for (int k = 0; k < 2; ++k) co_await p.fetch_add(GAddr{0, off}, 1);
  });
  bool switched = false;
  rt.spawn_task(
      reconfigure_at(&rt, sim::ms(1), TopologyKind::kHypercube, &switched));
  rt.run_all();
  rt.validate_quiescent();
  ASSERT_TRUE(switched);
  ASSERT_EQ(rt.topology().kind(), TopologyKind::kHypercube);
  EXPECT_EQ(rt.memory().read_i64(GAddr{0, off}), 4 * rt.num_procs());
  for (NodeId n = 0; n < rt.num_nodes(); ++n) {
    for (NodeId r = 0; r < rt.num_nodes(); ++r) {
      EXPECT_EQ(rt.credits(n).has_edge(r), rt.topology().connected(n, r))
          << n << "->" << r;
    }
    EXPECT_EQ(rt.credits(n).edges_materialized(),
              rt.credits(n).pools_materialized())
        << "node " << n;
  }
}

}  // namespace
}  // namespace vtopo::armci
