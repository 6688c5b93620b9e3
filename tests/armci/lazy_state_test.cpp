// Per-node state sized by traffic: CreditBank pools materialize on first
// use (an untouched edge reads as a full pool) and QosQueue's per-class
// FIFOs stay exactly FIFO across their head-index compaction.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "armci/buffers.hpp"
#include "armci/proc.hpp"
#include "armci/qos_queue.hpp"
#include "armci/runtime.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace vtopo::armci {
namespace {

constexpr Priority kClasses[] = {Priority::kBulk, Priority::kNormal,
                                 Priority::kCritical};

void expect_full(const CreditBank& bank, core::NodeId nbr) {
  EXPECT_EQ(bank.available(nbr), bank.credits_per_edge()) << "edge " << nbr;
  EXPECT_EQ(bank.waiters(nbr), 0u) << "edge " << nbr;
  EXPECT_EQ(bank.in_use(nbr), 0) << "edge " << nbr;
  for (const Priority cls : kClasses) {
    EXPECT_TRUE(bank.may_acquire(nbr, cls)) << "edge " << nbr;
  }
}

sim::Co<void> take(CreditBank& bank, core::NodeId nbr, int* got) {
  co_await bank.acquire(nbr);
  ++*got;
}

// ------------------------------------------------------------ CreditBank

TEST(LazyCreditBank, UntouchedEdgeReadsFull) {
  sim::Engine eng;
  CreditBank bank(eng, 4, {1, 2, 3});
  for (const core::NodeId n : {1, 2, 3}) expect_full(bank, n);
  EXPECT_EQ(bank.pools_materialized(), 0u);
  EXPECT_TRUE(bank.idle());
  EXPECT_TRUE(bank.conserved());
  bank.check_quiescent("untouched bank");
}

TEST(LazyCreditBank, UntouchedEdgeReadsFullWithQosReservations) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  qos.reserve_critical = 1;
  qos.reserve_normal = 1;
  CreditBank bank(eng, 4, {1, 2}, &qos);
  for (const core::NodeId n : {1, 2}) expect_full(bank, n);
  EXPECT_EQ(bank.pools_materialized(), 0u);
  bank.check_quiescent("untouched reserved bank");
}

TEST(LazyCreditBank, ThousandNeighborsTwoTouchedHoldTwoPools) {
  sim::Engine eng;
  std::vector<core::NodeId> nbrs;
  for (core::NodeId n = 0; n < 1000; ++n) nbrs.push_back(2 * n + 1);
  CreditBank bank(eng, 2, nbrs);
  int got = 0;
  sim::spawn(take(bank, 7, &got));
  sim::spawn(take(bank, 1999, &got));
  eng.run();
  ASSERT_EQ(got, 2);
  // Reading every edge, touched or not, materializes nothing more.
  for (const core::NodeId n : nbrs) {
    EXPECT_EQ(bank.available(n), n == 7 || n == 1999 ? 1 : 2);
  }
  EXPECT_EQ(bank.pools_materialized(), 2u);
  bank.release(7);
  bank.release(1999);
  EXPECT_EQ(bank.pools_materialized(), 2u);
  bank.check_quiescent("two touched of a thousand");
}

TEST(LazyCreditBank, SeizeRestoreOnPartiallyTouchedBank) {
  sim::Engine eng;
  CreditBank bank(eng, 3, {1, 2, 3});
  int got = 0;
  sim::spawn(take(bank, 1, &got));
  eng.run();
  ASSERT_EQ(got, 1);
  // Seizing an untouched edge takes the full limit; seizing the touched
  // one takes what is free.
  EXPECT_EQ(bank.seize(2), 3);
  EXPECT_EQ(bank.seize(1), 2);
  EXPECT_EQ(bank.available(2), 0);
  EXPECT_EQ(bank.in_use(2), 3);
  EXPECT_EQ(bank.available(1), 0);
  EXPECT_EQ(bank.in_use(1), 3);
  expect_full(bank, 3);
  EXPECT_EQ(bank.pools_materialized(), 2u);
  EXPECT_TRUE(bank.conserved());
  EXPECT_FALSE(bank.idle());
  // A sender parked behind the seized edge gets the first restored
  // credit, exactly as on a normal release.
  sim::spawn(take(bank, 2, &got));
  eng.run();
  EXPECT_EQ(bank.waiters(2), 1u);
  bank.restore(2, 3);
  eng.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(bank.available(2), 2);
  bank.release(2);
  bank.restore(1, 2);
  bank.release(1);
  bank.check_quiescent("after seize/restore");
}

TEST(LazyCreditBank, EnsureEdgeKeepsParkedWaiterOnPartiallyTouchedBank) {
  sim::Engine eng;
  CreditBank bank(eng, 1, {5, 9});
  int got = 0;
  sim::spawn(take(bank, 5, &got));
  sim::spawn(take(bank, 5, &got));  // parks: the edge holds one credit
  eng.run();
  ASSERT_EQ(got, 1);
  ASSERT_EQ(bank.waiters(5), 1u);
  // Inserting edges before and after the parked one shifts the edge list
  // but not the pool record the waiter sits on.
  EXPECT_TRUE(bank.ensure_edge(2));
  EXPECT_TRUE(bank.ensure_edge(7));
  EXPECT_FALSE(bank.ensure_edge(9));
  EXPECT_TRUE(bank.has_edge(2));
  expect_full(bank, 2);
  expect_full(bank, 7);
  EXPECT_EQ(bank.pools_materialized(), 1u);
  EXPECT_TRUE(bank.conserved());
  bank.release(5);
  eng.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(bank.waiters(5), 0u);
  bank.release(5);
  bank.check_quiescent("after ensure_edge");
}

TEST(LazyCreditBank, RemapsOnPartiallyTouchedBankCountEdges) {
  sim::Engine eng;
  CreditBank bank(eng, 4, {1, 2, 3, 4});
  int got = 0;
  sim::spawn(take(bank, 1, &got));
  sim::spawn(take(bank, 3, &got));
  eng.run();
  ASSERT_EQ(got, 2);
  bank.release(1);
  bank.release(3);
  ASSERT_EQ(bank.pools_materialized(), 2u);

  const CreditBank::RemapStats inc = bank.apply_remap({2, 3, 5});
  EXPECT_EQ(inc.kept, 2);
  EXPECT_EQ(inc.added, 1);
  EXPECT_EQ(inc.removed, 2);
  EXPECT_FALSE(bank.has_edge(1));
  for (const core::NodeId n : {2, 3, 5}) expect_full(bank, n);
  EXPECT_EQ(bank.pools_materialized(), 0u);
  bank.check_quiescent("after apply_remap");

  sim::spawn(take(bank, 5, &got));
  eng.run();
  bank.release(5);
  const CreditBank::RemapStats full = bank.rebuild({3, 6});
  EXPECT_EQ(full.kept, 0);
  EXPECT_EQ(full.added, 2);
  EXPECT_EQ(full.removed, 3);
  for (const core::NodeId n : {3, 6}) expect_full(bank, n);
  EXPECT_EQ(bank.pools_materialized(), 0u);
  bank.check_quiescent("after rebuild");
}

// --------------------------------------------------------------- Runtime

/// One-counter flood: every rank fetch-&-adds rank 0's counter
/// `ops` times; returns the pool records materialized over all banks.
std::size_t flood_pools(Runtime& rt, int ops) {
  const std::int64_t off = rt.memory().alloc_all(8);
  rt.spawn_all([off, ops](Proc& p) -> sim::Co<void> {
    for (int k = 0; k < ops; ++k) co_await p.fetch_add(GAddr{0, off}, 1);
  });
  rt.run_all();
  rt.validate_quiescent();
  EXPECT_EQ(rt.memory().read_i64(GAddr{0, off}), ops * rt.num_procs());
  std::size_t pools = 0;
  for (core::NodeId n = 0; n < rt.num_nodes(); ++n) {
    EXPECT_TRUE(rt.credits(n).conserved()) << "node " << n;
    pools += rt.credits(n).pools_materialized();
  }
  return pools;
}

Runtime::Config flood_cfg(std::int64_t nodes, Backend backend) {
  Runtime::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = 2;
  cfg.topology = core::TopologyKind::kMfcg;
  cfg.backend = backend;
  return cfg;
}

TEST(LazyRuntime, OneCounterFloodTouchesAtMostTwoPoolsPerNode) {
  constexpr std::int64_t kNodes = 1024;
  Runtime rt(flood_cfg(kNodes, Backend::kSim));
  const std::size_t pools = flood_pools(rt, 2);
  EXPECT_GT(pools, 0u);
  EXPECT_LE(pools, static_cast<std::size_t>(2 * kNodes));
}

TEST(LazyRuntime, ThreadsBackendFloodMaterializesOnOwningWorkers) {
  // Each bank is materialized only by its node's worker (acquires run
  // there, and acks and lease reclaims are posted there): the TSan
  // threads battery runs this test with the race detector watching.
  constexpr std::int64_t kNodes = 16;
  Runtime rt(flood_cfg(kNodes, Backend::kThreads));
  const std::size_t pools = flood_pools(rt, 3);
  EXPECT_GT(pools, 0u);
  EXPECT_LE(pools, static_cast<std::size_t>(2 * kNodes));
}

// -------------------------------------------------------------- QosQueue

struct Model {
  std::deque<std::uint64_t> global;  ///< push order across classes
  std::deque<std::uint64_t> cls[kNumPriorities];
};

/// Random pushes and pops against a std::deque reference model. With
/// QoS off the queue must pop in global push order; with it on, each
/// class must still pop FIFO. Pushes come in bursts so the FIFOs grow,
/// half-drain (compacting) and fully drain many times.
sim::Co<void> qos_property(QosQueue& q, RequestPool& pool, bool qos_on,
                           std::uint64_t seed, std::uint64_t* popped) {
  sim::Rng rng(seed);
  Model m;
  std::uint64_t next_id = 0;
  for (int round = 0; round < 200; ++round) {
    const std::int64_t pushes = rng.uniform_int(0, 40);
    const std::uint64_t mix = rng.uniform(4);  // 3 = all classes
    for (std::int64_t i = 0; i < pushes; ++i) {
      const auto c = static_cast<std::size_t>(mix < 3 ? mix : rng.uniform(3));
      RequestPtr r = pool.acquire();
      r->id = next_id;
      r->cls = kClasses[c];
      r->enqueued_ns = 0;
      q.push(std::move(r));
      m.global.push_back(next_id);
      m.cls[c].push_back(next_id);
      ++next_id;
    }
    const std::int64_t pops =
        rng.uniform_int(0, static_cast<std::int64_t>(q.size()));
    for (std::int64_t i = 0; i < pops; ++i) {
      RequestPtr r = co_await q.pop();
      const auto c = static_cast<std::size_t>(r->cls);
      EXPECT_EQ(r->id, m.cls[c].front()) << "seed " << seed;
      m.cls[c].pop_front();
      if (!qos_on) {
        EXPECT_EQ(r->id, m.global.front()) << "seed " << seed;
        m.global.pop_front();
      }
      ++*popped;
    }
    EXPECT_EQ(q.size(),
              m.cls[0].size() + m.cls[1].size() + m.cls[2].size());
  }
  q.poison();
  for (;;) {
    RequestPtr r = co_await q.pop();
    if (!r) break;
    const auto c = static_cast<std::size_t>(r->cls);
    EXPECT_EQ(r->id, m.cls[c].front()) << "seed " << seed;
    m.cls[c].pop_front();
    ++*popped;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(*popped, next_id);
}

TEST(LazyQosQueue, RandomClassMixesMatchDequeModel) {
  for (const bool qos_on : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      sim::Engine eng;
      QosParams qos;
      qos.enabled = qos_on;
      QosQueue q(eng, &qos);
      RequestPool pool;
      std::uint64_t popped = 0;
      sim::spawn(qos_property(q, pool, qos_on, seed, &popped));
      eng.run();
      EXPECT_GT(popped, 0u) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace vtopo::armci
