// Properties of LDF forwarding (paper Algorithm 1 + Sec. IV-B guard).
#include "core/forwarding.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/topology.hpp"

namespace vtopo::core {
namespace {

TEST(Ldf, DirectWhenConnected) {
  Router r(Shape({3, 3}), 9);
  // (0,0) -> (2,0): same row, direct.
  EXPECT_EQ(r.next_hop(0, 2), 2);
  // (0,0) -> (0,2) == node 6: same column, direct.
  EXPECT_EQ(r.next_hop(0, 6), 6);
}

TEST(Ldf, LowestDimensionChosenFirst) {
  Router r(Shape({3, 3}), 9);
  // (0,0) -> (2,2) == node 8: fix X first => go to (2,0) == node 2.
  EXPECT_EQ(r.next_hop(0, 8), 2);
  EXPECT_EQ(r.route(0, 8), (std::vector<NodeId>{2, 8}));
}

TEST(Ldf, ThreeDimRouteOrder) {
  Router r(Shape({3, 3, 3}), 27);
  // (0,0,0) -> (2,2,2) == 26: X, then Y, then Z.
  // Hops: (2,0,0)=2, (2,2,0)=8, (2,2,2)=26.
  EXPECT_EQ(r.route(0, 26), (std::vector<NodeId>{2, 8, 26}));
}

TEST(Ldf, RoutesOnRankTwentyHypercube) {
  // 2^20 nodes: rank 20, past the old 16-entry coordinate buffers. LDF
  // flips the lowest differing bit first.
  Router r(hypercube_shape_for(1 << 20), 1 << 20);
  const NodeId last = (1 << 20) - 1;
  EXPECT_EQ(r.next_hop(0, last), 1);
  const std::vector<NodeId> hops = r.route(0, last);
  ASSERT_EQ(hops.size(), 20u);
  EXPECT_EQ(hops.back(), last);
}

TEST(Ldf, RouteToSelfIsEmpty) {
  Router r(Shape({4, 4}), 16);
  for (NodeId v = 0; v < 16; ++v) EXPECT_TRUE(r.route(v, v).empty());
}

TEST(Ldf, PaperFigure4aTree) {
  // 3x3 MFCG rooted at 0: nodes 4,5,7,8 (off-row, off-column) need one
  // forward; LDF forwards via the X dimension first, i.e. via column 0.
  Router r(Shape({3, 3}), 9);
  EXPECT_EQ(r.next_hop(4, 0), 3);  // (1,1) -> (0,1)
  EXPECT_EQ(r.next_hop(5, 0), 3);  // (2,1) -> (0,1)
  EXPECT_EQ(r.next_hop(7, 0), 6);  // (1,2) -> (0,2)
  EXPECT_EQ(r.next_hop(8, 0), 6);  // (2,2) -> (0,2)
}

TEST(Ldf, PartialPopulationGuardReroutes) {
  // 3x3 shape with only 8 nodes: M = 7 = (1,2). From (1,2)=7 to (2,0)=2
  // the lowest-dimension candidate (2,2)=8 does not exist; LDF must fix
  // dimension 1 first: (1,0)=1, then (2,0)=2.
  Router r(Shape({3, 3}), 8);
  EXPECT_EQ(r.next_hop(7, 2), 1);
  EXPECT_EQ(r.route(7, 2), (std::vector<NodeId>{1, 2}));
}

TEST(Ldf, GuardNeverRoutesThroughMissingNodes) {
  for (std::int64_t n = 2; n <= 150; ++n) {
    const Shape shape = mesh_shape_for(n);
    Router r(shape, n);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        for (const NodeId hop : r.route(s, t)) {
          ASSERT_GE(hop, 0);
          ASSERT_LT(hop, n) << "route " << s << "->" << t
                            << " through missing node on n=" << n;
        }
      }
    }
  }
}

TEST(Ldf, RejectsBadPopulation) {
  EXPECT_THROW(Router(Shape({3, 3}), 0), std::invalid_argument);
  EXPECT_THROW(Router(Shape({3, 3}), 10), std::invalid_argument);
}

TEST(ForwardingPolicy, Names) {
  EXPECT_STREQ(to_string(ForwardingPolicy::kLowestDimFirst), "ldf");
  EXPECT_STREQ(to_string(ForwardingPolicy::kHighestDimFirst), "hdf");
  EXPECT_STREQ(to_string(ForwardingPolicy::kScrambled), "scrambled");
}

TEST(Hdf, HighestDimensionChosenFirst) {
  Router r(Shape({3, 3}), 9, ForwardingPolicy::kHighestDimFirst);
  // (0,0) -> (2,2)=8: fix Y first => (0,2)=6.
  EXPECT_EQ(r.next_hop(0, 8), 6);
}

TEST(Scrambled, StillReachesDestination) {
  Router r(Shape({4, 4, 4}), 64, ForwardingPolicy::kScrambled);
  for (NodeId s = 0; s < 64; ++s) {
    for (NodeId t = 0; t < 64; ++t) {
      const auto route = r.route(s, t);
      if (s == t) {
        EXPECT_TRUE(route.empty());
      } else {
        EXPECT_EQ(route.back(), t);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Exhaustive route properties across kinds, sizes, and policies.
// ---------------------------------------------------------------------

struct RouteCase {
  TopologyKind kind;
  std::int64_t n;
  ForwardingPolicy policy;
};

class RouteProperties : public ::testing::TestWithParam<RouteCase> {};

TEST_P(RouteProperties, AllPairsReachWithinRankHops) {
  const auto [kind, n, policy] = GetParam();
  const auto topo = VirtualTopology::make(kind, n, policy);
  const int k = topo.shape().rank();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      const auto route = topo.route(s, t);
      if (s == t) {
        EXPECT_TRUE(route.empty());
        continue;
      }
      ASSERT_FALSE(route.empty());
      EXPECT_EQ(route.back(), t);
      EXPECT_LE(static_cast<int>(route.size()), k);
      // Each consecutive hop pair must be a direct edge.
      NodeId prev = s;
      for (const NodeId hop : route) {
        EXPECT_TRUE(topo.connected(prev, hop))
            << prev << "->" << hop << " not an edge (" << s << "->" << t
            << ")";
        prev = hop;
      }
    }
  }
}

TEST_P(RouteProperties, LdfRoutesAreMonotoneInDimensionOnFullGrids) {
  const auto [kind, n, policy] = GetParam();
  if (policy != ForwardingPolicy::kLowestDimFirst) GTEST_SKIP();
  const auto topo = VirtualTopology::make(kind, n, policy);
  const Shape& sh = topo.shape();
  if (sh.capacity() != n) GTEST_SKIP() << "partial: guard may reorder";
  const int k = sh.rank();
  std::vector<std::int32_t> a(static_cast<std::size_t>(k));
  std::vector<std::int32_t> b(static_cast<std::size_t>(k));
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      NodeId prev = s;
      int last_dim = -1;
      for (const NodeId hop : topo.route(s, t)) {
        sh.to_coords(prev, a);
        sh.to_coords(hop, b);
        int dim = -1;
        for (int d = 0; d < k; ++d) {
          if (a[static_cast<std::size_t>(d)] !=
              b[static_cast<std::size_t>(d)]) {
            dim = d;
          }
        }
        ASSERT_GE(dim, 0);
        EXPECT_GT(dim, last_dim) << "non-monotone dimension order";
        last_dim = dim;
        prev = hop;
      }
    }
  }
}

TEST_P(RouteProperties, NextHopConsistentWithRoute) {
  const auto [kind, n, policy] = GetParam();
  const auto topo = VirtualTopology::make(kind, n, policy);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      EXPECT_EQ(topo.route(s, t).front(), topo.next_hop(s, t));
    }
  }
}

std::vector<RouteCase> route_cases() {
  std::vector<RouteCase> cases;
  const ForwardingPolicy policies[] = {ForwardingPolicy::kLowestDimFirst,
                                       ForwardingPolicy::kHighestDimFirst,
                                       ForwardingPolicy::kScrambled};
  for (const auto policy : policies) {
    for (std::int64_t n : {2, 3, 5, 8, 9, 13, 16, 27, 30, 47, 64}) {
      cases.push_back({TopologyKind::kFcg, n, policy});
      cases.push_back({TopologyKind::kMfcg, n, policy});
      cases.push_back({TopologyKind::kCfcg, n, policy});
      if (is_power_of_two(n)) {
        cases.push_back({TopologyKind::kHypercube, n, policy});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RouteProperties, ::testing::ValuesIn(route_cases()),
    [](const ::testing::TestParamInfo<RouteCase>& info) {
      return std::string(to_string(info.param.kind)) + "_" +
             std::to_string(info.param.n) + "_" +
             to_string(info.param.policy);
    });

}  // namespace
}  // namespace vtopo::core
