// Request-forwarding route computation for virtual topologies.
//
// Implements the paper's Lowest-Dimension-First (LDF) algorithm
// (Algorithm 1) together with the partial-population extension of
// Sec. IV-B: a hop is taken only when the candidate next node D exists,
// i.e. D <= M where M is the highest populated node id. Two alternative
// dimension orders are provided for ablation studies: highest-first
// (also monotone, hence also deadlock-free) and a per-node scrambled
// order (NOT deadlock-free; see core/dependency_graph.hpp).
#pragma once

#include <span>
#include <vector>

#include "core/coords.hpp"

namespace vtopo::core {

/// Order in which dimensions are considered when choosing the next hop.
enum class ForwardingPolicy {
  kLowestDimFirst,   ///< The paper's LDF (Algorithm 1 + D<=M guard).
  kHighestDimFirst,  ///< Monotone decreasing order; deadlock-free too.
  kScrambled,        ///< Per-source pseudo-random order; may deadlock.
};

[[nodiscard]] const char* to_string(ForwardingPolicy p);

/// Computes next hops and full routes on a (possibly partially populated)
/// k-dimensional fully-connected-per-dimension grid.
class Router {
 public:
  /// `populated` is the number of nodes actually present (ids 0..M with
  /// M = populated-1); must satisfy 0 < populated <= shape.capacity().
  Router(Shape shape, std::int64_t populated,
         ForwardingPolicy policy = ForwardingPolicy::kLowestDimFirst);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t populated() const { return max_node_ + 1; }
  [[nodiscard]] ForwardingPolicy policy() const { return policy_; }

  /// Next node a request at `src` is sent to on its way to `dst`.
  /// Returns dst itself when the two are directly connected (or equal).
  [[nodiscard]] NodeId next_hop(NodeId src, NodeId dst) const;

  /// Full hop list from src to dst, excluding src and including dst.
  /// route(v, v) is empty. Length is bounded by shape().rank().
  [[nodiscard]] std::vector<NodeId> route(NodeId src, NodeId dst) const;

  /// Upper bound on the number of *forwarding* steps (hops minus the
  /// final delivery) between any two nodes: rank-1 for full grids.
  [[nodiscard]] int max_forwards() const { return shape_.rank() - 1; }

 private:
  /// Fill `out` (size rank()) with the dimension visiting order at src.
  void dim_order(NodeId src, std::span<int> out) const;

  Shape shape_;
  NodeId max_node_;
  ForwardingPolicy policy_;
};

}  // namespace vtopo::core
