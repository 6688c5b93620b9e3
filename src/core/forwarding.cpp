#include "core/forwarding.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "sim/rng.hpp"

namespace vtopo::core {

const char* to_string(ForwardingPolicy p) {
  switch (p) {
    case ForwardingPolicy::kLowestDimFirst:
      return "ldf";
    case ForwardingPolicy::kHighestDimFirst:
      return "hdf";
    case ForwardingPolicy::kScrambled:
      return "scrambled";
  }
  return "?";
}

Router::Router(Shape shape, std::int64_t populated, ForwardingPolicy policy)
    : shape_(std::move(shape)),
      max_node_(static_cast<NodeId>(populated - 1)),
      policy_(policy) {
  if (populated <= 0 || populated > shape_.capacity()) {
    throw std::invalid_argument("Router: populated out of range");
  }
}

void Router::dim_order(NodeId src, std::span<int> out) const {
  const auto k = static_cast<int>(out.size());
  std::iota(out.begin(), out.end(), 0);
  switch (policy_) {
    case ForwardingPolicy::kLowestDimFirst:
      break;
    case ForwardingPolicy::kHighestDimFirst:
      std::reverse(out.begin(), out.end());
      break;
    case ForwardingPolicy::kScrambled: {
      // Deterministic per-source Fisher-Yates driven by a hash of src,
      // modelling "arbitrary" forwarding order (Sec. IV-A's failure mode).
      std::uint64_t h = 0x9e3779b97f4a7c15ULL ^
                        static_cast<std::uint64_t>(src);
      for (int i = k - 1; i > 0; --i) {
        const auto j = static_cast<int>(
            sim::splitmix64(h) % static_cast<std::uint64_t>(i + 1));
        std::swap(out[static_cast<std::size_t>(i)],
                  out[static_cast<std::size_t>(j)]);
      }
      break;
    }
  }
}

NodeId Router::next_hop(NodeId src, NodeId dst) const {
  assert(src >= 0 && src <= max_node_);
  assert(dst >= 0 && dst <= max_node_);
  if (src == dst) return dst;

  const auto k = static_cast<std::size_t>(shape_.rank());
  std::int32_t cs[kMaxRank];
  std::int32_t ct[kMaxRank];
  int order[kMaxRank];
  shape_.to_coords(src, {cs, k});
  shape_.to_coords(dst, {ct, k});
  dim_order(src, {order, k});
  for (const int i : std::span<const int>(order, k)) {
    const auto ui = static_cast<std::size_t>(i);
    if (cs[ui] == ct[ui]) continue;
    // Candidate D: replace dimension i of S with T's coordinate.
    const std::int32_t saved = cs[ui];
    cs[ui] = ct[ui];
    const NodeId d = shape_.to_node({cs, k});
    cs[ui] = saved;
    // Partial-population guard (Sec. IV-B): only forward to nodes that
    // exist. A valid candidate always exists when src, dst <= M because
    // replacing the highest differing dimension with the destination's
    // coordinate can only lower the id's most significant digit.
    if (d <= max_node_) return d;
  }
  assert(false && "LDF found no valid candidate; invariant violated");
  return kInvalidNode;
}

std::vector<NodeId> Router::route(NodeId src, NodeId dst) const {
  std::vector<NodeId> hops;
  NodeId cur = src;
  const int k = shape_.rank();
  while (cur != dst) {
    cur = next_hop(cur, dst);
    hops.push_back(cur);
    // Every hop fixes at least one coordinate to the destination's value
    // and never unfixes one, so the route length is bounded by the rank.
    if (static_cast<int>(hops.size()) > k) {
      throw std::logic_error("Router::route: hop bound exceeded");
    }
  }
  return hops;
}

}  // namespace vtopo::core
