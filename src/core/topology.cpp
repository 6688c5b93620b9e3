#include "core/topology.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace vtopo::core {

const char* to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kFcg:
      return "FCG";
    case TopologyKind::kMfcg:
      return "MFCG";
    case TopologyKind::kCfcg:
      return "CFCG";
    case TopologyKind::kHypercube:
      return "Hypercube";
  }
  return "?";
}

const std::vector<TopologyKind>& all_topology_kinds() {
  static const std::vector<TopologyKind> kinds = {
      TopologyKind::kFcg, TopologyKind::kMfcg, TopologyKind::kCfcg,
      TopologyKind::kHypercube};
  return kinds;
}

VirtualTopology VirtualTopology::make(TopologyKind kind,
                                      std::int64_t num_nodes,
                                      ForwardingPolicy policy) {
  if (num_nodes <= 0) {
    throw std::invalid_argument("VirtualTopology: num_nodes <= 0");
  }
  switch (kind) {
    case TopologyKind::kFcg:
      return VirtualTopology(
          kind, Shape({static_cast<std::int32_t>(num_nodes)}), num_nodes,
          policy);
    case TopologyKind::kMfcg:
      return VirtualTopology(kind, mesh_shape_for(num_nodes), num_nodes,
                             policy);
    case TopologyKind::kCfcg:
      return VirtualTopology(kind, cube_shape_for(num_nodes), num_nodes,
                             policy);
    case TopologyKind::kHypercube:
      return VirtualTopology(kind, hypercube_shape_for(num_nodes),
                             num_nodes, policy);
  }
  throw std::invalid_argument("VirtualTopology: unknown kind");
}

VirtualTopology VirtualTopology::custom(TopologyKind kind, Shape shape,
                                        std::int64_t num_nodes,
                                        ForwardingPolicy policy) {
  if (num_nodes <= 0 || num_nodes > shape.capacity()) {
    throw std::invalid_argument(
        "VirtualTopology::custom: num_nodes out of range for shape");
  }
  return VirtualTopology(kind, std::move(shape), num_nodes, policy);
}

std::string VirtualTopology::name() const {
  return std::string(to_string(kind_)) + "(" + shape().to_string() + ")";
}

std::vector<NodeId> VirtualTopology::neighbors(NodeId node) const {
  assert(node >= 0 && node < num_nodes_);
  const Shape& sh = shape();
  const int k = sh.rank();
  std::int32_t buf[kMaxRank];
  const std::span<std::int32_t> c(buf, static_cast<std::size_t>(k));
  sh.to_coords(node, c);
  std::vector<NodeId> out;
  for (int i = 0; i < k; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const std::int32_t saved = c[ui];
    for (std::int32_t v = 0; v < sh.dim(i); ++v) {
      if (v == saved) continue;
      c[ui] = v;
      const NodeId cand = sh.to_node(c);
      if (cand < num_nodes_) out.push_back(cand);
    }
    c[ui] = saved;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t VirtualTopology::degree(NodeId node) const {
  assert(node >= 0 && node < num_nodes_);
  const Shape& sh = shape();
  const int k = sh.rank();
  std::int32_t buf[kMaxRank];
  const std::span<std::int32_t> c(buf, static_cast<std::size_t>(k));
  sh.to_coords(node, c);
  std::int64_t deg = 0;
  for (int i = 0; i < k; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const std::int32_t saved = c[ui];
    for (std::int32_t v = 0; v < sh.dim(i); ++v) {
      if (v == saved) continue;
      c[ui] = v;
      if (sh.to_node(c) < num_nodes_) ++deg;
    }
    c[ui] = saved;
  }
  return deg;
}

bool VirtualTopology::connected(NodeId a, NodeId b) const {
  assert(a >= 0 && a < num_nodes_ && b >= 0 && b < num_nodes_);
  if (a == b) return false;
  const Shape& sh = shape();
  const auto k = static_cast<std::size_t>(sh.rank());
  std::int32_t ca[kMaxRank];
  std::int32_t cb[kMaxRank];
  sh.to_coords(a, {ca, k});
  sh.to_coords(b, {cb, k});
  int diff = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (ca[i] != cb[i]) ++diff;
  }
  return diff == 1;
}

}  // namespace vtopo::core
