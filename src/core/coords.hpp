// Mixed-radix coordinate math for virtual topologies.
//
// A virtual topology places node ids 0..N-1 into a k-dimensional grid.
// Dimension 0 is the *lowest* (fastest-varying) dimension:
//   node = c0 + X0*(c1 + X1*(c2 + ...))
// which is exactly the paper's "lower order dimensions are first populated
// with available nodes; only the highest dimension may be partially
// populated" packing (Sec. IV-B).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vtopo::core {

/// Identifier of a virtual-topology vertex (one physical node: its
/// processes plus its communication helper thread).
using NodeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// Largest grid rank a Shape accepts. Per-call coordinate buffers are
/// stack arrays of this size; 32 covers the hypercube of any NodeId
/// range (2^31 nodes).
inline constexpr int kMaxRank = 32;

/// Extents of a k-dimensional grid (1 <= k <= kMaxRank), dimension 0
/// fastest-varying.
class Shape {
 public:
  Shape() = default;
  explicit Shape(std::vector<std::int32_t> dims);

  [[nodiscard]] int rank() const { return static_cast<int>(dims_.size()); }
  [[nodiscard]] std::int32_t dim(int i) const {
    return dims_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::vector<std::int32_t>& dims() const {
    return dims_;
  }
  /// Product of all extents: number of slots (>= populated node count).
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }

  /// Decompose node id into coordinates; out.size() must equal rank().
  void to_coords(NodeId node, std::span<std::int32_t> out) const;
  /// Compose a node id from coordinates (caller guarantees in-range
  /// coordinates; the id may exceed the populated node count).
  [[nodiscard]] NodeId to_node(std::span<const std::int32_t> coords) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.dims_ == b.dims_;
  }

 private:
  std::vector<std::int32_t> dims_;
  std::int64_t capacity_ = 0;
};

/// Shape of a Meshed-FCG for `n` nodes: the most-square X x Y mesh with
/// X >= Y, lower dimension full, highest possibly partial (X*Y >= n and
/// X*(Y-1) < n).
[[nodiscard]] Shape mesh_shape_for(std::int64_t n);

/// Shape of a Cubic-FCG for `n` nodes: near-cubic X x Y x Z.
[[nodiscard]] Shape cube_shape_for(std::int64_t n);

/// Shape of a hypercube for `n` nodes (n must be a power of two):
/// log2(n) dimensions of extent 2.
[[nodiscard]] Shape hypercube_shape_for(std::int64_t n);

/// True if v is a power of two (v > 0).
[[nodiscard]] constexpr bool is_power_of_two(std::int64_t v) {
  return v > 0 && (v & (v - 1)) == 0;
}

/// Integer floor(sqrt(n)) without floating-point rounding hazards.
[[nodiscard]] std::int64_t isqrt(std::int64_t n);
/// Integer floor(cbrt(n)).
[[nodiscard]] std::int64_t icbrt(std::int64_t n);

}  // namespace vtopo::core
