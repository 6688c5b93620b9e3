#include "core/coords.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace vtopo::core {

Shape::Shape(std::vector<std::int32_t> dims) : dims_(std::move(dims)) {
  if (dims_.empty()) throw std::invalid_argument("Shape: empty dims");
  if (dims_.size() > static_cast<std::size_t>(kMaxRank)) {
    throw std::invalid_argument("Shape: rank beyond kMaxRank");
  }
  capacity_ = 1;
  for (auto d : dims_) {
    if (d <= 0) throw std::invalid_argument("Shape: non-positive extent");
    capacity_ *= d;
  }
}

void Shape::to_coords(NodeId node, std::span<std::int32_t> out) const {
  assert(out.size() == dims_.size());
  auto rest = static_cast<std::int64_t>(node);
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    out[i] = static_cast<std::int32_t>(rest % dims_[i]);
    rest /= dims_[i];
  }
  assert(rest == 0 && "node id beyond shape capacity");
}

NodeId Shape::to_node(std::span<const std::int32_t> coords) const {
  assert(coords.size() == dims_.size());
  std::int64_t node = 0;
  for (std::size_t i = dims_.size(); i-- > 0;) {
    assert(coords[i] >= 0 && coords[i] < dims_[i]);
    node = node * dims_[i] + coords[i];
  }
  return static_cast<NodeId>(node);
}

std::string Shape::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << "x";
    os << dims_[i];
  }
  return os.str();
}

std::int64_t isqrt(std::int64_t n) {
  assert(n >= 0);
  if (n < 2) return n;
  std::int64_t r = static_cast<std::int64_t>(__builtin_sqrt(
      static_cast<double>(n)));
  while (r * r > n) --r;
  while ((r + 1) * (r + 1) <= n) ++r;
  return r;
}

std::int64_t icbrt(std::int64_t n) {
  assert(n >= 0);
  if (n < 2) return n;
  auto r = static_cast<std::int64_t>(__builtin_cbrt(static_cast<double>(n)));
  while (r > 0 && r * r * r > n) --r;
  while ((r + 1) * (r + 1) * (r + 1) <= n) ++r;
  return r;
}

Shape mesh_shape_for(std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("mesh_shape_for: n <= 0");
  // Lowest dimension X = ceil(sqrt(n)) gives the most-square mesh whose
  // rows (dimension 0) are full except possibly the last.
  const std::int64_t root = isqrt(n);
  const std::int64_t x = (root * root == n) ? root : root + 1;
  const std::int64_t y = (n + x - 1) / x;
  return Shape({static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)});
}

Shape cube_shape_for(std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("cube_shape_for: n <= 0");
  const std::int64_t root = icbrt(n);
  const std::int64_t x = (root * root * root == n) ? root : root + 1;
  // Remaining slots are filled with the most-square Y x Z plane count.
  const std::int64_t planes = (n + x - 1) / x;  // number of X-rows needed
  const std::int64_t yroot = isqrt(planes);
  const std::int64_t y = (yroot * yroot == planes) ? yroot : yroot + 1;
  const std::int64_t z = (planes + y - 1) / y;
  return Shape({static_cast<std::int32_t>(x), static_cast<std::int32_t>(y),
                static_cast<std::int32_t>(z)});
}

Shape hypercube_shape_for(std::int64_t n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument(
        "hypercube_shape_for: node count must be a power of two");
  }
  int k = 0;
  while ((std::int64_t{1} << k) < n) ++k;
  if (k == 0) k = 1;  // a single node still needs one dimension
  return Shape(std::vector<std::int32_t>(static_cast<std::size_t>(k), 2));
}

}  // namespace vtopo::core
