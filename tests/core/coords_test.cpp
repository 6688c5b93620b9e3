#include "core/coords.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

namespace vtopo::core {
namespace {

TEST(Shape, BasicProperties) {
  Shape s({3, 4, 5});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_EQ(s.dim(2), 5);
  EXPECT_EQ(s.capacity(), 60);
  EXPECT_EQ(s.to_string(), "3x4x5");
}

TEST(Shape, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(Shape(std::vector<std::int32_t>{}), std::invalid_argument);
  EXPECT_THROW(Shape({3, 0}), std::invalid_argument);
  EXPECT_THROW(Shape({-1}), std::invalid_argument);
}

TEST(Shape, RankBoundedByMaxRank) {
  // Per-call coordinate buffers are stack arrays of kMaxRank entries.
  const auto k = static_cast<std::size_t>(kMaxRank);
  EXPECT_NO_THROW(Shape(std::vector<std::int32_t>(k, 2)));
  EXPECT_THROW(Shape(std::vector<std::int32_t>(k + 1, 1)),
               std::invalid_argument);
}

TEST(Shape, CoordsRoundTripLowestDimensionFastest) {
  Shape s({3, 4});
  std::array<std::int32_t, 2> c{};
  s.to_coords(0, c);
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[1], 0);
  s.to_coords(1, c);
  EXPECT_EQ(c[0], 1);  // dimension 0 varies fastest
  EXPECT_EQ(c[1], 0);
  s.to_coords(3, c);
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[1], 1);
  for (NodeId n = 0; n < 12; ++n) {
    s.to_coords(n, c);
    EXPECT_EQ(s.to_node(c), n);
  }
}

TEST(Shape, RoundTripThreeDims) {
  Shape s({2, 3, 4});
  std::array<std::int32_t, 3> c{};
  for (NodeId n = 0; n < 24; ++n) {
    s.to_coords(n, c);
    EXPECT_EQ(s.to_node(c), n);
  }
}

TEST(Isqrt, ExactAndFloor) {
  EXPECT_EQ(isqrt(0), 0);
  EXPECT_EQ(isqrt(1), 1);
  EXPECT_EQ(isqrt(2), 1);
  EXPECT_EQ(isqrt(3), 1);
  EXPECT_EQ(isqrt(4), 2);
  EXPECT_EQ(isqrt(15), 3);
  EXPECT_EQ(isqrt(16), 4);
  EXPECT_EQ(isqrt(1'000'000'000'000LL), 1'000'000);
}

TEST(Isqrt, PropertySweep) {
  for (std::int64_t n = 0; n < 5000; ++n) {
    const std::int64_t r = isqrt(n);
    EXPECT_LE(r * r, n);
    EXPECT_GT((r + 1) * (r + 1), n);
  }
}

TEST(Icbrt, ExactAndFloor) {
  EXPECT_EQ(icbrt(0), 0);
  EXPECT_EQ(icbrt(1), 1);
  EXPECT_EQ(icbrt(7), 1);
  EXPECT_EQ(icbrt(8), 2);
  EXPECT_EQ(icbrt(26), 2);
  EXPECT_EQ(icbrt(27), 3);
  EXPECT_EQ(icbrt(1'000'000'000LL), 1000);
}

TEST(Icbrt, PropertySweep) {
  for (std::int64_t n = 0; n < 5000; ++n) {
    const std::int64_t r = icbrt(n);
    EXPECT_LE(r * r * r, n);
    EXPECT_GT((r + 1) * (r + 1) * (r + 1), n);
  }
}

TEST(MeshShape, PerfectSquares) {
  EXPECT_EQ(mesh_shape_for(9).to_string(), "3x3");
  EXPECT_EQ(mesh_shape_for(1024).to_string(), "32x32");
  EXPECT_EQ(mesh_shape_for(1).to_string(), "1x1");
}

TEST(MeshShape, PartialPopulationProperties) {
  for (std::int64_t n = 1; n <= 2000; ++n) {
    const Shape s = mesh_shape_for(n);
    ASSERT_EQ(s.rank(), 2);
    const std::int64_t x = s.dim(0);
    const std::int64_t y = s.dim(1);
    // Enough capacity, and the previous row count would not suffice:
    // only the highest dimension is partial.
    EXPECT_GE(x * y, n) << n;
    EXPECT_LT(x * (y - 1), n) << n;
    // Near-square: X chosen as ceil(sqrt(n)).
    EXPECT_GE(x, y) << n;
    EXPECT_LE(x - y, 2) << n;
  }
}

TEST(CubeShape, PerfectCubes) {
  EXPECT_EQ(cube_shape_for(27).to_string(), "3x3x3");
  EXPECT_EQ(cube_shape_for(4096).to_string(), "16x16x16");
}

TEST(CubeShape, PartialPopulationProperties) {
  for (std::int64_t n = 1; n <= 2000; ++n) {
    const Shape s = cube_shape_for(n);
    ASSERT_EQ(s.rank(), 3);
    const std::int64_t x = s.dim(0);
    const std::int64_t y = s.dim(1);
    const std::int64_t z = s.dim(2);
    EXPECT_GE(x * y * z, n) << n;
    EXPECT_LT(x * y * (z - 1), n) << n;
    EXPECT_GE(x, y) << n;
    EXPECT_GE(y, z - 1) << n;  // near-cubic
  }
}

TEST(HypercubeShape, PowersOfTwo) {
  EXPECT_EQ(hypercube_shape_for(1).rank(), 1);
  EXPECT_EQ(hypercube_shape_for(2).rank(), 1);
  EXPECT_EQ(hypercube_shape_for(16).rank(), 4);
  EXPECT_EQ(hypercube_shape_for(1024).rank(), 10);
  for (int d = 0; d < hypercube_shape_for(64).rank(); ++d) {
    EXPECT_EQ(hypercube_shape_for(64).dim(d), 2);
  }
}

TEST(HypercubeShape, RejectsNonPowerOfTwo) {
  EXPECT_THROW(hypercube_shape_for(3), std::invalid_argument);
  EXPECT_THROW(hypercube_shape_for(100), std::invalid_argument);
  EXPECT_THROW(hypercube_shape_for(0), std::invalid_argument);
}

TEST(PowerOfTwo, Predicate) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(-4));
  EXPECT_FALSE(is_power_of_two(6));
}

}  // namespace
}  // namespace vtopo::core
