#include "core/fwht.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace pldp {
namespace {

/// Random but reproducible accumulator-like input (mixed signs, varied
/// magnitudes, exact dyadic values would hide rounding bugs, so use plain
/// uniform doubles).
std::vector<double> RandomInput(size_t n, uint64_t seed) {
  std::vector<double> data(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) data[i] = rng.NextDouble() * 8.0 - 4.0;
  return data;
}

/// O(n^2) Walsh-Hadamard multiply in natural (Sylvester) order: the ground
/// truth for the butterfly (every FWHT output is a +-sum of the inputs; the
/// naive sum below adds in index order, which the butterfly does NOT, so
/// compare with a tolerance here).
std::vector<double> NaiveHadamard(const std::vector<double>& x) {
  const size_t n = x.size();
  std::vector<double> y(n, 0.0);
  for (size_t v = 0; v < n; ++v) {
    for (size_t j = 0; j < n; ++j) {
      const int parity = __builtin_popcountll(v & j) & 1;
      y[v] += parity ? -x[j] : x[j];
    }
  }
  return y;
}

TEST(FwhtTest, SizeOneIsIdentity) {
  std::vector<double> data = {42.5};
  Fwht(data.data(), 1);
  EXPECT_EQ(data[0], 42.5);
}

TEST(FwhtTest, SizeTwoButterfly) {
  std::vector<double> data = {3.0, 1.25};
  Fwht(data.data(), 2);
  EXPECT_EQ(data[0], 4.25);
  EXPECT_EQ(data[1], 1.75);
}

TEST(FwhtTest, PadToPowerOfTwoRaggedDomains) {
  EXPECT_EQ(PadToPowerOfTwo(0), 1u);
  EXPECT_EQ(PadToPowerOfTwo(1), 1u);
  EXPECT_EQ(PadToPowerOfTwo(2), 2u);
  EXPECT_EQ(PadToPowerOfTwo(3), 4u);
  EXPECT_EQ(PadToPowerOfTwo(63), 64u);
  EXPECT_EQ(PadToPowerOfTwo(64), 64u);
  EXPECT_EQ(PadToPowerOfTwo(65), 128u);
  EXPECT_EQ(PadToPowerOfTwo(1000), 1024u);
  EXPECT_EQ(PadToPowerOfTwo(16384), 16384u);
  EXPECT_EQ(PadToPowerOfTwo(uint64_t{1} << 40), uint64_t{1} << 40);
  EXPECT_EQ(PadToPowerOfTwo((uint64_t{1} << 40) + 1), uint64_t{1} << 41);
}

TEST(FwhtTest, MatchesNaiveHadamardMultiply) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{32},
                   size_t{64}, size_t{256}}) {
    const std::vector<double> input = RandomInput(n, 0x5EED + n);
    const std::vector<double> expected = NaiveHadamard(input);
    std::vector<double> data = input;
    Fwht(data.data(), n);
    for (size_t v = 0; v < n; ++v) {
      // Different summation order than the naive reference: tolerance, not
      // exact ==. Magnitudes here are O(n * 4).
      EXPECT_NEAR(data[v], expected[v], 1e-9 * static_cast<double>(n) + 1e-12)
          << "n=" << n << " v=" << v;
    }
  }
}

TEST(FwhtTest, InvolutionUpToN) {
  // H * H = n * I: transforming twice recovers the input scaled by n.
  const size_t n = 512;
  const std::vector<double> input = RandomInput(n, 99);
  std::vector<double> data = input;
  Fwht(data.data(), n);
  Fwht(data.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i], input[i] * static_cast<double>(n), 1e-8);
  }
}

TEST(FwhtDeathTest, RejectsNonPowerOfTwo) {
  std::vector<double> data(3, 1.0);
  EXPECT_DEATH(Fwht(data.data(), 3), "power of two");
  EXPECT_DEATH(Fwht(data.data(), 0), "power of two");
}

}  // namespace
}  // namespace pldp
