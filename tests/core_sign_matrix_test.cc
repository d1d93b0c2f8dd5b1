#include "core/sign_matrix.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace pldp {
namespace {

TEST(SignMatrixTest, ScaleIsInverseSqrtM) {
  const SignMatrix matrix(1, 256, 10);
  EXPECT_DOUBLE_EQ(matrix.scale(), 1.0 / 16.0);
  EXPECT_EQ(matrix.m(), 256u);
  EXPECT_EQ(matrix.width(), 10u);
}

TEST(SignMatrixTest, Deterministic) {
  const SignMatrix a(99, 128, 70);
  const SignMatrix b(99, 128, 70);
  for (uint64_t row = 0; row < 128; row += 7) {
    EXPECT_EQ(a.Row(row), b.Row(row));
  }
}

TEST(SignMatrixTest, DifferentSeedsDiffer) {
  const SignMatrix a(1, 64, 256);
  const SignMatrix b(2, 64, 256);
  int equal_rows = 0;
  for (uint64_t row = 0; row < 64; ++row) {
    if (a.Row(row) == b.Row(row)) ++equal_rows;
  }
  EXPECT_EQ(equal_rows, 0);
}

TEST(SignMatrixTest, SignAtMatchesRow) {
  const SignMatrix matrix(7, 64, 130);
  for (uint64_t row = 0; row < 64; row += 5) {
    const BitVector bits = matrix.Row(row);
    for (uint64_t col = 0; col < 130; ++col) {
      EXPECT_EQ(matrix.SignAt(row, col), bits.Get(col))
          << "row " << row << " col " << col;
      EXPECT_DOUBLE_EQ(matrix.Entry(row, col),
                       bits.Get(col) ? matrix.scale() : -matrix.scale());
    }
  }
}

TEST(SignMatrixTest, AppendRowBytesMatchesRow) {
  // Widths inside one fill block, exactly one block (4,096 bits), and past
  // it, with and without a ragged tail word.
  for (const uint64_t width : {1u, 64u, 130u, 4096u, 4097u, 8229u}) {
    const SignMatrix matrix(width, 32, width);
    for (uint64_t row = 0; row < 32; row += 5) {
      std::vector<uint8_t> expected = {0x5A};
      matrix.Row(row).AppendBytes(&expected);
      std::vector<uint8_t> appended = {0x5A};
      matrix.AppendRowBytes(row, &appended);
      EXPECT_EQ(appended, expected) << "width " << width << " row " << row;
    }
  }
}

TEST(SignMatrixTest, EntriesAreBalanced) {
  const SignMatrix matrix(13, 4096, 64);
  size_t positives = 0;
  for (uint64_t row = 0; row < 4096; ++row) {
    positives += matrix.Row(row).PopCount();
  }
  const double fraction = static_cast<double>(positives) / (4096.0 * 64.0);
  EXPECT_NEAR(fraction, 0.5, 0.01);
}

TEST(SignMatrixTest, ColumnsNearlyOrthonormal) {
  // The JL property PCEP relies on: <Phi_k, Phi_k> = 1 exactly and
  // |<Phi_j, Phi_k>| = O(1/sqrt(m)) for j != k.
  const uint64_t m = 8192;
  const SignMatrix matrix(17, m, 8);
  for (uint64_t a = 0; a < 8; ++a) {
    for (uint64_t b = a; b < 8; ++b) {
      double dot = 0.0;
      for (uint64_t row = 0; row < m; ++row) {
        dot += matrix.Entry(row, a) * matrix.Entry(row, b);
      }
      if (a == b) {
        EXPECT_NEAR(dot, 1.0, 1e-9);
      } else {
        EXPECT_LT(std::fabs(dot), 5.0 / std::sqrt(static_cast<double>(m)))
            << "columns " << a << ", " << b;
      }
    }
  }
}

TEST(SignMatrixTest, RowWordsAreIndependentOfAccessOrder) {
  const SignMatrix matrix(23, 32, 256);
  const uint64_t direct = matrix.RowWord(5, 3);
  (void)matrix.RowWord(5, 0);
  (void)matrix.RowWord(9, 3);
  EXPECT_EQ(matrix.RowWord(5, 3), direct);
}

}  // namespace
}  // namespace pldp
