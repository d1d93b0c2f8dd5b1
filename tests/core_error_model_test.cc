#include "core/error_model.h"

#include <cmath>

#include <gtest/gtest.h>

namespace pldp {
namespace {

TEST(CEpsilonTest, KnownValues) {
  // c_eps = (e^eps + 1) / (e^eps - 1).
  EXPECT_NEAR(CEpsilon(1.0), (std::exp(1.0) + 1) / (std::exp(1.0) - 1), 1e-12);
  EXPECT_NEAR(CEpsilon(1.0), 2.16395, 1e-4);
  EXPECT_NEAR(CEpsilon(0.5), 4.08307, 1e-4);
}

TEST(CEpsilonTest, MonotoneDecreasingInEpsilon) {
  double prev = CEpsilon(0.05);
  for (double eps = 0.1; eps <= 5.0; eps += 0.1) {
    const double cur = CEpsilon(eps);
    EXPECT_LT(cur, prev) << "eps " << eps;
    prev = cur;
  }
}

TEST(CEpsilonTest, ApproachesOneForLargeEpsilon) {
  EXPECT_NEAR(CEpsilon(20.0), 1.0, 1e-8);
}

TEST(CEpsilonTest, DivergesForSmallEpsilon) {
  // c_eps ~ 2/eps as eps -> 0.
  EXPECT_NEAR(CEpsilon(1e-4) * 1e-4, 2.0, 1e-3);
}

TEST(PrivacyFactorTest, IsSquareOfC) {
  const double c = CEpsilon(0.75);
  EXPECT_DOUBLE_EQ(PrivacyFactorTerm(0.75), c * c);
}

TEST(PcepErrorBoundTest, MatchesClosedForm) {
  const double beta = 0.1, n = 1000, d = 20;
  const double varsigma = n * PrivacyFactorTerm(1.0);
  const double expected = std::sqrt(2 * varsigma * std::log(4 * d / beta)) +
                          std::sqrt(n * std::log(2 * d / beta));
  EXPECT_NEAR(PcepErrorBound(beta, n, d, varsigma), expected, 1e-9);
}

// The clustering tabulates the per-(beta, d) logs once per pass and runs
// only the per-cluster step per cluster; that must give PcepErrorBound's
// exact bits.
TEST(PcepErrorBoundTest, SplitFormEqualsBound) {
  for (const double beta : {1e-6, 1e-3, 0.1 / 10653, 0.05, 0.1, 0.5, 0.99}) {
    for (const double d : {1.0, 3.0, 16.0, 20.0, 1024.0, 12390.0, 1e6}) {
      const PcepBoundLogs logs = PcepErrorBoundLogs(beta, d);
      for (const double n : {0.0, 1.0, 7.0, 1000.0, 150000.0, 1e6}) {
        for (const double eps : {0.1, 0.5, 1.0, 2.0}) {
          const double varsigma = n * PrivacyFactorTerm(eps);
          EXPECT_EQ(PcepErrorBoundFromLogs(logs, n, varsigma),
                    PcepErrorBound(beta, n, d, varsigma))
              << "beta " << beta << " d " << d << " n " << n << " eps "
              << eps;
        }
      }
    }
  }
}

TEST(PcepErrorBoundTest, ZeroUsersZeroError) {
  EXPECT_DOUBLE_EQ(PcepErrorBound(0.1, 0, 10, 0), 0.0);
}

TEST(PcepErrorBoundTest, MonotoneInRegionSizeAndUsers) {
  const double varsigma = 100 * PrivacyFactorTerm(1.0);
  EXPECT_LT(PcepErrorBound(0.1, 100, 10, varsigma),
            PcepErrorBound(0.1, 100, 100, varsigma));
  EXPECT_LT(PcepErrorBound(0.1, 100, 10, varsigma),
            PcepErrorBound(0.1, 400, 10, 4 * varsigma));
}

TEST(PcepErrorBoundTest, TighterConfidenceCostsMore) {
  const double varsigma = 100 * PrivacyFactorTerm(1.0);
  EXPECT_LT(PcepErrorBound(0.2, 100, 10, varsigma),
            PcepErrorBound(0.01, 100, 10, varsigma));
}

// Example 4.1 of the paper: merging the groups at R4 and R14 lowers the MAE
// bound. The paper's printed numbers (4637 vs 3327) use a slightly different
// constant than Theorem 4.5's statement (both are ours x 1.2012); the
// *ratio*, which is the actual claim, matches to three decimals.
TEST(PcepErrorBoundTest, Example41MergingWins) {
  const double beta = 0.2;
  const double vs4 = 60000 * PrivacyFactorTerm(1.0);
  const double vs14 = 20000 * PrivacyFactorTerm(1.0);
  // Separate protocols at confidence beta/2 each; errors add at any block
  // under R14.
  const double separate = PcepErrorBound(beta / 2, 60000, 20, vs4) +
                          PcepErrorBound(beta / 2, 20000, 6, vs14);
  // Merged: R14 absorbed into R4, region size 20.
  const double merged = PcepErrorBound(beta, 80000, 20, vs4 + vs14);
  EXPECT_LT(merged, separate);
  EXPECT_NEAR(separate / merged, 4637.0 / 3327.0, 5e-3);
}

TEST(PcepErrorBoundDeathTest, RejectsBadInputs) {
  EXPECT_DEATH(PcepErrorBound(0.0, 10, 10, 1), "beta");
  EXPECT_DEATH(PcepErrorBound(1.0, 10, 10, 1), "beta");
  EXPECT_DEATH(PcepErrorBound(0.1, 10, 0, 1), "region");
  EXPECT_DEATH(PcepErrorBoundLogs(0.0, 10), "beta");
  EXPECT_DEATH(PcepErrorBoundLogs(0.1, 0), "region");
  EXPECT_DEATH(CEpsilon(0.0), "epsilon");
  EXPECT_DEATH(CEpsilon(-1.0), "epsilon");
}

}  // namespace
}  // namespace pldp
