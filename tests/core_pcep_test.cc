#include "core/pcep.h"

#include <cmath>
#include <cstdlib>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/error_model.h"
#include "core/pcep_decode.h"
#include "obs/metrics.h"
#include "util/cpu.h"
#include "util/thread_pool.h"

namespace pldp {
namespace {

TEST(PcepDimensionsTest, MatchesAlgorithmOneFormulas) {
  const uint64_t n = 10000, d = 20;
  const double beta = 0.1;
  const PcepDimensions dims =
      ComputePcepDimensions(n, d, beta, uint64_t{1} << 30).value();
  const double delta = std::sqrt(std::log(2.0 * d / beta) / n);
  EXPECT_NEAR(dims.delta, delta, 1e-12);
  const double m = std::log(d + 1.0) * std::log(2.0 / beta) / (delta * delta);
  EXPECT_EQ(dims.m, static_cast<uint64_t>(std::ceil(m)));
}

TEST(PcepDimensionsTest, GrowsLinearlyInUsers) {
  const auto small = ComputePcepDimensions(1000, 50, 0.1, 1ull << 30).value();
  const auto large = ComputePcepDimensions(4000, 50, 0.1, 1ull << 30).value();
  EXPECT_NEAR(static_cast<double>(large.m) / static_cast<double>(small.m), 4.0,
              0.01);
}

TEST(PcepDimensionsTest, HonorsCap) {
  const auto dims = ComputePcepDimensions(1'000'000, 100, 0.1, 4096).value();
  EXPECT_EQ(dims.m, 4096u);
}

TEST(PcepDimensionsTest, RejectsBadInputs) {
  EXPECT_FALSE(ComputePcepDimensions(0, 10, 0.1, 1024).ok());
  EXPECT_FALSE(ComputePcepDimensions(10, 0, 0.1, 1024).ok());
  EXPECT_FALSE(ComputePcepDimensions(10, 10, 0.0, 1024).ok());
  EXPECT_FALSE(ComputePcepDimensions(10, 10, 1.0, 1024).ok());
  EXPECT_FALSE(ComputePcepDimensions(10, 10, 0.1, 0).ok());
}

TEST(PcepServerTest, AccumulateTracksReports) {
  PcepParams params;
  PcepServer server = PcepServer::Create(10, 100, params).value();
  EXPECT_EQ(server.num_reports(), 0u);
  server.Accumulate(0, 1.5);
  server.Accumulate(0, -0.5);
  server.Accumulate(3, 2.0);
  EXPECT_EQ(server.num_reports(), 3u);
}

TEST(PcepServerTest, CancelledRowIsNotDoubleCountedOnRevisit) {
  // Regression: a report that returns a row's accumulator to exactly 0.0
  // used to re-enlist the row in the touched list on its next report, so the
  // decode counted the row twice. The server must end up equivalent to one
  // that only ever saw the net value.
  PcepParams params;
  PcepServer cancelled = PcepServer::Create(32, 1000, params).value();
  cancelled.Accumulate(5, 1.5);
  cancelled.Accumulate(5, -1.5);  // back to exactly zero
  cancelled.Accumulate(5, 2.25);  // revisit after cancellation
  EXPECT_EQ(cancelled.num_touched_rows(), 1u);

  PcepServer direct = PcepServer::Create(32, 1000, params).value();
  direct.Accumulate(5, 2.25);

  EXPECT_EQ(cancelled.Estimate(), direct.Estimate());
  EXPECT_DOUBLE_EQ(cancelled.EstimateItem(7), direct.EstimateItem(7));
}

TEST(PcepDimensionsTest, ClampBumpsCounter) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* clamped = registry.GetCounter("pcep.m_clamped");
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const uint64_t before = clamped->Value();
  // Theoretical m for a million users far exceeds the cap of 4096.
  ASSERT_TRUE(ComputePcepDimensions(1'000'000, 100, 0.1, 4096).ok());
  EXPECT_EQ(clamped->Value(), before + 1);
  // An uncapped computation must not count.
  ASSERT_TRUE(ComputePcepDimensions(100, 10, 0.1, 1ull << 30).ok());
  EXPECT_EQ(clamped->Value(), before + 1);
  registry.set_enabled(was_enabled);
}

TEST(PcepServerTest, EstimateOfEmptyProtocolIsZero) {
  PcepParams params;
  PcepServer server = PcepServer::Create(10, 100, params).value();
  const std::vector<double> counts = server.Estimate();
  ASSERT_EQ(counts.size(), 10u);
  for (const double c : counts) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(RunPcepTest, RejectsBadUsers) {
  PcepParams params;
  std::vector<PcepUser> users = {{5, 1.0}};
  EXPECT_FALSE(RunPcep(users, 5, params).ok());  // index == tau_size
  users = {{0, 0.0}};
  EXPECT_FALSE(RunPcep(users, 5, params).ok());  // epsilon 0
  EXPECT_FALSE(RunPcep({}, 5, params).ok());     // no users
}

TEST(RunPcepTest, DeterministicForFixedSeed) {
  std::vector<PcepUser> users;
  for (int i = 0; i < 500; ++i) {
    users.push_back({static_cast<uint32_t>(i % 8), 1.0});
  }
  PcepParams params;
  params.seed = 777;
  const auto a = RunPcep(users, 8, params).value();
  const auto b = RunPcep(users, 8, params).value();
  EXPECT_EQ(a, b);
  params.seed = 778;
  const auto c = RunPcep(users, 8, params).value();
  EXPECT_NE(a, c);
}

TEST(RunPcepTest, EstimatesSumApproximatelyToN) {
  std::vector<PcepUser> users;
  for (int i = 0; i < 20000; ++i) {
    users.push_back({static_cast<uint32_t>(i % 16), 1.0});
  }
  PcepParams params;
  const auto counts = RunPcep(users, 16, params).value();
  const double total = std::accumulate(counts.begin(), counts.end(), 0.0);
  EXPECT_NEAR(total, 20000.0, 2500.0);
}

/// Property sweep of Theorem 4.5: (n, tau_size, epsilon, beta).
class PcepBoundTest
    : public ::testing::TestWithParam<std::tuple<int, int, double, double>> {};

TEST_P(PcepBoundTest, MaxAbsoluteErrorWithinTheoremBound) {
  const auto [n, tau_size, epsilon, beta] = GetParam();

  // Skewed true distribution: location k gets a share ~ 1/(k+1).
  std::vector<double> truth(tau_size, 0.0);
  std::vector<PcepUser> users;
  users.reserve(n);
  {
    double total_weight = 0.0;
    for (int k = 0; k < tau_size; ++k) total_weight += 1.0 / (k + 1);
    int assigned = 0;
    for (int k = 0; k < tau_size && assigned < n; ++k) {
      int count = static_cast<int>(n * (1.0 / (k + 1)) / total_weight);
      if (k == tau_size - 1) count = n - assigned;
      count = std::min(count, n - assigned);
      for (int i = 0; i < count; ++i) {
        users.push_back({static_cast<uint32_t>(k), epsilon});
      }
      truth[k] = count;
      assigned += count;
    }
    // Round-off remainder goes to location 0.
    while (assigned < n) {
      users.push_back({0, epsilon});
      truth[0] += 1;
      ++assigned;
    }
  }

  PcepParams params;
  params.beta = beta;
  params.seed = 0xFEEDu + n + tau_size;
  const auto counts = RunPcep(users, tau_size, params).value();

  double mae = 0.0;
  for (int k = 0; k < tau_size; ++k) {
    mae = std::max(mae, std::fabs(counts[k] - truth[k]));
  }
  const double varsigma = n * PrivacyFactorTerm(epsilon);
  const double bound = PcepErrorBound(beta, n, tau_size, varsigma);
  // The bound holds with probability >= 1 - beta; a fixed seed makes this
  // deterministic, and the bound is loose in practice, so no flake slack is
  // needed.
  EXPECT_LE(mae, bound) << "n=" << n << " d=" << tau_size << " eps=" << epsilon;
  // And the protocol should do real work: the estimate must beat the trivial
  // all-zeros answer on the head of the distribution.
  EXPECT_LT(std::fabs(counts[0] - truth[0]), truth[0])
      << "estimate no better than zero";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PcepBoundTest,
    ::testing::Values(std::make_tuple(2000, 4, 1.0, 0.1),
                      std::make_tuple(5000, 16, 1.0, 0.1),
                      std::make_tuple(5000, 16, 0.5, 0.1),
                      std::make_tuple(5000, 16, 2.0, 0.1),
                      std::make_tuple(20000, 64, 1.0, 0.1),
                      std::make_tuple(20000, 64, 0.25, 0.2),
                      std::make_tuple(50000, 256, 1.0, 0.05),
                      std::make_tuple(10000, 1, 1.0, 0.1)));

TEST(PcepServerTest, ParallelDecodeMatchesSequential) {
  std::vector<PcepUser> users;
  for (int i = 0; i < 20000; ++i) {
    users.push_back({static_cast<uint32_t>(i % 100), 1.0});
  }
  PcepParams params;
  params.seed = 0xDEC0DE;
  const PcepServer server = RunPcepCollection(users, 100, params).value();
  const std::vector<double> sequential = server.Estimate();
  for (const unsigned threads : {2u, 3u, 7u}) {
    const std::vector<double> parallel = server.EstimateParallel(threads);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t k = 0; k < sequential.size(); ++k) {
      EXPECT_NEAR(parallel[k], sequential[k],
                  1e-9 * (1.0 + std::fabs(sequential[k])))
          << "threads " << threads << " location " << k;
    }
    // Deterministic for a fixed thread count.
    EXPECT_EQ(parallel, server.EstimateParallel(threads));
  }
  // Tiny workloads fall back to the sequential path.
  PcepServer small = PcepServer::Create(10, 10, params).value();
  small.Accumulate(0, 1.0);
  EXPECT_EQ(small.EstimateParallel(8), small.Estimate());
}

TEST(PcepServerTest, NestedParallelDecodeIsTheSerialDecode) {
  // Inside a pool chunk (RunPsda's per-cluster fan-out) the decode's own
  // chunks would run inline, so it must be exactly Estimate(): otherwise the
  // published bits would follow the pool size.
  std::vector<PcepUser> users;
  for (int i = 0; i < 20000; ++i) {
    users.push_back({static_cast<uint32_t>(i % 100), 1.0});
  }
  PcepParams params;
  params.seed = 0xDEC0DE;
  const PcepServer server = RunPcepCollection(users, 100, params).value();
  const std::vector<double> sequential = server.Estimate();
  for (const unsigned threads : {2u, 4u, 8u}) {
    std::vector<double> nested;
    ThreadPool::Global().ParallelFor(
        0, 1, 1, [&](unsigned, size_t, size_t) {
          nested = server.EstimateParallel(threads);
        });
    EXPECT_EQ(nested, sequential) << "threads " << threads;
  }
}

TEST(PcepServerTest, ParallelCombineBitIdenticalToSerialCombine) {
  // The column-sharded parallel combine must reproduce the old serial
  // chunk-order combine exactly — for any thread count and any topology
  // shard count. The reference below IS that old combine: per-chunk partials
  // over the ParallelFor boundary formula (begin = size * chunk / threads),
  // added column-wise in ascending chunk order.
  std::vector<PcepUser> users;
  for (int i = 0; i < 6000; ++i) {
    users.push_back({static_cast<uint32_t>(i % 4500), 1.0});
  }
  PcepParams params;
  params.seed = 0xC0B1DE;
  const PcepServer server = RunPcepCollection(users, 4500, params).value();
  const std::vector<uint64_t>& touched = server.touched_rows();
  const uint64_t tau = server.tau_size();
  // Wide enough that EstimateParallel takes the column-sharded combine, not
  // the small-region serial fallback.
  ASSERT_GE(tau, 4096u);

  for (const unsigned threads : {2u, 3u, 8u}) {
    ASSERT_GE(touched.size(), 2 * threads);
    std::vector<double> expected(tau, 0.0);
    for (unsigned chunk = 0; chunk < threads; ++chunk) {
      const size_t begin = touched.size() * chunk / threads;
      const size_t end = touched.size() * (chunk + 1) / threads;
      std::vector<double> partial(tau, 0.0);
      DecodeRowsBlocked(server.sign_matrix(), server.accumulator(),
                        touched.data() + begin, end - begin, tau,
                        partial.data());
      for (uint64_t k = 0; k < tau; ++k) expected[k] += partial[k];
    }
    EXPECT_EQ(server.EstimateParallel(threads), expected)
        << threads << " threads";

    // Shard-count invariance: forcing different topology group counts moves
    // the combine's column boundaries but must not change a single bit.
    for (const char* groups : {"1", "3", "7"}) {
      setenv("PLDP_TOPOLOGY_GROUPS", groups, 1);
      ResetCpuTopologyForTesting();
      EXPECT_EQ(server.EstimateParallel(threads), expected)
          << threads << " threads, " << groups << " topology groups";
    }
    unsetenv("PLDP_TOPOLOGY_GROUPS");
    ResetCpuTopologyForTesting();
  }
}

TEST(PcepServerTest, EstimateItemMatchesFullDecode) {
  std::vector<PcepUser> users;
  for (int i = 0; i < 5000; ++i) {
    users.push_back({static_cast<uint32_t>(i % 64), 1.0});
  }
  PcepParams params;
  const PcepServer server = RunPcepCollection(users, 64, params).value();
  const std::vector<double> all = server.Estimate();
  for (uint64_t item = 0; item < 64; item += 7) {
    EXPECT_NEAR(server.EstimateItem(item), all[item],
                1e-9 * (1.0 + std::fabs(all[item])));
  }
}

TEST(RunPcepTest, MixedEpsilonsStillUnbiased) {
  // Personalization: half the users at eps 0.25, half at 1.25, all at the
  // same location; the estimate should still track the true count.
  std::vector<PcepUser> users;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    users.push_back({0, i % 2 == 0 ? 0.25 : 1.25});
  }
  PcepParams params;
  const auto counts = RunPcep(users, 4, params).value();
  EXPECT_NEAR(counts[0], n, 0.15 * n);
  for (int k = 1; k < 4; ++k) EXPECT_NEAR(counts[k], 0.0, 0.15 * n);
}

}  // namespace
}  // namespace pldp
