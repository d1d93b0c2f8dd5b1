#include "core/frequency_oracle.h"

#include <cmath>
#include <numeric>
#include <ostream>
#include <tuple>

#include <gtest/gtest.h>

#include "core/psda.h"
#include "geo/taxonomy.h"
#include "util/random.h"

namespace pldp {
namespace {

/// A skewed cohort over `width` items: item k gets a 1/(k+1) share.
std::vector<PcepUser> SkewedUsers(int n, int width, double epsilon,
                                  std::vector<double>* truth) {
  truth->assign(width, 0.0);
  std::vector<PcepUser> users;
  users.reserve(n);
  double total_weight = 0.0;
  for (int k = 0; k < width; ++k) total_weight += 1.0 / (k + 1);
  int assigned = 0;
  for (int k = 0; k < width && assigned < n; ++k) {
    int count = static_cast<int>(n * (1.0 / (k + 1)) / total_weight);
    if (k == width - 1) count = n - assigned;
    count = std::min(count, n - assigned);
    for (int i = 0; i < count; ++i) {
      users.push_back({static_cast<uint32_t>(k), epsilon});
    }
    (*truth)[k] = count;
    assigned += count;
  }
  while (assigned < n) {
    users.push_back({0, epsilon});
    (*truth)[0] += 1;
    ++assigned;
  }
  return users;
}

double Mae(const std::vector<double>& truth,
           const std::vector<double>& estimate) {
  double mae = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    mae = std::max(mae, std::fabs(truth[i] - estimate[i]));
  }
  return mae;
}

/// An oracle under test and the fixed label of its case. gtest would print
/// the oracle's address, which moves with every load of the binary, so the
/// case names that ctest discovers at build time changed from build to
/// build. The labels are the names these cases were last listed under.
struct OracleCase {
  const FrequencyOracle* oracle;
  const char* label;
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.label; }

class OracleContractTest : public ::testing::TestWithParam<OracleCase> {};

const PcepOracle kPcep;
const KrrOracle kKrr;
const RapporOracle kRappor;
const OlhOracle kOlh;
const OueOracle kOue;
const HadamardOracle kHr;

TEST_P(OracleContractTest, RejectsBadInputs) {
  const FrequencyOracle& oracle = *GetParam().oracle;
  EXPECT_FALSE(oracle.EstimateCounts({}, 8, 0.1, 1).ok());
  EXPECT_FALSE(oracle.EstimateCounts({{9, 1.0}}, 8, 0.1, 1).ok());
  EXPECT_FALSE(oracle.EstimateCounts({{0, 0.0}}, 8, 0.1, 1).ok());
}

TEST_P(OracleContractTest, DeterministicPerSeed) {
  const FrequencyOracle& oracle = *GetParam().oracle;
  std::vector<double> truth;
  const auto users = SkewedUsers(3000, 16, 1.0, &truth);
  const auto a = oracle.EstimateCounts(users, 16, 0.1, 7).value();
  const auto b = oracle.EstimateCounts(users, 16, 0.1, 7).value();
  const auto c = oracle.EstimateCounts(users, 16, 0.1, 8).value();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_P(OracleContractTest, TracksSkewedCounts) {
  const FrequencyOracle& oracle = *GetParam().oracle;
  std::vector<double> truth;
  const int n = 40000;
  const auto users = SkewedUsers(n, 16, 1.0, &truth);
  const auto counts = oracle.EstimateCounts(users, 16, 0.1, 11).value();
  ASSERT_EQ(counts.size(), 16u);
  // The head item (~27% of the mass) must be recovered within 50%; RAPPOR's
  // collision bias and kRR's variance both fit comfortably at this size.
  EXPECT_NEAR(counts[0], truth[0], 0.5 * truth[0]) << oracle.Name();
}

INSTANTIATE_TEST_SUITE_P(
    AllOracles, OracleContractTest,
    ::testing::Values(OracleCase{&kPcep, "0x558a751e2560"},
                      OracleCase{&kKrr, "0x558a751e23a8"},
                      OracleCase{&kRappor, "0x558a751e2550"},
                      OracleCase{&kOlh, "0x558a751e23a0"},
                      OracleCase{&kOue, "0x558a751e2398"},
                      OracleCase{&kHr, "0x558a751e2390"}));

TEST(KrrOracleTest, UnbiasedAcrossMixedEpsilons) {
  // All users hold item 3; half report at eps .5, half at 1.5. The debiased
  // estimate must still be centered at n.
  const int n = 60000;
  std::vector<PcepUser> users;
  for (int i = 0; i < n; ++i) {
    users.push_back({3, i % 2 == 0 ? 0.5 : 1.5});
  }
  const KrrOracle oracle;
  const auto counts = oracle.EstimateCounts(users, 32, 0.1, 3).value();
  EXPECT_NEAR(counts[3], n, 0.1 * n);
  // Off items should hover near zero.
  EXPECT_NEAR(counts[0], 0.0, 0.1 * n);
}

TEST(KrrOracleTest, SingletonDomainIsExact) {
  const KrrOracle oracle;
  const std::vector<PcepUser> users(100, PcepUser{0, 1.0});
  const auto counts = oracle.EstimateCounts(users, 1, 0.1, 3).value();
  EXPECT_DOUBLE_EQ(counts[0], 100.0);
}

TEST(KrrOracleTest, VarianceGrowsWithDomain) {
  // The kRR failure mode on large universes: same cohort, wider domain,
  // much larger error (PCEP's error is domain-size-insensitive up to logs).
  std::vector<double> truth_small, truth_large;
  const auto users_small = SkewedUsers(20000, 8, 0.5, &truth_small);
  const auto users_large = SkewedUsers(20000, 512, 0.5, &truth_large);
  const KrrOracle krr;
  double krr_small = 0.0, krr_large = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    krr_small +=
        Mae(truth_small, krr.EstimateCounts(users_small, 8, 0.1, seed).value());
    krr_large += Mae(truth_large,
                     krr.EstimateCounts(users_large, 512, 0.1, seed).value());
  }
  EXPECT_GT(krr_large, 2.0 * krr_small);
}

TEST(RapporOracleTest, RejectsDegenerateConfig) {
  const RapporOracle zero_bits(0, 2);
  EXPECT_FALSE(zero_bits.EstimateCounts({{0, 1.0}}, 4, 0.1, 1).ok());
  const RapporOracle zero_hashes(64, 0);
  EXPECT_FALSE(zero_hashes.EstimateCounts({{0, 1.0}}, 4, 0.1, 1).ok());
}

TEST(RapporOracleTest, PcepBeatsRapporOnLargeDomains) {
  // The related-work claim: "the utility provided by RAPPOR is less
  // desirable than the technique in [3]".
  std::vector<double> truth;
  const auto users = SkewedUsers(40000, 256, 1.0, &truth);
  const PcepOracle pcep;
  const RapporOracle rappor;
  double pcep_mae = 0.0, rappor_mae = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    pcep_mae +=
        Mae(truth, pcep.EstimateCounts(users, 256, 0.1, seed).value());
    rappor_mae +=
        Mae(truth, rappor.EstimateCounts(users, 256, 0.1, seed).value());
  }
  EXPECT_LT(pcep_mae, rappor_mae);
}

TEST(NewBackendsTest, UnbiasedAcrossMixedEpsilons) {
  // All users hold item 3; half report at eps .5, half at 1.5. Every
  // personalized backend must debias per epsilon and land near n.
  const int n = 60000;
  std::vector<PcepUser> users;
  for (int i = 0; i < n; ++i) {
    users.push_back({3, i % 2 == 0 ? 0.5 : 1.5});
  }
  for (const FrequencyOracle* oracle :
       {static_cast<const FrequencyOracle*>(&kOlh),
        static_cast<const FrequencyOracle*>(&kOue),
        static_cast<const FrequencyOracle*>(&kHr)}) {
    const auto counts = oracle->EstimateCounts(users, 32, 0.1, 3).value();
    EXPECT_NEAR(counts[3], n, 0.1 * n) << oracle->Name();
    EXPECT_NEAR(counts[0], 0.0, 0.1 * n) << oracle->Name();
  }
}

TEST(NewBackendsTest, SingletonDomainIsExact) {
  const std::vector<PcepUser> users(100, PcepUser{0, 1.0});
  for (const FrequencyOracle* oracle :
       {static_cast<const FrequencyOracle*>(&kOlh),
        static_cast<const FrequencyOracle*>(&kOue),
        static_cast<const FrequencyOracle*>(&kHr)}) {
    const auto counts = oracle->EstimateCounts(users, 1, 0.1, 3).value();
    ASSERT_EQ(counts.size(), 1u) << oracle->Name();
    EXPECT_DOUBLE_EQ(counts[0], 100.0) << oracle->Name();
  }
}

TEST(HadamardOracleTest, RaggedDomainIsPaddedAndTruncated) {
  // width 1000 pads to a 1024-point transform; the returned vector must be
  // width-long and still track the head item.
  std::vector<double> truth;
  const int n = 60000;
  const auto users = SkewedUsers(n, 1000, 2.0, &truth);
  const auto counts = kHr.EstimateCounts(users, 1000, 0.1, 5).value();
  ASSERT_EQ(counts.size(), 1000u);
  EXPECT_NEAR(counts[0], truth[0], 0.5 * truth[0]);
}

TEST(HadamardOracleTest, ErrorInsensitiveToDomainSize) {
  // The HR selling point vs kRR: same cohort, 64x wider domain, error grows
  // only mildly (per-item noise is domain-size-free up to the padding).
  std::vector<double> truth_small, truth_large;
  const auto users_small = SkewedUsers(20000, 8, 0.5, &truth_small);
  const auto users_large = SkewedUsers(20000, 512, 0.5, &truth_large);
  double hr_small = 0.0, hr_large = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    hr_small += Mae(truth_small,
                    kHr.EstimateCounts(users_small, 8, 0.1, seed).value());
    hr_large += Mae(truth_large,
                    kHr.EstimateCounts(users_large, 512, 0.1, seed).value());
  }
  // kRR blows up ~sqrt(k)-fold here (see KrrOracleTest.VarianceGrowsWith
  // Domain); HR must stay within a small constant factor.
  EXPECT_LT(hr_large, 4.0 * hr_small);
}

TEST(OracleStatsTest, ReportsCommunicationAndDecodeCosts) {
  std::vector<double> truth;
  const auto users = SkewedUsers(5000, 64, 1.0, &truth);
  OracleRunStats stats;

  ASSERT_TRUE(kPcep.EstimateCounts(users, 64, 0.1, 1, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.bytes_per_report, 1.0 / 8.0);  // one sign bit

  ASSERT_TRUE(kKrr.EstimateCounts(users, 64, 0.1, 1, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.bytes_per_report, 6.0 / 8.0);  // log2(64) bits

  ASSERT_TRUE(kOue.EstimateCounts(users, 64, 0.1, 1, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.bytes_per_report, 8.0);  // width/8 bytes

  ASSERT_TRUE(kHr.EstimateCounts(users, 64, 0.1, 1, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.bytes_per_report, 7.0 / 8.0);  // log2(64)+1 bits
  EXPECT_GE(stats.decode_seconds, 0.0);
  EXPECT_GE(stats.encode_seconds, 0.0);

  ASSERT_TRUE(kOlh.EstimateCounts(users, 64, 0.1, 1, &stats).ok());
  // g = round(e^1 + 1) = 4 buckets -> 2 bits.
  EXPECT_DOUBLE_EQ(stats.bytes_per_report, 2.0 / 8.0);

  // Stats collection must not perturb the estimate.
  const auto with = kHr.EstimateCounts(users, 64, 0.1, 9, &stats).value();
  const auto without = kHr.EstimateCounts(users, 64, 0.1, 9).value();
  EXPECT_EQ(with, without);
}

TEST(MakeOracleTest, ConstructsEveryBackendByName) {
  for (const char* name : {"pcep", "krr", "rappor", "olh", "oue", "hr"}) {
    const auto oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
  }
  EXPECT_EQ(MakeOracle("HR")->Name(), "HR");          // case-insensitive
  EXPECT_EQ(MakeOracle("hadamard")->Name(), "HR");    // alias
  EXPECT_EQ(MakeOracle("PCEP")->Name(), "PCEP");
  EXPECT_EQ(MakeOracle("nope"), nullptr);
  EXPECT_EQ(MakeOracle(""), nullptr);
}

TEST(PsdaWithOracleTest, RunsEndToEndWithEveryOracle) {
  const UniformGrid grid =
      UniformGrid::Create(BoundingBox{0, 0, 8, 8}, 1, 1).value();
  const SpatialTaxonomy tax = SpatialTaxonomy::Build(grid, 4).value();
  Rng rng(5);
  std::vector<UserRecord> users;
  for (int i = 0; i < 4000; ++i) {
    const auto cell = static_cast<CellId>(rng.NextUint64(64));
    UserRecord user;
    user.cell = cell;
    user.spec.safe_region = tax.AncestorAbove(
        tax.LeafNodeOfCell(cell), 1 + rng.NextUint64(2));
    user.spec.epsilon = 1.0;
    users.push_back(user);
  }
  for (const FrequencyOracle* oracle :
       {static_cast<const FrequencyOracle*>(&kPcep),
        static_cast<const FrequencyOracle*>(&kKrr),
        static_cast<const FrequencyOracle*>(&kRappor),
        static_cast<const FrequencyOracle*>(&kOlh),
        static_cast<const FrequencyOracle*>(&kOue),
        static_cast<const FrequencyOracle*>(&kHr)}) {
    const auto result =
        RunPsdaWithOracle(tax, users, PsdaOptions(), *oracle);
    ASSERT_TRUE(result.ok()) << oracle->Name();
    const double total = std::accumulate(result->counts.begin(),
                                         result->counts.end(), 0.0);
    EXPECT_NEAR(total, 4000.0, 1e-6) << oracle->Name();
  }
}

}  // namespace
}  // namespace pldp
