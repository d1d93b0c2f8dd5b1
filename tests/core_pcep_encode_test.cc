// Parity + determinism suite for the dispatched encode kernels, mirroring
// core_pcep_simd_test on the client side of Algorithm 1: the AVX2 closed-form
// kernel against the scalar (sequential reference) kernel — bit-identical,
// exact == — over tau sizes that hit the word-tail boundaries and over user
// counts that hit the 8-user main loop, the single-4 group, and the scalar
// straggler tail; a hand-rolled SignAt + LocalRandomize loop pinning the
// scalar kernel itself; RunPcepCollection transcript identity across kernels,
// chunk counts, and PLDP_TOPOLOGY_GROUPS shard counts; the
// PLDP_ENCODE_KERNEL override round-trip (including avx512, which is not a
// token and must warn and fall back like any unknown one); the shared
// abort flag on an invalid-epsilon user mid-cohort; BatchKeepDecisions
// against the per-device Rng reference; ComputeLrConstants edges; and
// counter parity between kernels. Every AVX2 assertion skips gracefully when
// the kernel is unavailable (non-x86 or PLDP_ENABLE_SIMD=OFF builds still
// compile and pass this suite on the scalar path).
//
// Epsilons stay well below the exp() overflow edge (~709.78): past it the
// magnitude is NaN and the kernels agree on the keep *decision* but not
// necessarily on the NaN payload bits (see the LrConstants note). eps = 40 is
// included deliberately — its keep probability rounds to exactly 1.0, the
// always-keep saturation edge, where the threshold compare must still match
// `NextDouble() < 1.0`.

#include "core/pcep_encode.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/local_randomizer.h"
#include "core/pcep.h"
#include "core/sign_matrix.h"
#include "obs/metrics.h"
#include "util/cpu.h"
#include "util/random.h"

namespace pldp {
namespace {

bool Avx2Available() { return EncodeKernelAvailable(EncodeKernel::kAvx2); }

/// Restores the pre-test PLDP_ENCODE_KERNEL value (and cached selection) no
/// matter how the test exits.
class ScopedEncodeKernelEnv {
 public:
  ScopedEncodeKernelEnv() {
    const char* old = std::getenv("PLDP_ENCODE_KERNEL");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
  }
  ~ScopedEncodeKernelEnv() {
    if (had_old_) {
      setenv("PLDP_ENCODE_KERNEL", old_.c_str(), 1);
    } else {
      unsetenv("PLDP_ENCODE_KERNEL");
    }
    ResetEncodeKernelForTesting();
  }

  void Set(const char* value) {
    setenv("PLDP_ENCODE_KERNEL", value, 1);
    ResetEncodeKernelForTesting();
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

/// Same discipline for PLDP_TOPOLOGY_GROUPS, which shards the encode fan-out.
class ScopedTopologyEnv {
 public:
  ScopedTopologyEnv() {
    const char* old = std::getenv("PLDP_TOPOLOGY_GROUPS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
  }
  ~ScopedTopologyEnv() {
    if (had_old_) {
      setenv("PLDP_TOPOLOGY_GROUPS", old_.c_str(), 1);
    } else {
      unsetenv("PLDP_TOPOLOGY_GROUPS");
    }
    ResetCpuTopologyForTesting();
  }

  void Set(const char* value) {
    setenv("PLDP_TOPOLOGY_GROUPS", value, 1);
    ResetCpuTopologyForTesting();
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

struct EncodeCase {
  SignMatrix matrix;
  std::vector<PcepUser> users;
  std::vector<uint64_t> rows;
};

/// Mixed per-user epsilons interleave four constant classes (exercising the
/// multi-entry LrConstants memo), including the p = 1.0 saturation edge.
EncodeCase BuildCase(uint64_t tau_size, uint64_t m, size_t n, uint64_t seed) {
  EncodeCase c{SignMatrix(seed, m, tau_size), {}, {}};
  const double epsilons[] = {0.25, 1.0, 7.5, 40.0};
  Rng rng(seed ^ 0x5EED);
  for (size_t i = 0; i < n; ++i) {
    PcepUser user;
    user.location_index = static_cast<uint32_t>(rng.NextUint64(tau_size));
    user.epsilon = epsilons[rng.NextUint64(4)];
    c.users.push_back(user);
    c.rows.push_back(rng.NextUint64(m));
  }
  return c;
}

std::vector<double> EncodeWithKernel(ScopedEncodeKernelEnv* env,
                                     const char* kernel, const EncodeCase& c,
                                     uint64_t m, const SeedSchedule& schedule) {
  env->Set(kernel);
  std::vector<double> out(c.users.size(), 0.0);
  const Status status =
      EncodeUserRange(c.matrix, m, schedule, c.users.data(), c.rows.data(), 0,
                      c.users.size(), nullptr, out.data());
  EXPECT_TRUE(status.ok()) << kernel << ": " << status.message();
  return out;
}

class PcepEncodeParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PcepEncodeParityTest, KernelsBitIdenticalAcrossUserCounts) {
  const uint64_t tau_size = GetParam();
  const uint64_t m = 499;
  const SeedSchedule schedule{SplitMix64(0xC0FFEE ^ tau_size),
                              PcepSeeds::kClientSeedStride};
  ScopedEncodeKernelEnv env;
  // 1 and 3: pure scalar-tail; 4/8: exact vector groups; 5/9/13: group +
  // straggler mixes; 1000: many batches of both interleave groups; 1031:
  // crosses the 1024-user scratch batch with a ragged second batch.
  for (const size_t n : {size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{8},
                         size_t{9}, size_t{13}, size_t{1000}, size_t{1031}}) {
    const EncodeCase c = BuildCase(tau_size, m, n, 0xBEEF + tau_size + n);
    const std::vector<double> scalar =
        EncodeWithKernel(&env, "scalar", c, m, schedule);
    if (!Avx2Available()) continue;
    const std::vector<double> avx2 =
        EncodeWithKernel(&env, "avx2", c, m, schedule);
    // The determinism contract: exact ==, not tolerance.
    EXPECT_EQ(avx2, scalar) << "avx2 encode diverged at n = " << n;
  }
}

// 1: degenerate region; 63/64/65: location-word tails around the SignAt
// 64-bit packing boundary; 1000: multi-word; 16384: the benchmark width.
INSTANTIATE_TEST_SUITE_P(TauSizes, PcepEncodeParityTest,
                         ::testing::Values(1, 63, 64, 65, 1000, 16384));

TEST(PcepEncodeKernelTest, ScalarKernelMatchesHandRolledSequentialLoop) {
  // The scalar kernel claims to BE the sequential reference path; pin that
  // against an independently written SignAt + Rng::Seed + LocalRandomize
  // loop so the claim is enforced from outside the library.
  const uint64_t m = 257;
  const EncodeCase c = BuildCase(1000, m, 777, 0xFACE);
  const SeedSchedule schedule{SplitMix64(0xD1CE), 0x9E3779B97F4A7C15ULL};

  std::vector<double> expected(c.users.size(), 0.0);
  Rng rng(0);
  for (size_t i = 0; i < c.users.size(); ++i) {
    const bool sign = c.matrix.SignAt(c.rows[i], c.users[i].location_index);
    rng.Seed(SplitMix64(schedule.base ^ ((i + 1) * schedule.stride)));
    expected[i] =
        LocalRandomize(sign, m, c.users[i].epsilon, &rng).value();
  }

  ScopedEncodeKernelEnv env;
  EXPECT_EQ(EncodeWithKernel(&env, "scalar", c, m, schedule), expected);
  if (Avx2Available()) {
    EXPECT_EQ(EncodeWithKernel(&env, "avx2", c, m, schedule), expected);
  }
}

TEST(PcepEncodeKernelTest, NamesAndAvailability) {
  EXPECT_STREQ(EncodeKernelName(EncodeKernel::kScalar), "scalar");
  EXPECT_STREQ(EncodeKernelName(EncodeKernel::kAvx2), "avx2");
  EXPECT_TRUE(EncodeKernelAvailable(EncodeKernel::kScalar));
#ifndef __x86_64__
  EXPECT_FALSE(EncodeKernelAvailable(EncodeKernel::kAvx2));
#endif
}

TEST(PcepEncodeKernelTest, EnvOverrideRoundTrip) {
  ScopedEncodeKernelEnv env;
  const EncodeKernel best =
      Avx2Available() ? EncodeKernel::kAvx2 : EncodeKernel::kScalar;

  env.Set("scalar");
  EXPECT_EQ(ActiveEncodeKernel(), EncodeKernel::kScalar);

  // A forced avx2 falls back to scalar gracefully when unavailable.
  env.Set("avx2");
  EXPECT_EQ(ActiveEncodeKernel(), best);

  env.Set("auto");
  EXPECT_EQ(ActiveEncodeKernel(), best);

  env.Set("AVX2");  // tokens are case-insensitive
  EXPECT_EQ(ActiveEncodeKernel(), best);

  // avx512 is not a token: it warns like any unknown one and falls back to
  // the best available kernel instead of failing.
  env.Set("avx512");
  EXPECT_EQ(ActiveEncodeKernel(), best);

  env.Set("bogus");  // unknown tokens warn and mean auto
  EXPECT_EQ(ActiveEncodeKernel(), best);
}

std::vector<PcepUser> CollectionCohort(size_t n, uint64_t tau_size) {
  std::vector<PcepUser> users;
  Rng rng(17);
  const double epsilons[] = {0.25, 1.0, 7.5, 40.0};
  for (size_t i = 0; i < n; ++i) {
    PcepUser user;
    user.location_index = static_cast<uint32_t>(rng.NextUint64(tau_size));
    user.epsilon = epsilons[rng.NextUint64(4)];
    users.push_back(user);
  }
  return users;
}

TEST(PcepEncodeKernelTest, CollectionBitIdenticalAcrossKernelsAndShards) {
  // The full RunPcepCollection transcript — accumulator vector, touch order,
  // report count — must be exactly equal across kernels AND across topology
  // shard counts. 6000 users crosses the parallel-encode threshold so the
  // sharded fan-out actually runs.
  const uint64_t tau_size = 777;
  const std::vector<PcepUser> users = CollectionCohort(6000, tau_size);
  PcepParams params;
  params.seed = 0xFACADE;

  ScopedEncodeKernelEnv env;
  ScopedTopologyEnv topology;
  topology.Set("1");
  env.Set("scalar");
  const PcepServer reference =
      RunPcepCollection(users, tau_size, params).value();

  const char* kernels[] = {"scalar", "avx2"};
  for (const char* kernel : kernels) {
    if (std::string(kernel) == "avx2" && !Avx2Available()) continue;
    for (const char* groups : {"1", "2", "5"}) {
      env.Set(kernel);
      topology.Set(groups);
      const PcepServer got =
          RunPcepCollection(users, tau_size, params).value();
      EXPECT_EQ(got.accumulator(), reference.accumulator())
          << kernel << " with " << groups << " topology groups";
      EXPECT_EQ(got.touched_rows(), reference.touched_rows())
          << kernel << " with " << groups << " topology groups";
      EXPECT_EQ(got.num_reports(), reference.num_reports());
    }
  }
}

TEST(PcepEncodeKernelTest, InvalidEpsilonAbortsWorkersEarly) {
  // An invalid-epsilon user mid-cohort must fail the collection with the
  // legacy message AND raise the shared abort flag so sibling chunks stop at
  // their next batch boundary: strictly fewer than n randomizer reports are
  // drawn, on every kernel and every shard count.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* reports = registry.GetCounter("local_randomizer.reports");
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);

  const uint64_t tau_size = 777;
  std::vector<PcepUser> users = CollectionCohort(6000, tau_size);
  users[100].epsilon = -1.0;  // mid-cohort, inside the first chunk's batch
  PcepParams params;
  params.seed = 0xFACADE;

  ScopedEncodeKernelEnv env;
  ScopedTopologyEnv topology;
  const char* kernels[] = {"scalar", "avx2"};
  for (const char* kernel : kernels) {
    if (std::string(kernel) == "avx2" && !Avx2Available()) continue;
    for (const char* groups : {"1", "4"}) {
      env.Set(kernel);
      topology.Set(groups);
      const uint64_t before = reports->Value();
      const auto result = RunPcepCollection(users, tau_size, params);
      ASSERT_FALSE(result.ok()) << kernel << "/" << groups;
      EXPECT_EQ(result.status().message(),
                "local randomizer requires epsilon > 0");
      EXPECT_LT(reports->Value() - before, users.size())
          << kernel << " with " << groups
          << " topology groups did not abort early";
    }
  }
  registry.set_enabled(was_enabled);
}

TEST(PcepEncodeKernelTest, BatchKeepDecisionsMatchesDeviceRngReference) {
  // The loadgen device schedule: stride 1, seed(i) = SplitMix64(base ^ (i+1)).
  // Reference decisions come from the real per-device Rng + Bernoulli.
  const SeedSchedule schedule{0x1234ABCD5678EF00ULL, 1};
  const uint64_t index_base = 4096;  // a mid-run chunk, not user 0
  const double epsilons_cycle[] = {0.25, 1.0, 7.5, 40.0};
  const size_t n = 1003;  // ragged 4-lane tail

  std::vector<double> epsilons(n);
  std::vector<uint8_t> expected(n);
  Rng rng(0);
  for (size_t i = 0; i < n; ++i) {
    epsilons[i] = epsilons_cycle[i % 4];
    rng.Seed(SplitMix64(schedule.base ^ (index_base + i + 1)));
    expected[i] = rng.Bernoulli(LrKeepProbability(epsilons[i])) ? 1 : 0;
  }

  ScopedEncodeKernelEnv env;
  const char* kernels[] = {"scalar", "avx2"};
  for (const char* kernel : kernels) {
    if (std::string(kernel) == "avx2" && !Avx2Available()) continue;
    env.Set(kernel);
    std::vector<uint8_t> keep(n, 0xCC);
    ASSERT_TRUE(BatchKeepDecisions(schedule, index_base, epsilons.data(), n,
                                   keep.data())
                    .ok());
    EXPECT_EQ(keep, expected) << kernel;
  }
}

TEST(PcepEncodeKernelTest, BatchKeepDecisionsRejectsInvalidEpsilon) {
  const SeedSchedule schedule{7, 1};
  double epsilons[] = {1.0, 0.0, 1.0};
  uint8_t keep[3];
  ScopedEncodeKernelEnv env;
  for (const char* kernel : {"scalar", "avx2"}) {
    if (std::string(kernel) == "avx2" && !Avx2Available()) continue;
    env.Set(kernel);
    const Status status = BatchKeepDecisions(schedule, 0, epsilons, 3, keep);
    ASSERT_FALSE(status.ok()) << kernel;
    EXPECT_EQ(status.message(), "local randomizer requires epsilon > 0");
  }
}

TEST(PcepEncodeKernelTest, ComputeLrConstantsEdges) {
  // Validation mirrors LocalRandomize exactly.
  for (const double bad : {0.0, -1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    const auto result = ComputeLrConstants(64, bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(),
              "local randomizer requires epsilon > 0");
  }
  ASSERT_FALSE(ComputeLrConstants(0, 1.0).ok());

  // eps = 1: the threshold is the exact integer form of the keep
  // probability, and the magnitude matches the sequential randomizer.
  const LrConstants c1 = ComputeLrConstants(64, 1.0).value();
  const double p = LrKeepProbability(1.0);
  EXPECT_EQ(c1.keep_threshold,
            static_cast<uint64_t>(std::ceil(p * 9007199254740992.0)));
  EXPECT_GT(c1.magnitude, 0.0);

  // eps = 40: p rounds to exactly 1.0; every 53-bit draw is below 2^53, so
  // the threshold compare keeps always — matching `NextDouble() < 1.0`.
  const LrConstants c40 = ComputeLrConstants(64, 40.0).value();
  EXPECT_EQ(c40.keep_threshold, uint64_t{1} << 53);

  // Overflowed exp(): the sequential `NextDouble() < NaN` is always false,
  // so the threshold is zero (never keep) and the magnitude is NaN.
  const LrConstants chuge = ComputeLrConstants(64, 1e6).value();
  EXPECT_EQ(chuge.keep_threshold, 0u);
  EXPECT_TRUE(std::isnan(chuge.magnitude));
}

TEST(PcepEncodeKernelTest, CounterTotalsMatchAcrossKernels) {
  if (!Avx2Available()) GTEST_SKIP() << "avx2 kernel unavailable";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* reports = registry.GetCounter("local_randomizer.reports");
  obs::Counter* flips = registry.GetCounter("local_randomizer.sign_flips");
  obs::Counter* encoded = registry.GetCounter("pcep.encoded_users");
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);

  const uint64_t m = 499;
  const EncodeCase c = BuildCase(1000, m, 2050, 0xC0DE);
  const SeedSchedule schedule{SplitMix64(0xFEED),
                              PcepSeeds::kClientSeedStride};
  ScopedEncodeKernelEnv env;

  uint64_t deltas[2][3];
  const char* kernels[] = {"scalar", "avx2"};
  for (int k = 0; k < 2; ++k) {
    const uint64_t before[3] = {reports->Value(), flips->Value(),
                                encoded->Value()};
    EncodeWithKernel(&env, kernels[k], c, m, schedule);
    deltas[k][0] = reports->Value() - before[0];
    deltas[k][1] = flips->Value() - before[1];
    deltas[k][2] = encoded->Value() - before[2];
  }
  // Same totals either way: one report and one encoded user per user, and —
  // because the keep decisions are bit-identical — the same flip count.
  EXPECT_EQ(deltas[0][0], c.users.size());
  EXPECT_EQ(deltas[1][0], deltas[0][0]);
  EXPECT_EQ(deltas[1][1], deltas[0][1]);
  EXPECT_EQ(deltas[0][2], c.users.size());
  EXPECT_EQ(deltas[1][2], deltas[0][2]);
  registry.set_enabled(was_enabled);
}

}  // namespace
}  // namespace pldp
