// Parity + determinism suite for the dispatched decode kernels: the AVX2
// kernel against the scalar kernel (bit-identical, exact ==) and against the
// entry-by-entry SignAt reference (reassociation slack), over tau sizes that
// exercise the 4-column vector groups, word tails, and block boundaries, for
// dense and sparse touched-row sets; plus the PLDP_DECODE_KERNEL override
// round-trip, the scratch-arena steady state, the decoded/skipped counter
// split, and the vectorized SignMatrix::Row fill. Every AVX2 assertion skips
// gracefully when the kernel is unavailable (non-x86 or PLDP_ENABLE_SIMD=OFF
// builds still compile and pass this suite on the scalar path).

#include "core/pcep_decode.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pcep.h"
#include "core/sign_matrix.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace pldp {
namespace {

bool Avx2Available() {
  return DecodeKernelAvailable(DecodeKernel::kAvx2);
}

/// Entry-by-entry reference decode straight off the matrix definition.
std::vector<double> NaiveDecode(const SignMatrix& matrix,
                                const std::vector<double>& z,
                                const std::vector<uint64_t>& rows,
                                uint64_t tau_size) {
  std::vector<double> counts(tau_size, 0.0);
  const double scale = matrix.scale();
  for (const uint64_t row : rows) {
    const double zj = z[row];
    if (zj == 0.0) continue;
    for (uint64_t k = 0; k < tau_size; ++k) {
      counts[k] += matrix.SignAt(row, k) ? zj * scale : -zj * scale;
    }
  }
  return counts;
}

void ExpectClose(const std::vector<double>& got,
                 const std::vector<double>& want, double rel,
                 const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_NEAR(got[k], want[k], rel * (1.0 + std::fabs(want[k])))
        << label << " location " << k;
  }
}

struct DecodeCase {
  SignMatrix matrix;
  std::vector<double> z;
  std::vector<uint64_t> rows;
};

/// `stride` 1 gives a dense touched set (every row, some with exact-zero z);
/// larger strides leave most rows untouched (the fan-out steady state).
DecodeCase BuildCase(uint64_t tau_size, uint64_t m, uint64_t stride,
                     uint64_t seed) {
  DecodeCase c{SignMatrix(seed, m, tau_size), std::vector<double>(m, 0.0), {}};
  Rng rng(seed ^ 0x5EED);
  for (uint64_t row = 0; row < m; row += stride + rng.NextUint64(stride)) {
    c.rows.push_back(row);
    c.z[row] = row % 11 == 0 ? 0.0 : 2.0 * rng.NextDouble() - 1.0;
  }
  return c;
}

size_t RunKernel(DecodeKernel kernel, const DecodeCase& c, uint64_t tau_size,
                 std::vector<double>* counts) {
  counts->assign(tau_size, 0.0);
  return DecodeRowsBlockedWithKernel(kernel, c.matrix, c.z, c.rows.data(),
                                     c.rows.size(), tau_size, counts->data());
}

class PcepSimdParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PcepSimdParityTest, KernelsBitIdenticalAndMatchReference) {
  const uint64_t tau_size = GetParam();
  // Keep the largest widths affordable: enough rows to cover all four-row
  // group + straggler paths, not the full protocol-sized m.
  const uint64_t m = tau_size >= 16384 ? 257 : 997;
  for (const uint64_t stride : {uint64_t{1}, uint64_t{7}}) {
    const DecodeCase c = BuildCase(tau_size, m, stride, 0xBEEF + stride);
    std::vector<double> scalar;
    const size_t scalar_live =
        RunKernel(DecodeKernel::kScalar, c, tau_size, &scalar);
    ExpectClose(scalar, NaiveDecode(c.matrix, c.z, c.rows, tau_size), 1e-9,
                "scalar-vs-reference");
    if (!Avx2Available()) continue;
    std::vector<double> avx2;
    const size_t avx2_live = RunKernel(DecodeKernel::kAvx2, c, tau_size, &avx2);
    EXPECT_EQ(avx2_live, scalar_live);
    // The determinism contract: exact ==, not tolerance.
    EXPECT_EQ(avx2, scalar) << "avx2 kernel diverged at stride " << stride;
  }
}

// 1: degenerate region; 63/64/65: word-tail boundaries (63 also exercises
// the ragged sub-4-column vector tail); 127/128: two-word rows with and
// without a ragged tail; 1000: multi-word inside one cache block; 16384: the
// benchmark width, spanning four 64-word column blocks.
INSTANTIATE_TEST_SUITE_P(TauSizes, PcepSimdParityTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000,
                                           16384));

TEST(PcepSimdKernelTest, NamesAndAvailability) {
  EXPECT_STREQ(DecodeKernelName(DecodeKernel::kScalar), "scalar");
  EXPECT_STREQ(DecodeKernelName(DecodeKernel::kAvx2), "avx2");
  EXPECT_TRUE(DecodeKernelAvailable(DecodeKernel::kScalar));
#ifndef __x86_64__
  EXPECT_FALSE(DecodeKernelAvailable(DecodeKernel::kAvx2));
#endif
}

/// Restores the pre-test PLDP_DECODE_KERNEL value (and cached selection) no
/// matter how the test exits.
class ScopedKernelEnv {
 public:
  ScopedKernelEnv() {
    const char* old = std::getenv("PLDP_DECODE_KERNEL");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
  }
  ~ScopedKernelEnv() {
    if (had_old_) {
      setenv("PLDP_DECODE_KERNEL", old_.c_str(), 1);
    } else {
      unsetenv("PLDP_DECODE_KERNEL");
    }
    ResetDecodeKernelForTesting();
  }

  void Set(const char* value) {
    setenv("PLDP_DECODE_KERNEL", value, 1);
    ResetDecodeKernelForTesting();
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(PcepSimdKernelTest, EnvOverrideRoundTrip) {
  ScopedKernelEnv env;
  const DecodeKernel best =
      Avx2Available() ? DecodeKernel::kAvx2 : DecodeKernel::kScalar;

  env.Set("scalar");
  EXPECT_EQ(ActiveDecodeKernel(), DecodeKernel::kScalar);

  // A forced avx2 runs avx2 where available and falls back to scalar
  // gracefully where not.
  env.Set("avx2");
  EXPECT_EQ(ActiveDecodeKernel(), Avx2Available() ? DecodeKernel::kAvx2
                                                  : DecodeKernel::kScalar);

  // avx512 is not a token: it warns like any unknown one and runs the best
  // available kernel, never an error.
  env.Set("avx512");
  EXPECT_EQ(ActiveDecodeKernel(), best);

  env.Set("auto");
  EXPECT_EQ(ActiveDecodeKernel(), best);

  env.Set("AVX2");  // tokens are case-insensitive
  EXPECT_EQ(ActiveDecodeKernel(), Avx2Available() ? DecodeKernel::kAvx2
                                                  : DecodeKernel::kScalar);

  env.Set("bogus");  // unknown tokens warn and mean auto
  EXPECT_EQ(ActiveDecodeKernel(), best);
}

TEST(PcepSimdKernelTest, EstimateBitIdenticalAcrossKernels) {
  if (!Avx2Available()) GTEST_SKIP() << "avx2 kernel unavailable";
  std::vector<PcepUser> users;
  Rng rng(11);
  for (int i = 0; i < 6000; ++i) {
    users.push_back({static_cast<uint32_t>(rng.NextUint64(777)), 1.0});
  }
  PcepParams params;
  params.seed = 0xFACADE;
  const PcepServer server = RunPcepCollection(users, 777, params).value();

  ScopedKernelEnv env;
  env.Set("scalar");
  const std::vector<double> scalar = server.Estimate();
  const std::vector<double> scalar_par = server.EstimateParallel(4);
  env.Set("avx2");
  // The full public decode paths, not just the kernel: same counts arrays,
  // exact ==, for any thread count.
  EXPECT_EQ(server.Estimate(), scalar);
  EXPECT_EQ(server.EstimateParallel(4), scalar_par);
}

TEST(PcepSimdKernelTest, ScratchSteadyStateDoesNotReallocate) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* grows = registry.GetCounter("pcep.decode_scratch_grows");
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);

  const DecodeCase c = BuildCase(1000, 500, 1, 0xA11C);
  std::vector<double> counts(1000, 0.0);

  // Caller-passed scratch: the first decode may grow it, repeats must not.
  DecodeScratch scratch;
  DecodeRowsBlocked(c.matrix, c.z, c.rows.data(), c.rows.size(), 1000,
                    counts.data(), &scratch);
  const uint64_t after_warmup = grows->Value();
  for (int rep = 0; rep < 5; ++rep) {
    DecodeRowsBlocked(c.matrix, c.z, c.rows.data(), c.rows.size(), 1000,
                      counts.data(), &scratch);
  }
  EXPECT_EQ(grows->Value(), after_warmup) << "caller scratch reallocated";

  // Thread-local arena (scratch == nullptr), the Estimate fan-out path.
  DecodeRowsBlocked(c.matrix, c.z, c.rows.data(), c.rows.size(), 1000,
                    counts.data());
  const uint64_t after_tls_warmup = grows->Value();
  for (int rep = 0; rep < 5; ++rep) {
    DecodeRowsBlocked(c.matrix, c.z, c.rows.data(), c.rows.size(), 1000,
                      counts.data());
  }
  EXPECT_EQ(grows->Value(), after_tls_warmup) << "thread-local arena "
                                                 "reallocated";
  registry.set_enabled(was_enabled);
}

TEST(PcepSimdKernelTest, DecodedRowsSplitsOutSkippedZeroRows) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* decoded = registry.GetCounter("pcep.decoded_rows");
  obs::Counter* skipped = registry.GetCounter("pcep.skipped_zero_rows");
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);

  PcepParams params;
  PcepServer server = PcepServer::Create(64, 1000, params).value();
  server.Accumulate(3, 1.25);
  server.Accumulate(7, 2.0);
  server.Accumulate(7, -2.0);  // cancels back to exactly zero
  server.Accumulate(9, -0.5);
  ASSERT_EQ(server.num_touched_rows(), 3u);

  const uint64_t decoded_before = decoded->Value();
  const uint64_t skipped_before = skipped->Value();
  server.Estimate();
  // Row 7 is touched but its z cancelled: it must count as skipped, not as
  // decoded (the kernel never expands it).
  EXPECT_EQ(decoded->Value(), decoded_before + 2);
  EXPECT_EQ(skipped->Value(), skipped_before + 1);
  registry.set_enabled(was_enabled);
}

TEST(PcepSimdKernelTest, RowFillMatchesRowWordAcrossWidths) {
  // SignMatrix::Row now bulk-fills through the dispatched FillSignWords;
  // words must match RowWord exactly and the tail must stay masked.
  for (const uint64_t width : {1u, 63u, 64u, 65u, 127u, 130u, 4097u}) {
    const SignMatrix matrix(0xF00D + width, 64, width);
    for (const uint64_t row : {uint64_t{0}, uint64_t{17}, uint64_t{63}}) {
      const BitVector bits = matrix.Row(row);
      ASSERT_EQ(bits.size(), width);
      const size_t full = width / 64;
      for (size_t w = 0; w < full; ++w) {
        EXPECT_EQ(bits.Word(w), matrix.RowWord(row, w))
            << "width " << width << " word " << w;
      }
      if (width % 64 != 0) {
        const uint64_t mask = (uint64_t{1} << (width % 64)) - 1;
        EXPECT_EQ(bits.Word(full), matrix.RowWord(row, full) & mask)
            << "width " << width << " tail";
      }
      for (uint64_t col = 0; col < std::min<uint64_t>(width, 130); ++col) {
        EXPECT_EQ(bits.Get(col), matrix.SignAt(row, col));
      }
    }
  }
}

TEST(PcepSimdKernelTest, FillSignWordsHonoursOffsets) {
  // Filling [word_begin, word_begin + n) must agree with filling from zero:
  // the stream is a pure counter hash, offsets just slide the window.
  const uint64_t stream = SplitMix64(0xDECAF);
  std::vector<uint64_t> from_zero(64);
  FillSignWords(stream, 0, from_zero.size(), from_zero.data());
  for (const size_t begin : {size_t{1}, size_t{3}, size_t{60}}) {
    std::vector<uint64_t> window(from_zero.size() - begin);
    FillSignWords(stream, begin, window.size(), window.data());
    for (size_t i = 0; i < window.size(); ++i) {
      EXPECT_EQ(window[i], from_zero[begin + i]) << "begin " << begin;
    }
  }
}

}  // namespace
}  // namespace pldp
