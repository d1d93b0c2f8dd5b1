#include "core/pcep_encode.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/error_model.h"
#include "core/local_randomizer.h"
#include "core/pcep_encode_kernels.h"
#include "core/simd_select.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace pldp {

namespace internal_encode {

// Closed-form scalar batch helpers. These are NOT the kScalar kernel (that
// is the sequential reference loop in EncodeUserRange below) — they exist so
// the SIMD kernels can delegate their straggler tails (n % lanes) to plain
// code that shares the SIMD kernels' closed-form derivation, and they follow
// the same bit-identity contract.

size_t EncodeUsersScalar(const EncodeBatchArgs& args, size_t n,
                         double* out_z) {
  Rng rng(0);
  size_t keeps = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t user_index = args.index_base + i;
    rng.Seed(SplitMix64(args.seed_base ^
                        ((user_index + 1) * args.seed_stride)));
    const bool keep = (rng() >> 11) < args.thresholds[i];
    // sign_i = Phi[row_i, loc_i], regenerated like SignMatrix::SignAt.
    const uint64_t stream = SplitMix64(
        args.matrix_seed ^ ((args.rows[i] + 1) * 0x9E3779B97F4A7C15ULL));
    const uint64_t loc = args.users[i].location_index;
    const bool sign = (SplitMix64(stream + (loc >> 6)) >> (loc & 63)) & 1;
    // z = +-magnitude, '+' iff sign == keep: flip the sign bit when they
    // disagree (bit-identical to +-1.0 * magnitude for finite magnitudes).
    const uint64_t flip = static_cast<uint64_t>(sign != keep) << 63;
    out_z[i] = std::bit_cast<double>(
        std::bit_cast<uint64_t>(args.magnitudes[i]) ^ flip);
    keeps += keep;
  }
  return keeps;
}

size_t KeepDecisionsScalar(uint64_t seed_base, uint64_t seed_stride,
                           uint64_t index_base, const uint64_t* thresholds,
                           size_t n, uint8_t* keep) {
  Rng rng(0);
  size_t keeps = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t user_index = index_base + i;
    rng.Seed(SplitMix64(seed_base ^ ((user_index + 1) * seed_stride)));
    const bool k = (rng() >> 11) < thresholds[i];
    keep[i] = k ? 1 : 0;
    keeps += k;
  }
  return keeps;
}

}  // namespace internal_encode

namespace {

using internal_encode::EncodeBatchArgs;

/// Users per kernel invocation: big enough to amortize dispatch and the
/// per-batch counter bumps, small enough that the scratch arrays stay
/// L1/L2-resident (4 arrays x 8 B x 1024 = 32 KiB).
constexpr size_t kEncodeBatch = 1024;

struct KernelTable {
  EncodeKernel kind;
  size_t (*encode_users)(const EncodeBatchArgs& args, size_t n,
                         double* out_z);
  size_t (*keep_decisions)(uint64_t seed_base, uint64_t seed_stride,
                           uint64_t index_base, const uint64_t* thresholds,
                           size_t n, uint8_t* keep);
};

constexpr KernelTable kScalarTable = {
    EncodeKernel::kScalar,
    &internal_encode::EncodeUsersScalar,
    &internal_encode::KeepDecisionsScalar,
};

#ifdef PLDP_ENABLE_SIMD
constexpr KernelTable kAvx2Table = {
    EncodeKernel::kAvx2,
    &internal_encode::EncodeUsersAvx2,
    &internal_encode::KeepDecisionsAvx2,
};
#endif

const KernelTable* TableFor(EncodeKernel kernel) {
  switch (kernel) {
    case EncodeKernel::kScalar:
      return &kScalarTable;
    case EncodeKernel::kAvx2:
#ifdef PLDP_ENABLE_SIMD
      return &kAvx2Table;
#else
      break;
#endif
  }
  PLDP_LOG(Fatal) << "encode kernel " << EncodeKernelName(kernel)
                  << " is not compiled into this binary";
  return nullptr;  // unreachable
}

/// The cached selection. Encode paths resolve it on the calling thread
/// before any worker fan-out, so the env read never races the pool.
std::atomic<const KernelTable*> g_active_table{nullptr};

const KernelTable& ActiveTable() {
  const KernelTable* table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = TableFor(internal_simd::SelectAvx2("PLDP_ENCODE_KERNEL",
                                               "PCEP encode")
                         ? EncodeKernel::kAvx2
                         : EncodeKernel::kScalar);
    g_active_table.store(table, std::memory_order_release);
  }
  return *table;
}

// Same counters the legacy per-user LocalRandomize bumps (registry lookups
// return the shared instances), plus a batched-path throughput counter.
obs::Counter* ReportsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("local_randomizer.reports");
  return counter;
}

obs::Counter* SignFlipsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("local_randomizer.sign_flips");
  return counter;
}

obs::Counter* EncodedUsersCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pcep.encoded_users");
  return counter;
}

/// Per-batch scratch: threshold/magnitude arrays the kernels read.
/// Thread-local so concurrent encode chunks never share (pool workers are
/// immortal, so this allocates once per worker).
struct EncodeScratch {
  uint64_t thresholds[kEncodeBatch];
  double magnitudes[kEncodeBatch];
};

EncodeScratch& ThreadLocalScratch() {
  thread_local EncodeScratch scratch;
  return scratch;
}

/// Memoizes ComputeLrConstants over consecutive users. Cohorts draw epsilon
/// from a distribution over a few classes (EpsilonsE1/E2) *interleaved*
/// user-by-user, so a single most-recent slot would thrash and pay the two
/// exp() calls per user that dominate the legacy scalar path; a tiny
/// fully-associative cache (linear scan over <= 8 doubles, a few ns) makes
/// every class after its first user a hit. NaN epsilons never match the
/// scan (NaN != NaN) and fall through to ComputeLrConstants' validation.
class LrConstantsMemo {
 public:
  explicit LrConstantsMemo(uint64_t m) : m_(m) {}

  StatusOr<LrConstants> For(double epsilon) {
    for (size_t i = 0; i < size_; ++i) {
      if (epsilons_[i] == epsilon) return constants_[i];
    }
    LrConstants computed;
    PLDP_ASSIGN_OR_RETURN(computed, ComputeLrConstants(m_, epsilon));
    const size_t slot = size_ < kSlots ? size_++ : next_evict_++ % kSlots;
    epsilons_[slot] = epsilon;
    constants_[slot] = computed;
    return computed;
  }

 private:
  static constexpr size_t kSlots = 8;
  uint64_t m_;
  size_t size_ = 0;
  size_t next_evict_ = 0;  // round-robin eviction beyond kSlots classes
  double epsilons_[kSlots] = {};
  LrConstants constants_[kSlots] = {};
};

}  // namespace

const char* EncodeKernelName(EncodeKernel kernel) {
  switch (kernel) {
    case EncodeKernel::kScalar:
      return "scalar";
    case EncodeKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool EncodeKernelAvailable(EncodeKernel kernel) {
  switch (kernel) {
    case EncodeKernel::kScalar:
      return true;
    case EncodeKernel::kAvx2:
      return internal_simd::Avx2Runnable();
  }
  return false;
}

EncodeKernel ActiveEncodeKernel() { return ActiveTable().kind; }

void ResetEncodeKernelForTesting() {
  g_active_table.store(nullptr, std::memory_order_release);
}

StatusOr<LrConstants> ComputeLrConstants(uint64_t m, double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("local randomizer requires epsilon > 0");
  }
  if (m == 0) {
    return Status::InvalidArgument("reduced dimension m must be positive");
  }
  LrConstants constants;
  constants.magnitude =
      CEpsilon(epsilon) * std::sqrt(static_cast<double>(m));
  const double p = LrKeepProbability(epsilon);
  if (std::isnan(p)) {
    // exp(epsilon) overflowed: the legacy `NextDouble() < NaN` is always
    // false, so no draw ever keeps (see the header's NaN note).
    constants.keep_threshold = 0;
  } else {
    // Exact: p * 2^53 is a power-of-two scaling and p <= 1 keeps it within
    // the representable integer range, so ceil() reproduces the strict
    // `u * 2^-53 < p` compare for every 53-bit u.
    constants.keep_threshold =
        static_cast<uint64_t>(std::ceil(p * 9007199254740992.0));
  }
  return constants;
}

namespace {

/// The sequential reference path, verbatim from the pre-batching
/// RunPcepCollection worker: per user, the real SignAt bit, the real Rng
/// re-seed, the real LocalRandomize (which bumps the reports/sign_flips
/// counters itself). Runs when the scalar kernel is active; every SIMD
/// kernel is parity-tested against it.
Status EncodeUserRangeReference(const SignMatrix& matrix, uint64_t m,
                                const SeedSchedule& schedule,
                                const PcepUser* users, const uint64_t* rows,
                                size_t begin, size_t end,
                                const std::atomic<bool>* abort,
                                double* out_z) {
  Rng rng(0);
  for (size_t batch = begin; batch < end; batch += kEncodeBatch) {
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
      return Status::OK();  // another chunk failed; its error is reported
    }
    const size_t batch_end = std::min(batch + kEncodeBatch, end);
    for (size_t i = batch; i < batch_end; ++i) {
      const bool sign = matrix.SignAt(rows[i], users[i].location_index);
      rng.Seed(SplitMix64(schedule.base ^ ((i + 1) * schedule.stride)));
      const StatusOr<double> z =
          LocalRandomize(sign, m, users[i].epsilon, &rng);
      if (!z.ok()) return z.status();
      out_z[i] = z.value();
    }
    EncodedUsersCounter()->Increment(batch_end - batch);
  }
  return Status::OK();
}

}  // namespace

Status EncodeUserRange(const SignMatrix& matrix, uint64_t m,
                       const SeedSchedule& schedule, const PcepUser* users,
                       const uint64_t* rows, size_t begin, size_t end,
                       const std::atomic<bool>* abort, double* out_z) {
  if (begin >= end) return Status::OK();
  const KernelTable& table = ActiveTable();
  if (table.kind == EncodeKernel::kScalar) {
    return EncodeUserRangeReference(matrix, m, schedule, users, rows, begin,
                                    end, abort, out_z);
  }
  EncodeScratch& scratch = ThreadLocalScratch();
  LrConstantsMemo memo(m);
  for (size_t batch = begin; batch < end; batch += kEncodeBatch) {
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
      return Status::OK();  // another chunk failed; its error is reported
    }
    const size_t n = std::min(kEncodeBatch, end - batch);
    for (size_t j = 0; j < n; ++j) {
      LrConstants constants;
      PLDP_ASSIGN_OR_RETURN(constants, memo.For(users[batch + j].epsilon));
      scratch.thresholds[j] = constants.keep_threshold;
      scratch.magnitudes[j] = constants.magnitude;
    }
    EncodeBatchArgs args;
    args.matrix_seed = matrix.seed();
    args.seed_base = schedule.base;
    args.seed_stride = schedule.stride;
    args.index_base = batch;
    args.users = users + batch;
    args.rows = rows + batch;
    args.thresholds = scratch.thresholds;
    args.magnitudes = scratch.magnitudes;
    const size_t keeps = table.encode_users(args, n, out_z + batch);
    ReportsCounter()->Increment(n);
    SignFlipsCounter()->Increment(n - keeps);
    EncodedUsersCounter()->Increment(n);
  }
  return Status::OK();
}

Status BatchKeepDecisions(const SeedSchedule& schedule, uint64_t index_base,
                          const double* epsilons, size_t n, uint8_t* keep) {
  const KernelTable& table = ActiveTable();
  if (table.kind == EncodeKernel::kScalar) {
    // Sequential reference: the real Bernoulli draw per user, exactly what
    // a DeviceClient's LocalRandomize would do (validation message
    // included). Bernoulli(NaN) is false, matching threshold 0.
    Rng rng(0);
    size_t keeps = 0;
    for (size_t i = 0; i < n; ++i) {
      const double epsilon = epsilons[i];
      if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
        return Status::InvalidArgument(
            "local randomizer requires epsilon > 0");
      }
      rng.Seed(SplitMix64(schedule.base ^
                          ((index_base + i + 1) * schedule.stride)));
      const bool k = rng.Bernoulli(LrKeepProbability(epsilon));
      keep[i] = k ? 1 : 0;
      keeps += k;
    }
    ReportsCounter()->Increment(n);
    SignFlipsCounter()->Increment(n - keeps);
    return Status::OK();
  }
  EncodeScratch& scratch = ThreadLocalScratch();
  // m is irrelevant to the keep decision; any nonzero value validates.
  LrConstantsMemo memo(1);
  for (size_t batch = 0; batch < n; batch += kEncodeBatch) {
    const size_t bn = std::min(kEncodeBatch, n - batch);
    for (size_t j = 0; j < bn; ++j) {
      LrConstants constants;
      PLDP_ASSIGN_OR_RETURN(constants, memo.For(epsilons[batch + j]));
      scratch.thresholds[j] = constants.keep_threshold;
    }
    const size_t keeps =
        table.keep_decisions(schedule.base, schedule.stride,
                             index_base + batch, scratch.thresholds, bn,
                             keep + batch);
    ReportsCounter()->Increment(bn);
    SignFlipsCounter()->Increment(bn - keeps);
  }
  return Status::OK();
}

}  // namespace pldp
