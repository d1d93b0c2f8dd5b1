#ifndef PLDP_CORE_PCEP_ENCODE_H_
#define PLDP_CORE_PCEP_ENCODE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/pcep.h"
#include "core/sign_matrix.h"
#include "util/status_or.h"

namespace pldp {

/// The PCEP encode kernel (Algorithm 1, lines 6-9, client side): for every
/// user i in a block,
///
///   sign_i = Phi[row_i, loc_i]                       (one matrix bit)
///   keep_i = Bernoulli(e^eps / (e^eps + 1))          (first draw of the
///                                                     user's seeded RNG)
///   z_i    = +-c_eps * sqrt(m)                       ('+' iff sign == keep)
///
/// This is one SplitMix64-derived bit, one RNG draw, and one sign
/// application per user — at 10^6 users it dominates the in-process pipeline
/// and the load generator — so like decode it is implemented as a family of
/// kernels behind a runtime CPU-dispatch layer:
///
///  - the **scalar** kernel IS the sequential reference path: per user, the
///    real SignMatrix::SignAt bit lookup, the real Rng re-seed, and the real
///    LocalRandomize call (including its two exp() evaluations), in exactly
///    the pre-batching order. It is deliberately not micro-optimized — it is
///    the transparent baseline every SIMD kernel is verified against, so it
///    must share no derivation shortcuts with them;
///  - the **avx2** kernel (built under PLDP_ENABLE_SIMD) processes four
///    users per step in closed form: the per-user seed schedule, the RNG's
///    first draw (which depends on only two SplitMix64 chains of the seed),
///    and the matrix sign bit are all regenerated with the 4-lane vectorized
///    SplitMix64; the Bernoulli draw becomes an exact integer threshold
///    compare (see ComputeLrConstants) against per-epsilon constants
///    memoized once per class instead of exp()'d per user; and the
///    sign/magnitude application is branchless via the same sign-bit-XOR
///    identity the decode kernels use.
///
/// In the closed-form kernels everything except the final +-magnitude is
/// integer arithmetic, and the threshold compare is an exact reformulation
/// of `NextDouble() < p`, so SIMD transcripts are **bit-identical** to the
/// sequential SignAt + LocalRandomize loop (exact ==, enforced by
/// tests/core_pcep_encode_test.cc) — for any batch size, chunk count, or
/// topology shard count — whenever the magnitude is finite (see the NaN
/// note on LrConstants).

/// The available encode kernels. Values are stable (exported as the
/// `pcep.encode_kernel` gauge: 0 = scalar, 1 = avx2).
enum class EncodeKernel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" / "avx2" — matches the PLDP_ENCODE_KERNEL override tokens.
const char* EncodeKernelName(EncodeKernel kernel);

/// Whether `kernel` can run in this process: kScalar always; kAvx2 only when
/// the binary was built with PLDP_ENABLE_SIMD and the host CPU + OS support
/// AVX2 and FMA (util/cpu.h).
bool EncodeKernelAvailable(EncodeKernel kernel);

/// The kernel the batched entry points use. Selected once (then cached): the
/// PLDP_ENCODE_KERNEL env override (`scalar` / `avx2` / `auto`) if set, else
/// the best available kernel. A forced kernel that is unavailable, or an
/// unrecognized token, logs a warning and gets the best available one. The
/// selection is logged at info.
EncodeKernel ActiveEncodeKernel();

/// Drops the cached selection so the next ActiveEncodeKernel() re-reads
/// PLDP_ENCODE_KERNEL. For tests and in-process A/B benchmarks; call it from
/// the thread that owns the env mutation, before any concurrent encode.
void ResetEncodeKernelForTesting();

/// Affine per-user seed schedule: user i's RNG seed is
///
///   SplitMix64(base ^ ((i + 1) * stride))
///
/// which covers both PcepSeeds::ClientSeed (stride = kClientSeedStride) and
/// pldp_loadgen's per-device schedule (stride = 1), and is cheap to
/// regenerate lane-wise inside the kernels.
struct SeedSchedule {
  uint64_t base = 0;
  uint64_t stride = 1;

  /// The closed form itself: user `index`'s RNG seed. The single definition
  /// shared by the batched kernels, PcepSeeds::ClientSeed, and the
  /// message-level fleet builders (protocol/client.h), so the device-side
  /// and kernel-side transcripts cannot drift apart.
  uint64_t SeedFor(uint64_t index) const {
    return SplitMix64(base ^ ((index + 1) * stride));
  }
};

/// Derived local-randomizer constants for one (m, epsilon) pair.
///
/// `keep_threshold` is the exact integer reformulation of the Bernoulli
/// draw: with u the RNG's first 53-bit draw (operator()() >> 11),
/// `NextDouble() < p`  <=>  `u < ceil(p * 2^53)`, because u * 2^-53 and
/// p * 2^53 are both exact (power-of-two scaling, and p * 2^53 <= 2^53 fits
/// a double's mantissa range for p <= 1).
///
/// Epsilons large enough to overflow exp() (> ~709.78) make the sequential
/// randomizer's probability and magnitude NaN; ComputeLrConstants maps that
/// edge to keep_threshold = 0 (the sequential `NextDouble() < NaN` is always
/// false) and a NaN magnitude, so the SIMD kernels stay deterministic and
/// identical to each other there, though the NaN payload of their output may
/// differ from the sequential path's `+-1.0 * NaN` multiply. The keep
/// *decision* agrees on every epsilon; the output *bits* agree whenever the
/// magnitude is finite.
struct LrConstants {
  double magnitude = 0.0;       // c_eps * sqrt(m)
  uint64_t keep_threshold = 0;  // keep  <=>  first 53-bit draw < threshold
};

/// Fails with the legacy LocalRandomize messages on epsilon <= 0 / NaN /
/// infinity or m == 0.
StatusOr<LrConstants> ComputeLrConstants(uint64_t m, double epsilon);

/// The per-user `SignAt + LocalRandomize` loop of RunPcepCollection, behind
/// kernel dispatch: encodes users [begin, end) of the cohort into
/// out_z[begin..end). `users`, `rows` and `out_z` are cohort-indexed arrays;
/// `rows[i]` is user i's assigned row. With the scalar kernel active this
/// runs the sequential reference loop verbatim; with a SIMD kernel active it
/// memoizes per-epsilon constants across consecutive users and encodes in
/// blocks, bit-identically. The `local_randomizer.reports` /
/// `local_randomizer.sign_flips` / `pcep.encoded_users` counters advance by
/// the same totals either way.
///
/// Fails fast on the first invalid epsilon. When `abort` is non-null it is
/// checked between batches: a set flag makes the call return OK early
/// (partial out_z, to be discarded) — the error that set it is reported by
/// the chunk that hit it.
Status EncodeUserRange(const SignMatrix& matrix, uint64_t m,
                       const SeedSchedule& schedule, const PcepUser* users,
                       const uint64_t* rows, size_t begin, size_t end,
                       const std::atomic<bool>* abort, double* out_z);

/// Batched first-draw Bernoulli decisions only (no matrix bit): keep[i] is
/// the keep/flip decision of the user with cohort index `index_base + i`,
/// exactly the first `Bernoulli(LrKeepProbability(eps))` of an Rng seeded
/// from `schedule`. This is the device-side half of the randomizer, used by
/// pldp_loadgen to batch report generation: the caller applies
/// `positive = sign_bit == keep` itself. With the scalar kernel active the
/// decisions are drawn through the real Bernoulli; SIMD kernels use the
/// threshold compare — the decision bit is identical on every epsilon.
/// Bumps the local_randomizer counters like the sequential path. Fails on
/// invalid epsilons.
Status BatchKeepDecisions(const SeedSchedule& schedule, uint64_t index_base,
                          const double* epsilons, size_t n, uint8_t* keep);

}  // namespace pldp

#endif  // PLDP_CORE_PCEP_ENCODE_H_
