#ifndef PLDP_CORE_PCEP_DECODE_H_
#define PLDP_CORE_PCEP_DECODE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sign_matrix.h"

namespace pldp {

/// The PCEP decode kernel (Algorithm 1, lines 11-13, restricted to rows that
/// received reports): accumulates, for every location k in [0, tau_size),
///
///   counts[k] += sum_i Phi[row_i, k] * z[row_i]
///
/// over the `num_rows` rows in `touched_rows`. This is the asymptotically
/// dominant O(m |tau|) step of the whole pipeline, so it is implemented as a
/// family of blocked kernels behind a runtime CPU-dispatch layer:
///
///  - the **scalar** kernel expands each packed 64-bit sign word into
///    +-contribution through the branchless `(2*bit - 1) * c` form;
///  - the **avx2** kernel (x86-64 with AVX2, built under PLDP_ENABLE_SIMD)
///    regenerates four row-words per step with a 4-lane vectorized SplitMix64
///    and applies signs via the sign-bit-XOR identity, four columns per
///    vector lane.
///
/// Both kernels share the same blocked layout — rows four at a time, columns
/// in kDecodeBlockWords-sized L1-resident blocks, per-row stream seeds
/// hoisted — and the same per-column accumulation order, so their results
/// are **bit-identical** (exact ==, enforced by tests/core_pcep_simd_test).
/// Against a strictly row-by-row scalar decode they differ only by
/// floating-point reassociation (relative differences at the 1e-12 scale).

/// The available decode kernels. Values are stable (exported as the
/// `pcep.decode_kernel` gauge: 0 = scalar, 1 = avx2).
enum class DecodeKernel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" / "avx2" — matches the PLDP_DECODE_KERNEL tokens.
const char* DecodeKernelName(DecodeKernel kernel);

/// Whether `kernel` can run in this process: kScalar always; kAvx2 only when
/// the binary was built with PLDP_ENABLE_SIMD and the host CPU + OS support
/// AVX2 and FMA (util/cpu.h).
bool DecodeKernelAvailable(DecodeKernel kernel);

/// The kernel the dispatching entry points use. Selected once (then cached):
/// the PLDP_DECODE_KERNEL env override (`scalar` / `avx2` / `auto`) if set,
/// else the best available kernel. A forced kernel that is unavailable, or
/// an unrecognized token, logs a warning and gets the best available one.
/// The selection is logged at info.
DecodeKernel ActiveDecodeKernel();

/// Drops the cached selection so the next ActiveDecodeKernel() re-reads
/// PLDP_DECODE_KERNEL. For tests and in-process A/B benchmarks; call it from
/// the thread that owns the env mutation, before any concurrent decode.
void ResetDecodeKernelForTesting();

/// Reusable gather buffers for the decode entry points: per-row stream
/// handles and pre-scaled contributions of the live (non-cancelled) rows.
/// Passing the same scratch across calls (or passing nullptr, which uses a
/// per-thread arena) makes the steady state allocation-free — regrowth is
/// counted by the `pcep.decode_scratch_grows` metric.
struct DecodeScratch {
  std::vector<uint64_t> streams;
  std::vector<double> contributions;
};

/// Dispatching decode entry: gathers the live rows (skipping rows whose z
/// cancelled to exactly 0.0, like EstimateItem does) into `scratch` (or the
/// per-thread arena when nullptr) and runs the active kernel. `counts` must
/// point at tau_size doubles; contributions are added to it. Returns the
/// number of live rows actually decoded.
size_t DecodeRowsBlocked(const SignMatrix& matrix, const std::vector<double>& z,
                         const uint64_t* touched_rows, size_t num_rows,
                         uint64_t tau_size, double* counts,
                         DecodeScratch* scratch = nullptr);

/// Like DecodeRowsBlocked but runs a specific kernel, bypassing the cached
/// selection (parity tests, per-kernel benchmarks). `kernel` must be
/// available (checked).
size_t DecodeRowsBlockedWithKernel(DecodeKernel kernel, const SignMatrix& matrix,
                                   const std::vector<double>& z,
                                   const uint64_t* touched_rows, size_t num_rows,
                                   uint64_t tau_size, double* counts,
                                   DecodeScratch* scratch = nullptr);

/// Fills out[i] = SplitMix64(stream + word_begin + i) for i in [0,
/// num_words), through the active kernel's word-fill routine (the same
/// 4-lane SplitMix64 the AVX2 decode uses). This is the protocol-encode hot
/// loop: SignMatrix::Row materializes O(|tau|) bits per user from it.
void FillSignWords(uint64_t stream, uint64_t word_begin, size_t num_words,
                   uint64_t* out);

/// Column-block width of the kernels, in 64-bit packed words (64 words =
/// 4096 locations = 32 KiB of counts, sized for typical L1).
inline constexpr size_t kDecodeBlockWords = 64;

}  // namespace pldp

#endif  // PLDP_CORE_PCEP_DECODE_H_
