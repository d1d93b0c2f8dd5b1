#ifndef PLDP_CORE_PCEP_DECODE_KERNELS_H_
#define PLDP_CORE_PCEP_DECODE_KERNELS_H_

#include <cstddef>
#include <cstdint>

// Internal kernel entry points shared by pcep_decode.cc (registry + scalar
// implementations) and pcep_decode_avx2.cc (the SIMD translation unit, built
// with -mavx2 -mfma when PLDP_ENABLE_SIMD is on). Not part of the public
// decode API — include core/pcep_decode.h instead.
//
// Every decode kernel must honour the same accumulation contract so the
// registry can swap them freely with bit-identical results (see
// docs/performance.md): per column block, live rows are consumed in groups
// of four whose per-column contribution is the left-associated sum
// ((t0 + t1) + t2) + t3, followed by the straggler rows one at a time; and
// each t_i is the exact sign-flip +-c_i (multiplication by +-1.0 and the
// sign-bit XOR produce the same IEEE-754 double).

namespace pldp {
namespace internal_decode {

/// Portable kernel over pre-gathered live rows: `streams[i]` is the row's
/// SplitMix64 stream handle, `contributions[i]` its pre-scaled z value
/// (never exactly 0.0). Adds into `counts[0..tau_size)`.
void DecodeGatheredScalar(const uint64_t* streams, const double* contributions,
                          size_t live, uint64_t tau_size, double* counts);

/// out[i] = SplitMix64(stream + word_begin + i) for i in [0, num_words).
void FillSignWordsScalar(uint64_t stream, uint64_t word_begin,
                         size_t num_words, uint64_t* out);

#ifdef PLDP_ENABLE_SIMD

/// AVX2 kernel: 4-lane vectorized SplitMix64 row-word generation and
/// sign application via the sign-bit-XOR identity, lanes mapped to columns.
/// Bit-identical to DecodeGatheredScalar by the contract above.
void DecodeGatheredAvx2(const uint64_t* streams, const double* contributions,
                        size_t live, uint64_t tau_size, double* counts);

/// AVX2 word fill, bit-identical to FillSignWordsScalar (integer pipeline).
void FillSignWordsAvx2(uint64_t stream, uint64_t word_begin, size_t num_words,
                       uint64_t* out);

#endif  // PLDP_ENABLE_SIMD

}  // namespace internal_decode
}  // namespace pldp

#endif  // PLDP_CORE_PCEP_DECODE_KERNELS_H_
