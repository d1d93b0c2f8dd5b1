#ifndef PLDP_CORE_FWHT_H_
#define PLDP_CORE_FWHT_H_

#include <cstddef>
#include <cstdint>

namespace pldp {

/// In-place fast Walsh–Hadamard transform over doubles — the decode kernel
/// of the Hadamard-response frequency oracle (core/hadamard.cc). With H_n
/// the n x n Hadamard matrix in natural (Sylvester) order,
///
///   Fwht(data, n):  data <- H_n * data     (unnormalized)
///
/// in O(n log n) butterfly passes instead of the O(n^2) matrix multiply.
/// `n` must be a power of two (checked; n = 1 is the identity and returns
/// immediately); PadToPowerOfTwo below maps ragged domains onto the
/// transform size.
///
/// The kernel is the textbook iterative butterfly: for each stage len = 1,
/// 2, 4, ..., pairs (a, b) at distance len become (a + b, a - b), one pass
/// over the array per stage. Each call bumps the `fwht.transforms` counter.
void Fwht(double* data, size_t n);

/// Smallest power of two >= max(width, 1): the Hadamard-response transform
/// size for a ragged domain of `width` items (indices [width, K) are
/// zero-padded slack that decodes to noise and is discarded).
uint64_t PadToPowerOfTwo(uint64_t width);

}  // namespace pldp

#endif  // PLDP_CORE_FWHT_H_
