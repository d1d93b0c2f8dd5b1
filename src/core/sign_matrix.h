#ifndef PLDP_CORE_SIGN_MATRIX_H_
#define PLDP_CORE_SIGN_MATRIX_H_

#include <cstdint>
#include <vector>

#include "util/bit_vector.h"
#include "util/random.h"

namespace pldp {

namespace internal_sign_matrix {
/// Books one materialized row into the "sign_matrix.rows_materialized"
/// counter (defined in sign_matrix.cc so this header stays obs-free).
void CountRowMaterialized();
}  // namespace internal_sign_matrix

/// The implicit Johnson-Lindenstrauss projection matrix
/// Phi in {-1/sqrt(m), +1/sqrt(m)}^{m x width} of Algorithm 1.
///
/// Entries are derived from a counter-based hash of (seed, row, word), so the
/// matrix is never materialized: the server regenerates rows on demand during
/// decoding, and a client holding the same seed can reproduce its assigned row
/// locally (the protocol simulation still ships rows over the transport to
/// account for the paper's O(|tau|) per-user communication).
///
/// Bit convention: bit 1 encodes +1/sqrt(m), bit 0 encodes -1/sqrt(m).
class SignMatrix {
 public:
  SignMatrix(uint64_t seed, uint64_t m, uint64_t width)
      : seed_(seed), m_(m), width_(width), scale_(ComputeScale(m)) {}

  uint64_t m() const { return m_; }
  uint64_t width() const { return width_; }

  /// 1/sqrt(m): the magnitude of every entry.
  double scale() const { return scale_; }

  /// The 64 packed sign bits of row `row`, words [64*word, 64*word+63].
  uint64_t RowWord(uint64_t row, uint64_t word) const {
    return SplitMix64(RowSeed(row) + word);
  }

  /// Per-row stream handle: word `w` of the row is SplitMix64(handle + w).
  /// Lets decode kernels hoist the row-seed derivation out of their word
  /// loops instead of re-deriving it on every RowWord call.
  uint64_t RowStream(uint64_t row) const { return RowSeed(row); }

  /// The raw matrix seed: RowStream(row) == SplitMix64(seed() ^ ((row + 1) *
  /// 0x9E3779B97F4A7C15)). Exposed so the batched encode kernels
  /// (core/pcep_encode.h) can regenerate row streams lane-wise for a block
  /// of users instead of calling RowStream one row at a time.
  uint64_t seed() const { return seed_; }

  /// Sign bit of entry (row, col); true means +1/sqrt(m).
  bool SignAt(uint64_t row, uint64_t col) const {
    PLDP_DCHECK(row < m_ && col < width_);
    return (RowWord(row, col >> 6) >> (col & 63)) & 1;
  }

  /// Numeric entry (row, col) in {-scale, +scale}.
  double Entry(uint64_t row, uint64_t col) const {
    return SignAt(row, col) ? scale_ : -scale_;
  }

  /// Materializes one packed row of `width` sign bits (what the server sends
  /// to a user in Algorithm 1, line 7). This is the protocol-encode hot loop
  /// — O(|tau|) bits per user — so the words are bulk-filled through the
  /// dispatched FillSignWords kernel (core/pcep_decode.h); defined in
  /// sign_matrix.cc to keep this header kernel-free.
  BitVector Row(uint64_t row) const;

  /// Appends the bytes BitVector::AppendBytes would write for Row(row) to
  /// `out`, without building the BitVector: the words are filled a fixed
  /// stack block at a time and copied out, the tail word masked. This is how
  /// a row assignment goes straight from the matrix into a reply. Counts as
  /// one materialized row, like Row().
  void AppendRowBytes(uint64_t row, std::vector<uint8_t>* out) const;

 private:
  static double ComputeScale(uint64_t m);

  /// Per-row stream seed; the +1 on row decorrelates row 0 from the raw seed.
  uint64_t RowSeed(uint64_t row) const {
    return SplitMix64(seed_ ^ ((row + 1) * 0x9E3779B97F4A7C15ULL));
  }

  uint64_t seed_;
  uint64_t m_;
  uint64_t width_;
  double scale_;
};

}  // namespace pldp

#endif  // PLDP_CORE_SIGN_MATRIX_H_
