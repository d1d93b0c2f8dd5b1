#include "core/sign_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/pcep_decode.h"
#include "obs/metrics.h"

namespace pldp {

namespace internal_sign_matrix {

void CountRowMaterialized() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "sign_matrix.rows_materialized");
  counter->Increment();
}

}  // namespace internal_sign_matrix

double SignMatrix::ComputeScale(uint64_t m) {
  PLDP_CHECK(m > 0) << "sign matrix needs at least one row";
  return 1.0 / std::sqrt(static_cast<double>(m));
}

BitVector SignMatrix::Row(uint64_t row) const {
  internal_sign_matrix::CountRowMaterialized();
  BitVector bits(width_);
  FillSignWords(RowSeed(row), 0, bits.word_count(), bits.MutableWords());
  bits.MaskTail();
  return bits;
}

void SignMatrix::AppendRowBytes(uint64_t row, std::vector<uint8_t>* out) const {
  internal_sign_matrix::CountRowMaterialized();
  const uint64_t stream = RowSeed(row);
  const size_t num_words = (width_ + 63) / 64;
  size_t offset = out->size();
  out->resize(offset + num_words * sizeof(uint64_t));
  // `out` holds bytes at any alignment, so the words land in an aligned
  // block first and reach it by memcpy, never through a uint64_t*.
  uint64_t block[kDecodeBlockWords];
  for (size_t word = 0; word < num_words; word += kDecodeBlockWords) {
    const size_t count = std::min(kDecodeBlockWords, num_words - word);
    FillSignWords(stream, word, count, block);
    if (word + count == num_words && (width_ & 63) != 0) {
      block[count - 1] &= (uint64_t{1} << (width_ & 63)) - 1;
    }
    std::memcpy(out->data() + offset, block, count * sizeof(uint64_t));
    offset += count * sizeof(uint64_t);
  }
}

}  // namespace pldp
