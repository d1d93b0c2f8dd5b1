#include "core/fwht.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace pldp {

void Fwht(double* data, size_t n) {
  static obs::Counter* transforms =
      obs::MetricsRegistry::Global().GetCounter("fwht.transforms");
  transforms->Increment();
  PLDP_CHECK(n != 0 && (n & (n - 1)) == 0)
      << "Fwht size must be a power of two, got " << n;
  for (size_t len = 1; len < n; len <<= 1) {
    for (size_t block = 0; block < n; block += len << 1) {
      for (size_t j = block; j < block + len; ++j) {
        const double a = data[j];
        const double b = data[j + len];
        data[j] = a + b;
        data[j + len] = a - b;
      }
    }
  }
}

uint64_t PadToPowerOfTwo(uint64_t width) {
  uint64_t k = 1;
  while (k < width) k <<= 1;
  return k;
}

}  // namespace pldp
