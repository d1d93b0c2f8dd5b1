#include "core/pcep_decode.h"

#include <algorithm>
#include <atomic>

#include "core/pcep_decode_kernels.h"
#include "core/simd_select.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace pldp {

namespace internal_decode {
namespace {

/// Expands one packed sign word into [limit] +-c contributions. The body is
/// branch-free: the sign select is arithmetic, so the inner loop
/// autovectorizes (variable-shift + convert + FMA).
inline void ExpandWord(uint64_t bits, double c, int limit, double* out) {
  for (int b = 0; b < limit; ++b) {
    out[b] += (2.0 * static_cast<double>((bits >> b) & 1) - 1.0) * c;
  }
}

}  // namespace

void DecodeGatheredScalar(const uint64_t* streams, const double* contributions,
                          size_t live, uint64_t tau_size, double* counts) {
  const size_t words = (tau_size + 63) / 64;
  const size_t full_words = tau_size / 64;
  const int tail_bits = static_cast<int>(tau_size - full_words * 64);
  const auto word_limit = [full_words, tail_bits](size_t w) {
    return w < full_words ? 64 : tail_bits;
  };

  for (size_t block = 0; block < words; block += kDecodeBlockWords) {
    const size_t block_end = std::min(words, block + kDecodeBlockWords);
    size_t i = 0;
    for (; i + 4 <= live; i += 4) {
      const uint64_t s0 = streams[i], s1 = streams[i + 1];
      const uint64_t s2 = streams[i + 2], s3 = streams[i + 3];
      const double c0 = contributions[i], c1 = contributions[i + 1];
      const double c2 = contributions[i + 2], c3 = contributions[i + 3];
      for (size_t w = block; w < block_end; ++w) {
        const uint64_t b0 = SplitMix64(s0 + w), b1 = SplitMix64(s1 + w);
        const uint64_t b2 = SplitMix64(s2 + w), b3 = SplitMix64(s3 + w);
        double* out = counts + w * 64;
        const int limit = word_limit(w);
        for (int b = 0; b < limit; ++b) {
          out[b] += (2.0 * static_cast<double>((b0 >> b) & 1) - 1.0) * c0 +
                    (2.0 * static_cast<double>((b1 >> b) & 1) - 1.0) * c1 +
                    (2.0 * static_cast<double>((b2 >> b) & 1) - 1.0) * c2 +
                    (2.0 * static_cast<double>((b3 >> b) & 1) - 1.0) * c3;
        }
      }
    }
    for (; i < live; ++i) {
      const uint64_t stream = streams[i];
      const double c = contributions[i];
      for (size_t w = block; w < block_end; ++w) {
        ExpandWord(SplitMix64(stream + w), c, word_limit(w),
                   counts + w * 64);
      }
    }
  }
}

void FillSignWordsScalar(uint64_t stream, uint64_t word_begin,
                         size_t num_words, uint64_t* out) {
  for (size_t i = 0; i < num_words; ++i) {
    out[i] = SplitMix64(stream + word_begin + i);
  }
}

}  // namespace internal_decode

namespace {

/// One row of the dispatch table: every kernel family provides the blocked
/// decode over gathered rows and the packed-word fill.
struct KernelTable {
  DecodeKernel kind;
  void (*decode)(const uint64_t* streams, const double* contributions,
                 size_t live, uint64_t tau_size, double* counts);
  void (*fill_words)(uint64_t stream, uint64_t word_begin, size_t num_words,
                     uint64_t* out);
};

constexpr KernelTable kScalarTable = {
    DecodeKernel::kScalar,
    &internal_decode::DecodeGatheredScalar,
    &internal_decode::FillSignWordsScalar,
};

#ifdef PLDP_ENABLE_SIMD
constexpr KernelTable kAvx2Table = {
    DecodeKernel::kAvx2,
    &internal_decode::DecodeGatheredAvx2,
    &internal_decode::FillSignWordsAvx2,
};
#endif

const KernelTable* TableFor(DecodeKernel kernel) {
  switch (kernel) {
    case DecodeKernel::kScalar:
      return &kScalarTable;
    case DecodeKernel::kAvx2:
#ifdef PLDP_ENABLE_SIMD
      return &kAvx2Table;
#else
      break;
#endif
  }
  PLDP_LOG(Fatal) << "decode kernel " << DecodeKernelName(kernel)
                  << " is not compiled into this binary";
  return nullptr;  // unreachable
}

/// The cached selection. Estimate paths resolve it on the calling thread
/// before any worker fan-out, so the env read never races the pool.
std::atomic<const KernelTable*> g_active_table{nullptr};

const KernelTable& ActiveTable() {
  const KernelTable* table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = TableFor(internal_simd::SelectAvx2("PLDP_DECODE_KERNEL",
                                               "PCEP decode")
                         ? DecodeKernel::kAvx2
                         : DecodeKernel::kScalar);
    g_active_table.store(table, std::memory_order_release);
  }
  return *table;
}

obs::Counter* ScratchGrowsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pcep.decode_scratch_grows");
  return counter;
}

/// Gathers the live rows — per-row stream seeds (hoisting the row-seed hash
/// out of the word loops) and pre-scaled contributions — into `scratch`,
/// reusing its capacity across calls.
size_t GatherLiveRows(const SignMatrix& matrix, const std::vector<double>& z,
                      const uint64_t* touched_rows, size_t num_rows,
                      DecodeScratch* scratch) {
  if (num_rows > scratch->streams.capacity() ||
      num_rows > scratch->contributions.capacity()) {
    ScratchGrowsCounter()->Increment();
  }
  scratch->streams.clear();
  scratch->contributions.clear();
  scratch->streams.reserve(num_rows);
  scratch->contributions.reserve(num_rows);
  const double scale = matrix.scale();
  for (size_t i = 0; i < num_rows; ++i) {
    const uint64_t row = touched_rows[i];
    const double zj = z[row];
    if (zj == 0.0) continue;  // reports on this row cancelled exactly
    scratch->streams.push_back(matrix.RowStream(row));
    scratch->contributions.push_back(zj * scale);
  }
  return scratch->streams.size();
}

/// The per-thread gather arena used when the caller passes no scratch. Pool
/// workers are never destroyed (ThreadPool::Global() is immortal), so the
/// arena persists across blocks, shards, and PSDA clusters.
DecodeScratch& ThreadLocalScratch() {
  thread_local DecodeScratch scratch;
  return scratch;
}

size_t DecodeWithTable(const KernelTable& table, const SignMatrix& matrix,
                       const std::vector<double>& z,
                       const uint64_t* touched_rows, size_t num_rows,
                       uint64_t tau_size, double* counts,
                       DecodeScratch* scratch) {
  if (tau_size == 0) return 0;
  DecodeScratch& arena = scratch != nullptr ? *scratch : ThreadLocalScratch();
  const size_t live =
      GatherLiveRows(matrix, z, touched_rows, num_rows, &arena);
  if (live > 0) {
    table.decode(arena.streams.data(), arena.contributions.data(), live,
                 tau_size, counts);
  }
  return live;
}

}  // namespace

const char* DecodeKernelName(DecodeKernel kernel) {
  switch (kernel) {
    case DecodeKernel::kScalar:
      return "scalar";
    case DecodeKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool DecodeKernelAvailable(DecodeKernel kernel) {
  switch (kernel) {
    case DecodeKernel::kScalar:
      return true;
    case DecodeKernel::kAvx2:
      return internal_simd::Avx2Runnable();
  }
  return false;
}

DecodeKernel ActiveDecodeKernel() { return ActiveTable().kind; }

void ResetDecodeKernelForTesting() {
  g_active_table.store(nullptr, std::memory_order_release);
}

size_t DecodeRowsBlocked(const SignMatrix& matrix, const std::vector<double>& z,
                         const uint64_t* touched_rows, size_t num_rows,
                         uint64_t tau_size, double* counts,
                         DecodeScratch* scratch) {
  return DecodeWithTable(ActiveTable(), matrix, z, touched_rows, num_rows,
                         tau_size, counts, scratch);
}

size_t DecodeRowsBlockedWithKernel(DecodeKernel kernel,
                                   const SignMatrix& matrix,
                                   const std::vector<double>& z,
                                   const uint64_t* touched_rows,
                                   size_t num_rows, uint64_t tau_size,
                                   double* counts, DecodeScratch* scratch) {
  PLDP_CHECK(DecodeKernelAvailable(kernel))
      << "decode kernel " << DecodeKernelName(kernel)
      << " is unavailable on this host/build";
  return DecodeWithTable(*TableFor(kernel), matrix, z, touched_rows, num_rows,
                         tau_size, counts, scratch);
}

void FillSignWords(uint64_t stream, uint64_t word_begin, size_t num_words,
                   uint64_t* out) {
  ActiveTable().fill_words(stream, word_begin, num_words, out);
}

}  // namespace pldp
