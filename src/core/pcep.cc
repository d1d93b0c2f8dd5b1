#include "core/pcep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "core/pcep_decode.h"
#include "core/pcep_encode.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cpu.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pldp {
namespace {

/// Below this cohort size the parallel-encode fan-out costs more than the
/// perturbation work it distributes; encode runs sequentially.
constexpr size_t kParallelEncodeMinUsers = 4096;

/// Below this region size the EstimateParallel partial-combine runs
/// serially; the fan-out only pays for itself on wide regions.
constexpr uint64_t kParallelCombineMinColumns = 4096;

obs::Counter* ReportsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pcep.reports");
  return counter;
}

obs::Counter* DecodedRowsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pcep.decoded_rows");
  return counter;
}

obs::Counter* SkippedZeroRowsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pcep.skipped_zero_rows");
  return counter;
}

/// Which decode kernel this process dispatches to (0 = scalar, 1 = avx2).
/// Re-exported on every decode: the registry may have been enabled after the
/// first kernel selection, and the set is one relaxed store.
void ExportDecodeKernelGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("pcep.decode_kernel");
  gauge->Set(static_cast<double>(ActiveDecodeKernel()));
}

/// Same for the encode kernel (0 = scalar, 1 = avx2). Also resolves the
/// cached selection on the issuing thread, so the env-driven selection never
/// happens concurrently on pool workers.
void ExportEncodeKernelGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("pcep.encode_kernel");
  gauge->Set(static_cast<double>(ActiveEncodeKernel()));
}

/// Books a finished decode: `live` rows actually decoded, the rest of the
/// touched stream skipped because their accumulator cancelled to exactly 0.
void CountDecodedRows(size_t live, size_t touched) {
  DecodedRowsCounter()->Increment(live);
  SkippedZeroRowsCounter()->Increment(touched - live);
}

obs::Counter* MClampedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pcep.m_clamped");
  return counter;
}

}  // namespace

StatusOr<PcepDimensions> ComputePcepDimensions(uint64_t n, uint64_t tau_size,
                                               double beta, uint64_t max_m) {
  if (n == 0) return Status::InvalidArgument("PCEP needs at least one user");
  if (tau_size == 0) {
    return Status::InvalidArgument("PCEP needs a non-empty region");
  }
  if (!(beta > 0.0 && beta < 1.0)) {
    return Status::InvalidArgument("beta must be in (0, 1), got " +
                                   std::to_string(beta));
  }
  if (max_m == 0) return Status::InvalidArgument("max_reduced_dimension == 0");

  PcepDimensions dims;
  const double d = static_cast<double>(tau_size);
  dims.delta = std::sqrt(std::log(2.0 * d / beta) / static_cast<double>(n));
  const double m_real = std::log(d + 1.0) * std::log(2.0 / beta) /
                        (dims.delta * dims.delta);
  const double m_ceil = std::ceil(m_real);
  dims.m = m_ceil < 1.0 ? 1 : static_cast<uint64_t>(m_ceil);
  if (dims.m > max_m) {
    // Capping m keeps memory bounded but weakens the Theorem 4.5 guarantee;
    // surface it so capped runs are visible in logs and run reports.
    PLDP_LOG(Warning) << "PCEP reduced dimension m=" << dims.m
                      << " exceeds max_reduced_dimension=" << max_m
                      << "; clamping (the Theorem 4.5 error bound no longer "
                         "applies at the configured confidence)";
    MClampedCounter()->Increment();
    dims.m = max_m;
  }
  return dims;
}

StatusOr<PcepServer> PcepServer::Create(uint64_t tau_size, uint64_t n_expected,
                                        const PcepParams& params) {
  PcepDimensions dims;
  PLDP_ASSIGN_OR_RETURN(
      dims, ComputePcepDimensions(n_expected, tau_size, params.beta,
                                  params.max_reduced_dimension));
  const PcepSeeds seeds(params.seed);
  return PcepServer(tau_size, dims, seeds.matrix);
}

void PcepServer::Accumulate(uint64_t row, double z) {
  PLDP_CHECK(row < z_.size()) << "row index out of range";
  // A dedicated touched flag, not `z_[row] == 0.0`: reports can cancel an
  // accumulator back to exactly zero, and keying on the value would push the
  // row a second time on its next report (double-counting it in decode).
  if (!row_touched_[row]) {
    row_touched_[row] = 1;
    touched_rows_.push_back(row);
  }
  z_[row] += z;
  ++num_reports_;
  ReportsCounter()->Increment();
}

Status PcepServer::RestoreState(const std::vector<double>& z,
                                const std::vector<uint64_t>& touched_rows,
                                uint64_t num_reports) {
  if (z.size() != z_.size()) {
    return Status::InvalidArgument(
        "snapshot accumulator length " + std::to_string(z.size()) +
        " does not match m=" + std::to_string(z_.size()));
  }
  if (touched_rows.size() > z_.size()) {
    return Status::InvalidArgument("snapshot touches more rows than exist");
  }
  std::vector<uint8_t> touched_flags(z_.size(), 0);
  for (const uint64_t row : touched_rows) {
    if (row >= z_.size()) {
      return Status::InvalidArgument("snapshot touched row " +
                                     std::to_string(row) + " out of range");
    }
    if (touched_flags[row]) {
      return Status::InvalidArgument("snapshot lists row " +
                                     std::to_string(row) + " twice");
    }
    touched_flags[row] = 1;
  }
  z_ = z;
  touched_rows_ = touched_rows;
  row_touched_ = std::move(touched_flags);
  num_reports_ = num_reports;
  return Status::OK();
}

std::vector<double> PcepServer::Estimate() const {
  PLDP_SPAN("pcep.decode");
  ExportDecodeKernelGauge();
  std::vector<double> counts(tau_size_, 0.0);
  const size_t live =
      DecodeRowsBlocked(matrix_, z_, touched_rows_.data(),
                        touched_rows_.size(), tau_size_, counts.data());
  CountDecodedRows(live, touched_rows_.size());
  return counts;
}

std::vector<double> PcepServer::EstimateParallel(unsigned num_threads) const {
  // Nested inside a pool chunk (RunPsda's per-cluster fan-out), the chunks
  // below would run inline anyway: the serial decode gives the same
  // parallelism without partial shards, so the bits there do not depend on
  // `num_threads`.
  if (num_threads <= 1 || touched_rows_.size() < 2 * num_threads ||
      ThreadPool::Global().InWorker()) {
    return Estimate();
  }
  PLDP_SPAN("pcep.decode_parallel");
  // Resolve the kernel on the issuing thread so the env-driven selection
  // never happens concurrently on pool workers.
  ExportDecodeKernelGauge();
  // Workers start with an empty span stack of their own; handing them the
  // decode span keeps their spans nested under it in the exported tree.
  const int64_t decode_span = obs::TraceCollector::Global().CurrentSpan();
  // Each chunk's partial accumulator is allocated *inside* its worker, so
  // first-touch places it on the worker's NUMA node / cache domain instead
  // of concentrating every partial on the issuing thread's node.
  std::vector<std::vector<double>> partials(num_threads);
  std::vector<size_t> live_per_chunk(num_threads, 0);
  ThreadPool::Global().ParallelFor(
      0, touched_rows_.size(), num_threads,
      [&](unsigned chunk, size_t begin, size_t end) {
        PLDP_SPAN_PARENT("pcep.decode_worker", decode_span);
        partials[chunk].assign(tau_size_, 0.0);
        live_per_chunk[chunk] = DecodeRowsBlocked(
            matrix_, z_, touched_rows_.data() + begin, end - begin, tau_size_,
            partials[chunk].data());
      });
  size_t live = 0;
  for (const size_t chunk_live : live_per_chunk) live += chunk_live;
  CountDecodedRows(live, touched_rows_.size());

  // Combine in chunk order: chunk boundaries depend only on the row count
  // and `num_threads`, so the result is deterministic for a fixed thread
  // count no matter how the pool scheduled the chunks. The combine itself
  // fans out over disjoint *column* shards — within each column the
  // partials still add in ascending chunk order, so the result is
  // bit-identical to the old serial combine for any combine-shard count
  // (regression-tested in tests/core_pcep_test.cc).
  std::vector<double> counts(tau_size_, 0.0);
  const auto combine_columns = [&](size_t col_begin, size_t col_end) {
    for (unsigned t = 0; t < num_threads; ++t) {
      const std::vector<double>& partial = partials[t];
      if (partial.empty()) continue;  // chunk never ran (empty row range)
      for (size_t k = col_begin; k < col_end; ++k) counts[k] += partial[k];
    }
  };
  if (tau_size_ < kParallelCombineMinColumns) {
    combine_columns(0, tau_size_);
  } else {
    const unsigned combine_chunks = TopologyAlignedChunks(num_threads);
    ThreadPool::Global().ParallelFor(
        0, tau_size_, combine_chunks,
        [&](unsigned, size_t col_begin, size_t col_end) {
          PLDP_SPAN_PARENT("pcep.decode_combine", decode_span);
          combine_columns(col_begin, col_end);
        });
  }
  return counts;
}

double PcepServer::EstimateItem(uint64_t item) const {
  PLDP_CHECK(item < tau_size_) << "item outside the region";
  const double scale = matrix_.scale();
  double count = 0.0;
  for (const uint64_t row : touched_rows_) {
    const double zj = z_[row];
    if (zj == 0.0) continue;
    count += matrix_.SignAt(row, item) ? zj * scale : -zj * scale;
  }
  return count;
}

StatusOr<PcepServer> RunPcepCollection(const std::vector<PcepUser>& users,
                                       uint64_t tau_size,
                                       const PcepParams& params) {
  PLDP_SPAN("pcep.encode");
  PLDP_ASSIGN_OR_RETURN(PcepServer server,
                        PcepServer::Create(tau_size, users.size(), params));
  const PcepSeeds seeds(params.seed);
  Rng row_rng(seeds.row_assignment);
  const SignMatrix& matrix = server.sign_matrix();

  for (const PcepUser& user : users) {
    if (user.location_index >= tau_size) {
      return Status::InvalidArgument("user location index outside the region");
    }
  }

  // Row assignment (Algorithm 1, line 6) is one serial walk of the shared
  // RNG; it stays sequential so the schedule matches the message-level
  // simulation. The per-user perturbation below is where the time goes.
  std::vector<uint64_t> rows(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    rows[i] = server.AssignRow(&row_rng);
  }

  // Every client RNG is seeded independently from the user index, so workers
  // can perturb disjoint user ranges concurrently through the batched encode
  // kernels (core/pcep_encode.h), which are bit-identical to the sequential
  // SignAt + LocalRandomize loop. Each worker writes its users' sanitized
  // values into their slots of one index-aligned vector; draining that
  // vector in user order afterwards reproduces the sequential accumulate
  // stream bit-for-bit, for any chunk count. Chunk counts are rounded to the
  // topology group count so ranges split evenly across NUMA nodes / cache
  // domains.
  ThreadPool& pool = ThreadPool::Global();
  const unsigned num_chunks =
      users.size() < kParallelEncodeMinUsers
          ? 1
          : TopologyAlignedChunks(pool.num_threads());
  // Resolve the kernel on the issuing thread so the env-driven selection
  // never happens concurrently on pool workers.
  ExportEncodeKernelGauge();
  const int64_t encode_span = obs::TraceCollector::Global().CurrentSpan();
  std::vector<double> sanitized(users.size(), 0.0);
  std::vector<Status> chunk_status(num_chunks, Status::OK());
  // A failed chunk raises `abort` so sibling chunks stop at their next batch
  // boundary instead of encoding users whose output will be discarded.
  std::atomic<bool> abort{false};
  const SeedSchedule schedule{seeds.client_base, PcepSeeds::kClientSeedStride};
  pool.ParallelFor(
      0, users.size(), num_chunks,
      [&](unsigned chunk, size_t begin, size_t end) {
        PLDP_SPAN_PARENT("pcep.encode_worker", encode_span);
        const Status status =
            EncodeUserRange(matrix, server.m(), schedule, users.data(),
                            rows.data(), begin, end, &abort,
                            sanitized.data());
        if (!status.ok()) {
          chunk_status[chunk] = status;
          abort.store(true, std::memory_order_relaxed);
        }
      });
  for (const Status& status : chunk_status) {
    PLDP_RETURN_IF_ERROR(status);
  }

  for (size_t i = 0; i < users.size(); ++i) {
    server.Accumulate(rows[i], sanitized[i]);
  }
  return server;
}

StatusOr<std::vector<double>> RunPcep(const std::vector<PcepUser>& users,
                                      uint64_t tau_size,
                                      const PcepParams& params) {
  PLDP_ASSIGN_OR_RETURN(const PcepServer server,
                        RunPcepCollection(users, tau_size, params));
  return server.Estimate();
}

}  // namespace pldp
