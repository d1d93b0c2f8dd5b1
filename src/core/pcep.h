#ifndef PLDP_CORE_PCEP_H_
#define PLDP_CORE_PCEP_H_

#include <cstdint>
#include <vector>

#include "core/sign_matrix.h"
#include "util/random.h"
#include "util/status_or.h"

namespace pldp {

/// Tuning knobs shared by every PCEP instance.
struct PcepParams {
  /// Confidence parameter beta in (0, 1): the Theorem 4.5 bound holds with
  /// probability at least 1 - beta.
  double beta = 0.1;

  /// Seed from which the protocol derives the JL matrix, the server's row
  /// assignments, and per-client randomness. Same seed => same transcript.
  uint64_t seed = 0x9D2C5680u;

  /// Upper bound on the reduced dimension m (memory guard; the theoretical m
  /// grows linearly with n).
  uint64_t max_reduced_dimension = uint64_t{1} << 26;
};

/// The derived protocol dimensions of Algorithm 1, lines 1-2.
struct PcepDimensions {
  /// JL distortion parameter delta = sqrt(ln(2|tau|/beta) / n).
  double delta = 0.0;
  /// Reduced dimension m = ceil(ln(|tau|+1) * ln(2/beta) / delta^2).
  uint64_t m = 0;
};

/// Computes (delta, m) for n users over a region of `tau_size` locations.
/// Fails on n == 0, tau_size == 0, or beta outside (0, 1). When the
/// theoretical m exceeds `max_m` it is clamped, a warning is logged, and the
/// `pcep.m_clamped` counter is bumped so capped runs show up in run reports.
StatusOr<PcepDimensions> ComputePcepDimensions(uint64_t n, uint64_t tau_size,
                                               double beta, uint64_t max_m);

/// One user's input to PCEP: the index of their true location within the safe
/// region's cell ordering, and their personal epsilon.
struct PcepUser {
  uint32_t location_index = 0;
  double epsilon = 1.0;
};

/// Deterministic seed schedule of one protocol instance. The in-memory
/// execution (RunPcep) and the message-level simulation (protocol/) both use
/// this schedule, so for equal seeds they produce bit-identical transcripts.
struct PcepSeeds {
  explicit PcepSeeds(uint64_t root_seed)
      : matrix(SplitMix64(root_seed ^ 0xA5A5A5A5DEADBEEFULL)),
        row_assignment(SplitMix64(root_seed ^ 0x0F0F0F0F12345678ULL)),
        client_base(SplitMix64(root_seed ^ 0x3C3C3C3C87654321ULL)) {}

  /// Stride of the affine per-user seed schedule below. The batched encode
  /// kernels (core/pcep_encode.h) regenerate the same schedule lane-wise.
  static constexpr uint64_t kClientSeedStride = 0xD1B54A32D192ED03ULL;

  uint64_t ClientSeed(uint64_t user_index) const {
    return SplitMix64(client_base ^ ((user_index + 1) * kClientSeedStride));
  }

  uint64_t matrix;
  uint64_t row_assignment;
  uint64_t client_base;
};

/// Server-side state of one PCEP instance (Algorithm 1 without the clients):
/// owns the implicit JL matrix, assigns rows, accumulates sanitized bits, and
/// decodes the per-location count estimates.
class PcepServer {
 public:
  /// `tau_size` is the region size |tau|; `n_expected` the number of users
  /// that will participate (it determines m per line 2 of Algorithm 1).
  static StatusOr<PcepServer> Create(uint64_t tau_size, uint64_t n_expected,
                                     const PcepParams& params);

  uint64_t m() const { return dims_.m; }
  double delta() const { return dims_.delta; }
  uint64_t tau_size() const { return tau_size_; }
  const SignMatrix& sign_matrix() const { return matrix_; }

  /// Draws a uniform row index for the next user (Algorithm 1, line 6).
  uint64_t AssignRow(Rng* rng) const { return rng->NextUint64(dims_.m); }

  /// Adds a user's sanitized value to row `row` of z (line 9).
  void Accumulate(uint64_t row, double z);

  /// Number of Accumulate calls so far.
  uint64_t num_reports() const { return num_reports_; }

  /// Number of distinct rows that received at least one report — the length
  /// of the decode stream (decode cost is num_touched_rows() * tau_size()).
  uint64_t num_touched_rows() const { return touched_rows_.size(); }

  /// Decodes the estimated count of every location in tau (lines 11-13):
  /// f[k] = <Phi e_k, z>, streamed over the rows that received reports.
  std::vector<double> Estimate() const;

  /// Parallel decode over `num_threads` ordered chunks of the touched rows,
  /// executed on the shared ThreadPool (util/thread_pool.h). Chunk
  /// boundaries depend only on the row count and `num_threads`, and the
  /// per-chunk partials are combined in chunk order, so the result is
  /// deterministic for a fixed thread count — bit-identical across runs and
  /// across pool sizes — and equal to Estimate() up to floating-point
  /// reassociation (relative differences at the 1e-12 scale). Called from
  /// inside a pool chunk, where its chunks would run inline, it is exactly
  /// Estimate().
  std::vector<double> EstimateParallel(unsigned num_threads) const;

  /// The raw accumulator vector z (length m), exposed so the checkpoint
  /// subsystem can snapshot an in-flight collection.
  const std::vector<double>& accumulator() const { return z_; }

  /// Rows that received at least one report, in first-touch order. Restoring
  /// this order exactly is what keeps a recovered decode bit-identical to an
  /// uninterrupted one (decode streams rows in touch order).
  const std::vector<uint64_t>& touched_rows() const { return touched_rows_; }

  /// Restores a snapshot taken from accumulator()/touched_rows()/
  /// num_reports() into a freshly created server with identical dimensions.
  /// Validates shape (z length m, row indices < m, no duplicate rows) so a
  /// corrupt snapshot is rejected here instead of corrupting a decode.
  Status RestoreState(const std::vector<double>& z,
                      const std::vector<uint64_t>& touched_rows,
                      uint64_t num_reports);

  /// Decodes the estimate of a single location in O(touched rows). This is
  /// what makes PCEP usable as a *succinct* frequency oracle over domains
  /// too large to enumerate (see core/heavy_hitters.h): the full decode is
  /// O(m |tau|), but any individual count is cheap.
  double EstimateItem(uint64_t item) const;

 private:
  PcepServer(uint64_t tau_size, PcepDimensions dims, uint64_t matrix_seed)
      : tau_size_(tau_size),
        dims_(dims),
        matrix_(matrix_seed, dims.m, tau_size),
        z_(dims.m, 0.0),
        row_touched_(dims.m, 0) {}

  uint64_t tau_size_;
  PcepDimensions dims_;
  SignMatrix matrix_;
  std::vector<double> z_;
  /// Rows that ever received a report, in first-touch order (the decode
  /// streaming order), with a flag per row so a report that cancels an
  /// accumulator back to exactly zero cannot re-enlist the row.
  std::vector<uint8_t> row_touched_;
  std::vector<uint64_t> touched_rows_;
  uint64_t num_reports_ = 0;
};

/// Runs the whole protocol in memory: assigns each user a row, perturbs their
/// bit with the local randomizer, and decodes the estimates. Users must have
/// location_index < tau_size and epsilon > 0.
///
/// This is the fast path used by the PSDA framework; protocol/ provides the
/// byte-accounted client/server simulation with the same seed schedule.
StatusOr<std::vector<double>> RunPcep(const std::vector<PcepUser>& users,
                                      uint64_t tau_size,
                                      const PcepParams& params);

/// Like RunPcep but stops before decoding and hands back the loaded server,
/// so callers can decode selectively with EstimateItem (heavy hitters) or
/// fully with Estimate.
StatusOr<PcepServer> RunPcepCollection(const std::vector<PcepUser>& users,
                                       uint64_t tau_size,
                                       const PcepParams& params);

}  // namespace pldp

#endif  // PLDP_CORE_PCEP_H_
