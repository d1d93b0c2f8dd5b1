#ifndef PLDP_CORE_PSDA_H_
#define PLDP_CORE_PSDA_H_

#include <cstdint>
#include <vector>

#include "core/clustering.h"
#include "core/pcep.h"
#include "core/privacy_spec.h"
#include "core/user_group.h"
#include "geo/taxonomy.h"
#include "util/status_or.h"

namespace pldp {

/// Configuration of one PSDA run (Algorithm 4).
struct PsdaOptions {
  /// Overall confidence level; each of the |C| clusters' PCEPs runs at
  /// beta / |C|.
  double beta = 0.1;

  /// Root seed; all protocol randomness derives from it deterministically.
  uint64_t seed = 0x243F6A8885A308D3ULL;

  /// Ablation hook: when false, skips Algorithm 3 and runs one PCEP per user
  /// group (the "finest" extreme of Section IV-B).
  bool enable_clustering = true;

  /// Ablation hook: when false, skips the consistency post-processing.
  bool enforce_consistency = true;

  /// Memory guard forwarded to every PCEP instance.
  uint64_t max_reduced_dimension = uint64_t{1} << 26;

  /// Chunk count for the parallel per-cluster estimation fan-out (clusters
  /// are independent protocol instances). 0 means "size of the shared
  /// thread pool" (PLDP_THREADS override, else hardware_concurrency). Every
  /// cluster's estimate is computed identically and merged in cluster
  /// order, so this knob changes wall time, never results.
  unsigned num_threads = 0;
};

/// Per-cluster delivery accounting at publish: how many of the cluster's users
/// actually reported, and what the Theorem 4.5 bound predicts for the cohort
/// that did.
struct ClusterResponseStats {
  uint32_t cluster_index = 0;
  /// Users assigned to this cluster's PCEP (spec-phase responders).
  uint64_t n_expected = 0;
  /// Users whose sanitized report was received and accumulated.
  uint64_t n_responded = 0;
  /// Users refused by admission control before any exchange (graceful
  /// degradation; compensated by the same rescaling as dropout).
  uint64_t n_shed = 0;
  double response_rate = 1.0;
  /// err(beta_c, n_responded, |tau|, varsigma_responded): the Theorem 4.5
  /// error model re-evaluated at the effective cohort, i.e. what the bound
  /// guarantees *after* dropout.
  double error_bound = 0.0;
};

bool operator==(const ClusterResponseStats& a, const ClusterResponseStats& b);

/// Output of a PSDA run.
struct PsdaResult {
  /// Final per-cell estimates (after consistency post-processing when
  /// enabled).
  std::vector<double> counts;

  /// Per-cell estimates straight out of the per-cluster PCEPs.
  std::vector<double> raw_counts;

  /// The user-group clustering that drove the run.
  ClusteringResult clustering;

  /// One entry per cluster, in cluster order.
  std::vector<ClusterResponseStats> cluster_response;

  /// Factor applied to the final counts to compensate spec-phase dropout
  /// (cohort size / spec responders); exactly 1 when everyone registered.
  double global_rescale = 1.0;

  /// Server-side wall-clock seconds (grouping + clustering + PCEP decode +
  /// post-processing), the quantity reported in Figure 7.
  double server_seconds = 0.0;
};

/// Seed of cluster `cluster_index`'s PCEP instance (its JL matrix, row
/// assignments and client seeds all derive from it) under the root `seed`.
uint64_t ClusterSeed(uint64_t seed, size_t cluster_index);

/// Chunk count of a parallel per-cluster fan-out: `options.num_threads`, or
/// the shared pool's size when 0, rounded to the topology group count.
unsigned ClusterFanOutChunks(const PsdaOptions& options);

/// One cluster's PCEP instance in an epoch plan.
struct ClusterPlan {
  /// The cluster's location universe: its top region's cells, in rank order.
  std::vector<CellId> cells;
  /// Users in the cluster (spec-phase responders).
  uint64_t n = 0;
  /// Confidence beta / |C|, ClusterSeed, and the m guard.
  PcepParams params;
};

/// Algorithm 4's line 5 and the setup of lines 6-9, over a cohort's user
/// groups: the clustering (Algorithm 3, or one cluster per group when
/// clustering is disabled) and the PCEP instance each cluster runs. Every
/// caller ingests a cluster's users in the same canonical order:
/// `clustering.clusters[c].groups`, then each group's `members`.
struct EpochPlan {
  ClusteringResult clustering;
  /// Index-aligned with `clustering.clusters`.
  std::vector<ClusterPlan> clusters;
};

StatusOr<EpochPlan> PlanEpoch(const SpatialTaxonomy& taxonomy,
                              const std::vector<UserGroup>& groups,
                              const PsdaOptions& options);

/// What one cluster's PCEP delivered by publish time.
struct ClusterTally {
  /// Per-cell estimate over the cluster's cells; unused when nobody
  /// responded.
  std::vector<double> estimate;
  uint64_t n_responded = 0;
  uint64_t n_shed = 0;
  /// Sum of c_eps^2 over the responders.
  double varsigma_responded = 0.0;
};

/// Algorithm 4's combine (lines 6-9) and line 10: evaluates each cluster's
/// Theorem 4.5 bound at its responders, rescales its estimate by
/// n / n_responded (compensating dropout and shedding), merges the clusters
/// in cluster order, enforces consistency when `enforce_consistency` is set,
/// and scales the result by cohort_size / spec responders. Leaves
/// `clustering` and `server_seconds` to the caller. When every user responds
/// both rescales are exactly 1.
StatusOr<PsdaResult> PublishEpoch(const SpatialTaxonomy& taxonomy,
                                  const std::vector<UserGroup>& groups,
                                  const EpochPlan& plan,
                                  const std::vector<ClusterTally>& tallies,
                                  uint64_t cohort_size,
                                  bool enforce_consistency);

/// The unified private spatial data aggregation framework (Algorithm 4):
/// groups users by safe region, plans the epoch (PlanEpoch), runs one PCEP
/// per cluster at confidence beta/|C|, and publishes (PublishEpoch). The
/// message-level AggregationServer and the net daemon run the same plan and
/// publish through protocol/accumulator.h's EpochAccumulator.
///
/// Guarantees (tau_i, eps_i)-PLDP for every user (Theorem 4.7).
StatusOr<PsdaResult> RunPsda(const SpatialTaxonomy& taxonomy,
                             const std::vector<UserRecord>& users,
                             const PsdaOptions& options);

class FrequencyOracle;

/// Same framework with the per-cluster count-estimation protocol swapped
/// out: any FrequencyOracle (kRR, RAPPOR, ...) can stand in for PCEP. The
/// grouping, clustering, and consistency machinery is oracle-agnostic; the
/// PLDP guarantee holds as long as the oracle is PLDP over its region
/// (which every oracle in core/frequency_oracle.h is).
StatusOr<PsdaResult> RunPsdaWithOracle(const SpatialTaxonomy& taxonomy,
                                       const std::vector<UserRecord>& users,
                                       const PsdaOptions& options,
                                       const FrequencyOracle& oracle);

}  // namespace pldp

#endif  // PLDP_CORE_PSDA_H_
