#ifndef PLDP_CORE_CLUSTERING_H_
#define PLDP_CORE_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "core/user_group.h"
#include "geo/taxonomy.h"
#include "util/status_or.h"

namespace pldp {

/// A cluster of user groups fed into one PCEP instance (Definition 4.1).
///
/// Because the agglomerative algorithm only merges clusters whose regions lie
/// on the same taxonomy path (the paper's problem-specific heuristic), every
/// cluster's groups are totally ordered by containment and `top_region` - the
/// outermost safe region - is the region the joint PCEP runs over. Contained
/// regions are "absorbed" (their o_i = 0), so `region_size` equals the size
/// of the top region.
struct Cluster {
  /// Indices into the input user-group vector.
  std::vector<uint32_t> groups;

  NodeId top_region = kInvalidNode;

  /// Total number of users across member groups.
  uint64_t n = 0;

  /// sum_i o_i * d_i of Definition 4.1 == |top_region| under the same-path
  /// merging heuristic.
  uint64_t region_size = 0;

  /// Total privacy factor (sum of c_eps^2 over all member users).
  double varsigma = 0.0;
};

struct ClusteringOptions {
  /// Overall confidence level beta; each of the final |C| clusters runs its
  /// PCEP with confidence beta / |C| (Algorithm 4, line 7).
  double beta = 0.1;
};

struct ClusteringResult {
  std::vector<Cluster> clusters;

  /// Objective value (maximum path error, Definition 4.1) of the initial
  /// one-cluster-per-group configuration, at confidence beta/k.
  double initial_max_path_error = 0.0;

  /// Objective value after the final merge.
  double final_max_path_error = 0.0;

  /// Number of merges performed.
  uint32_t merges = 0;
};

/// Algorithm 3: agglomerative user-group clustering.
///
/// Starts from one cluster per group and repeatedly merges the pair of
/// same-path clusters whose merge yields the smallest maximum path error,
/// stopping when no merge improves the objective. The error of a cluster is
/// the Theorem 4.5 bound at the confidence level the cluster would receive
/// after the merge (beta / (|C| - 1)), exactly as in the paper. Among equally
/// good merges it takes the one whose inner cluster has the shallowest top
/// region (then the lowest index) and, for that inner cluster, the nearest
/// enclosing outer cluster.
StatusOr<ClusteringResult> ClusterUserGroups(const SpatialTaxonomy& taxonomy,
                                             const std::vector<UserGroup>& groups,
                                             const ClusteringOptions& options);

/// The degenerate "finest" configuration used as an ablation baseline: one
/// cluster per user group, no merging.
StatusOr<ClusteringResult> TrivialClusters(const SpatialTaxonomy& taxonomy,
                                           const std::vector<UserGroup>& groups,
                                           const ClusteringOptions& options);

/// Maximum path error (the Definition 4.1 objective) of a given clustering at
/// confidence beta / |clusters|. Exposed for tests and ablation benches.
double MaxPathError(const SpatialTaxonomy& taxonomy,
                    const std::vector<Cluster>& clusters, double beta);

}  // namespace pldp

#endif  // PLDP_CORE_CLUSTERING_H_
