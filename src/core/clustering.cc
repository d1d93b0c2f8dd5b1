#include "core/clustering.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <utility>

#include "core/error_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pldp {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

Cluster MakeSingletonCluster(const SpatialTaxonomy& taxonomy,
                             const std::vector<UserGroup>& groups,
                             uint32_t group_index) {
  const UserGroup& group = groups[group_index];
  Cluster cluster;
  cluster.groups = {group_index};
  cluster.top_region = group.region;
  cluster.n = group.n();
  cluster.region_size = taxonomy.RegionSize(group.region);
  cluster.varsigma = group.varsigma;
  return cluster;
}

/// The cluster forest of Algorithm 3 and its per-pass path quantities.
///
/// The alive clusters' top regions form a forest under containment: a
/// cluster's parent is the nearest alive cluster whose top strictly encloses
/// its own. Every valid path is represented by its deepest cluster d: the
/// path's cluster set is d and its forest ancestors. Stale representatives
/// (d fully covered by deeper clusters) only contribute subset-sums of real
/// paths and never affect the maximum. All maxima below are over these
/// per-cluster path errors:
///
///   err_path[c]    - error of the path represented by c (sum along its chain)
///   max_in[c]      - max err_path over the cluster subtree rooted at c
///   max_out[c]     - max err_path over everything outside c's subtree
///   sibling_max[c] - max of max_in over c's forest siblings
///
/// which lets a candidate merge (outer, inner) be evaluated in O(chain)
/// instead of O(k): paths outside outer's subtree are unchanged; paths under
/// inner gain (merged - err_outer - err_inner); paths under outer but not
/// inner gain (merged - err_outer).
///
/// The forest is built once. A merge keeps outer's top region and removes
/// inner, so Merge only re-parents inner's children to inner's own parent
/// (now their nearest alive encloser; outer may sit further up) and drops
/// inner from the parents-first order. Every per-pass quantity is a linear
/// pass over that order and flat arrays, and nothing is allocated.
class ClusterForest {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  struct Candidate {
    double worst = std::numeric_limits<double>::infinity();
    uint32_t outer = kNone;
    uint32_t inner = kNone;
  };

  ClusterForest(const SpatialTaxonomy& taxonomy,
                const std::vector<Cluster>& clusters)
      : root_(static_cast<uint32_t>(clusters.size())),
        parent_(clusters.size()),
        n_(clusters.size()),
        varsigma_(clusters.size()),
        size_index_(clusters.size()),
        errs_(clusters.size()),
        err_path_(clusters.size() + 1, 0.0),
        max_in_(clusters.size()),
        max_out_(clusters.size()),
        sibling_max_(clusters.size()),
        tree_root_(clusters.size()),
        top1_(clusters.size() + 1),
        top2_(clusters.size() + 1) {
    // Tops are unique among alive clusters; map taxonomy node -> cluster.
    std::vector<uint32_t> cluster_at_node(taxonomy.num_nodes(), kNone);
    for (uint32_t c = 0; c < root_; ++c) {
      PLDP_DCHECK(cluster_at_node[clusters[c].top_region] == kNone)
          << "two alive clusters share a top region";
      cluster_at_node[clusters[c].top_region] = c;
    }

    // Parent = nearest strictly-enclosing cluster (walk the taxonomy chain);
    // forest roots hang off the virtual root_, whose err_path stays 0.
    for (uint32_t c = 0; c < root_; ++c) {
      parent_[c] = root_;
      NodeId node = clusters[c].top_region;
      while (node != taxonomy.root()) {
        node = taxonomy.parent(node);
        if (cluster_at_node[node] != kNone) {
          parent_[c] = cluster_at_node[node];
          break;
        }
      }
      n_[c] = clusters[c].n;
      varsigma_[c] = clusters[c].varsigma;
      region_sizes_.push_back(clusters[c].region_size);
    }

    // Parents-before-children order: by taxonomy level of the top, then by
    // index. Merges never move a top, so the order only ever loses entries.
    order_.resize(root_);
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t la = taxonomy.level(clusters[a].top_region);
      const uint32_t lb = taxonomy.level(clusters[b].top_region);
      return la != lb ? la < lb : a < b;
    });

    // Region sizes follow the tops, so this table of distinct sizes holds
    // every alive cluster's size for the whole call.
    std::sort(region_sizes_.begin(), region_sizes_.end());
    region_sizes_.erase(
        std::unique(region_sizes_.begin(), region_sizes_.end()),
        region_sizes_.end());
    logs_.resize(region_sizes_.size());
    for (uint32_t c = 0; c < root_; ++c) {
      size_index_[c] = static_cast<uint32_t>(
          std::lower_bound(region_sizes_.begin(), region_sizes_.end(),
                           clusters[c].region_size) -
          region_sizes_.begin());
    }
  }

  size_t num_alive() const { return order_.size(); }

  /// errs and err_path at confidence beta_each per cluster. The logs of the
  /// bound are taken once per distinct region size.
  void EvaluatePaths(double beta_each) {
    for (size_t i = 0; i < region_sizes_.size(); ++i) {
      logs_[i] = PcepErrorBoundLogs(beta_each,
                                    static_cast<double>(region_sizes_[i]));
    }
    for (const uint32_t c : order_) {
      errs_[c] = PcepErrorBoundFromLogs(logs_[size_index_[c]],
                                        static_cast<double>(n_[c]),
                                        varsigma_[c]);
      err_path_[c] = errs_[c] + err_path_[parent_[c]];
    }
  }

  /// max_in, max_out, sibling_max and each cluster's tree root, from
  /// err_path. top1/top2 hold the two largest max_in among a cluster's
  /// children (the virtual root's children are the forest roots).
  void EvaluateSubtrees() {
    top1_[root_] = top2_[root_] = kNegInf;
    for (const uint32_t c : order_) top1_[c] = top2_[c] = kNegInf;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const uint32_t c = *it;
      const uint32_t p = parent_[c];
      const double in = std::max(err_path_[c], top1_[c]);
      max_in_[c] = in;
      top2_[p] = std::max(top2_[p], std::min(top1_[p], in));
      top1_[p] = std::max(top1_[p], in);
    }
    // Outside a root: the other roots' subtrees. Outside a child z of x:
    // outside x, plus path x itself, plus the subtrees of z's siblings.
    for (const uint32_t c : order_) {
      const uint32_t p = parent_[c];
      sibling_max_[c] = max_in_[c] == top1_[p] ? top2_[p] : top1_[p];
      if (p == root_) {
        max_out_[c] = sibling_max_[c];
        tree_root_[c] = c;
      } else {
        max_out_[c] = std::max({max_out_[p], err_path_[p], sibling_max_[c]});
        tree_root_[c] = tree_root_[p];
      }
    }
  }

  /// Lines 8-17 of Algorithm 3: the first (inner, outer) pair, in
  /// parents-first order of inner and then outward along its chain, whose
  /// merge gives the smallest maximum path error. Pairs are exactly (inner,
  /// one of its forest ancestors).
  ///
  /// Every candidate has worst >= max_out[outer]. Only a pair strictly below
  /// the running best can replace it, and only a pair below lmax is ever
  /// merged, so a pair with max_out[outer] >= min(best, lmax) is skipped
  /// without changing the result. max_out never decreases down the forest,
  /// so when an inner's tree root fails that test, all its pairs do.
  /// `evaluations` gains one per merged error evaluated.
  Candidate BestMerge(double lmax, uint64_t* evaluations) const {
    Candidate best;
    for (const uint32_t inner : order_) {
      if (max_out_[tree_root_[inner]] >= std::min(best.worst, lmax)) continue;
      // Walking outward: branch_max is the max over paths that are under
      // the current outer but outside inner's branch (without deltas), so
      // each step adds outer's own path and the subtrees of below's
      // siblings.
      double branch_max = kNegInf;
      uint32_t below = inner;  // the chain node whose subtree holds inner
      for (uint32_t outer = parent_[inner]; outer != root_;
           below = outer, outer = parent_[outer]) {
        branch_max =
            std::max({branch_max, err_path_[outer], sibling_max_[below]});
        if (max_out_[outer] >= std::min(best.worst, lmax)) continue;

        const double merged = PcepErrorBoundFromLogs(
            logs_[size_index_[outer]],
            static_cast<double>(n_[outer] + n_[inner]),
            varsigma_[outer] + varsigma_[inner]);
        ++*evaluations;
        const double delta_outer = merged - errs_[outer];
        const double delta_inner = -errs_[inner];

        double worst = max_out_[outer];  // unchanged paths
        worst = std::max(worst, branch_max + delta_outer);
        worst = std::max(worst, max_in_[inner] + delta_outer + delta_inner);
        if (worst < best.worst) best = {worst, outer, inner};
      }
    }
    return best;
  }

  /// Folds inner into its forest ancestor outer and unlinks inner.
  void Merge(uint32_t outer, uint32_t inner) {
    n_[outer] += n_[inner];
    varsigma_[outer] += varsigma_[inner];
    order_.erase(std::find(order_.begin(), order_.end(), inner));
    const uint32_t up = parent_[inner];
    for (const uint32_t c : order_) {
      if (parent_[c] == inner) parent_[c] = up;
    }
  }

  /// The Definition 4.1 objective at the confidence of the last
  /// EvaluatePaths.
  double MaxPathError() const {
    double max_err = 0.0;
    for (const uint32_t c : order_) max_err = std::max(max_err, err_path_[c]);
    return max_err;
  }

 private:
  const uint32_t root_;  // the virtual root, one past the last cluster
  std::vector<uint32_t> order_;  // alive clusters, parents before kids
  std::vector<uint32_t> parent_;
  std::vector<uint64_t> n_;
  std::vector<double> varsigma_;
  std::vector<uint32_t> size_index_;  // into region_sizes_ and logs_
  std::vector<uint64_t> region_sizes_;
  std::vector<PcepBoundLogs> logs_;
  std::vector<double> errs_;
  std::vector<double> err_path_;
  std::vector<double> max_in_;
  std::vector<double> max_out_;
  std::vector<double> sibling_max_;
  std::vector<uint32_t> tree_root_;
  std::vector<double> top1_;
  std::vector<double> top2_;
};

Status ValidateGroups(const SpatialTaxonomy& taxonomy,
                      const std::vector<UserGroup>& groups) {
  std::set<NodeId> seen;
  for (const UserGroup& group : groups) {
    if (group.region == kInvalidNode || group.region >= taxonomy.num_nodes()) {
      return Status::InvalidArgument("group region is not a taxonomy node");
    }
    if (group.n() == 0) {
      return Status::InvalidArgument("empty user group");
    }
    if (!seen.insert(group.region).second) {
      return Status::InvalidArgument(
          "two user groups share a safe region; merge them first");
    }
  }
  return Status::OK();
}

}  // namespace

double MaxPathError(const SpatialTaxonomy& taxonomy,
                    const std::vector<Cluster>& clusters, double beta) {
  if (clusters.empty()) return 0.0;
  ClusterForest forest(taxonomy, clusters);
  forest.EvaluatePaths(beta / static_cast<double>(clusters.size()));
  CountBoundEvaluations(clusters.size());
  return forest.MaxPathError();
}

StatusOr<ClusteringResult> TrivialClusters(const SpatialTaxonomy& taxonomy,
                                           const std::vector<UserGroup>& groups,
                                           const ClusteringOptions& options) {
  if (!(options.beta > 0.0 && options.beta < 1.0)) {
    return Status::InvalidArgument("beta must be in (0, 1)");
  }
  PLDP_RETURN_IF_ERROR(ValidateGroups(taxonomy, groups));
  ClusteringResult result;
  result.clusters.reserve(groups.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    result.clusters.push_back(MakeSingletonCluster(taxonomy, groups, g));
  }
  result.initial_max_path_error =
      MaxPathError(taxonomy, result.clusters, options.beta);
  result.final_max_path_error = result.initial_max_path_error;
  return result;
}

StatusOr<ClusteringResult> ClusterUserGroups(
    const SpatialTaxonomy& taxonomy, const std::vector<UserGroup>& groups,
    const ClusteringOptions& options) {
  PLDP_SPAN("clustering.cluster_groups");
  PLDP_ASSIGN_OR_RETURN(ClusteringResult result,
                        TrivialClusters(taxonomy, groups, options));
  std::vector<Cluster>& clusters = result.clusters;
  const size_t k = clusters.size();
  if (k <= 1) return result;

  ClusterForest forest(taxonomy, clusters);
  std::vector<bool> alive(k, true);
  double lmax = result.initial_max_path_error;  // Lines 1-4 of Algorithm 3.

  while (forest.num_alive() > 1) {
    // Lines 6-7: all quantities at the post-merge confidence beta/(|C|-1).
    const size_t num_alive = forest.num_alive();
    forest.EvaluatePaths(options.beta / static_cast<double>(num_alive - 1));
    forest.EvaluateSubtrees();
    uint64_t pair_evaluations = 0;
    const ClusterForest::Candidate best =
        forest.BestMerge(lmax, &pair_evaluations);
    CountBoundEvaluations(num_alive + pair_evaluations);

    // Lines 18-23: merge only if the best merge improves the objective.
    if (best.outer == ClusterForest::kNone || best.worst >= lmax) break;
    Cluster& outer = clusters[best.outer];
    Cluster& inner = clusters[best.inner];
    outer.groups.insert(outer.groups.end(), inner.groups.begin(),
                        inner.groups.end());
    outer.n += inner.n;
    outer.varsigma += inner.varsigma;
    forest.Merge(best.outer, best.inner);
    alive[best.inner] = false;
    ++result.merges;
    lmax = best.worst;
  }

  // Compact the surviving clusters.
  std::vector<Cluster> survivors;
  survivors.reserve(forest.num_alive());
  for (size_t c = 0; c < k; ++c) {
    if (alive[c]) survivors.push_back(std::move(clusters[c]));
  }
  clusters = std::move(survivors);
  result.final_max_path_error =
      MaxPathError(taxonomy, clusters, options.beta);

  static obs::Counter* merges_counter =
      obs::MetricsRegistry::Global().GetCounter("clustering.merges");
  static obs::Counter* clusters_counter =
      obs::MetricsRegistry::Global().GetCounter("clustering.clusters");
  merges_counter->Increment(result.merges);
  clusters_counter->Increment(clusters.size());
  return result;
}

}  // namespace pldp
