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

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -kInf;

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
///   max_out[c]     - max err_path over the rest of c's tree
///   sibling_max[c] - max of max_in over c's forest siblings
///
/// which lets a candidate merge (outer, inner) be evaluated in O(chain)
/// instead of O(k): paths outside outer's subtree are unchanged; paths under
/// inner gain (merged - err_outer - err_inner); paths under outer but not
/// inner gain (merged - err_outer).
///
/// The forest is evaluated one tree at a time. A root is never merged as
/// inner, so the trees are fixed for the whole call and a merge changes only
/// its own tree: Merge drops inner from its tree's members and re-parents
/// inner's children to inner's own parent (now their nearest alive encloser;
/// outer may sit further up). A tree's quantities are refreshed only when a
/// pass reads them. Between refreshes an untouched tree's maximum can only
/// fall, since every bound shrinks as beta/(|C| - 1) rises, so its last
/// exact maximum times kSlack bounds it from above; a merge sets the bound of
/// its tree to infinity. Every value a decision compares is recomputed with
/// the same formula in the same fold order, and max is exact, so a pair's
/// score carries the same bits as a whole-forest evaluation would give it.
class ClusterForest {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  struct Candidate {
    double worst = kInf;
    uint32_t outer = kNone;
    uint32_t inner = kNone;
  };

  ClusterForest(const SpatialTaxonomy& taxonomy,
                const std::vector<Cluster>& clusters)
      : root_(static_cast<uint32_t>(clusters.size())),
        num_alive_(clusters.size()),
        parent_(clusters.size()),
        tree_(clusters.size()),
        next_(clusters.size() + 1),
        prev_(clusters.size() + 1),
        members_(clusters.size()),
        n_(clusters.size()),
        varsigma_(clusters.size()),
        size_index_(clusters.size()),
        errs_(clusters.size()),
        err_path_(clusters.size() + 1, 0.0),
        max_in_(clusters.size()),
        max_out_(clusters.size()),
        sibling_max_(clusters.size()),
        top1_(clusters.size()),
        top2_(clusters.size()) {
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

    // The scan order, parents before children: by taxonomy level of the
    // top, then by index. Merges never move a top, so the order only ever
    // loses entries. Tree roots have no pairs, so the scan list, linked
    // through next_/prev_ with root_ as the sentinel, holds only the others.
    std::vector<uint32_t> order(root_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t la = taxonomy.level(clusters[a].top_region);
      const uint32_t lb = taxonomy.level(clusters[b].top_region);
      return la != lb ? la < lb : a < b;
    });
    uint32_t last = root_;
    for (const uint32_t c : order) {
      if (parent_[c] == root_) continue;
      next_[last] = c;
      prev_[c] = last;
      last = c;
    }
    next_[last] = root_;
    prev_[root_] = last;

    // Trees are numbered by their roots in scan order. Each tree's members
    // sit in one slice of members_, in scan order, so its root comes first.
    std::vector<uint32_t> tree_size;
    for (const uint32_t c : order) {
      if (parent_[c] == root_) {
        tree_[c] = static_cast<uint32_t>(tree_size.size());
        tree_size.push_back(0);
      } else {
        tree_[c] = tree_[parent_[c]];
      }
      ++tree_size[tree_[c]];
    }
    begin_.resize(tree_size.size());
    std::exclusive_scan(tree_size.begin(), tree_size.end(), begin_.begin(),
                        0u);
    end_ = begin_;
    for (const uint32_t c : order) members_[end_[tree_[c]]++] = c;
    bound_.assign(tree_size.size(), kInf);
    refreshed_.assign(tree_size.size(), 0);
    by_bound_.resize(tree_size.size());
    std::iota(by_bound_.begin(), by_bound_.end(), 0u);

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

  size_t num_alive() const { return num_alive_; }

  /// Bounds evaluated so far: one per cluster a refresh recomputes and one
  /// per candidate pair scored.
  uint64_t evaluations() const { return evaluations_; }

  /// Lines 6-17 of Algorithm 3 at confidence beta_each per cluster: the
  /// first (inner, outer) pair, in parents-first order of inner and then
  /// outward along its chain, whose merge gives the smallest maximum path
  /// error, when that error is below lmax. Otherwise the result is no pair
  /// or a pair scoring at least lmax.
  ///
  /// Let M be the maximum path error. The merge raises every path under
  /// outer, or leaves it: merged >= errs[outer] under rounding, since the
  /// bound is monotone in n and varsigma. So a pair scores below M only if
  /// every path scoring M runs through inner, which puts both clusters on
  /// the chain those paths share, inside the one tree that holds M. The
  /// pass therefore (1) refreshes trees in descending bound order until the
  /// largest and second-largest tree maxima are exact, (2) scans the max
  /// tree's pairs for one below min(M, lmax), and otherwise (3) runs the
  /// scan in full order, refreshing a tree when one of its inners is first
  /// reached, and stops at the first pair that scores M, which no later pair
  /// can beat.
  Candidate BestMerge(double beta_each, double lmax) {
    BeginPass(beta_each);
    // Bounds move little between passes (a merged tree's jumps to the
    // front), so an insertion sort restores the order in about one sweep.
    for (size_t i = 1; i < by_bound_.size(); ++i) {
      const uint32_t tree = by_bound_[i];
      size_t j = i;
      for (; j > 0 && bound_[by_bound_[j - 1]] < bound_[tree]; --j) {
        by_bound_[j] = by_bound_[j - 1];
      }
      by_bound_[j] = tree;
    }
    double m1 = kNegInf;  // M
    double m2 = kNegInf;  // the largest maximum of any tree but max_tree
    uint32_t max_tree = kNone;
    for (const uint32_t tree : by_bound_) {
      if (bound_[tree] < m2) break;
      const double tree_max = Refresh(tree);
      if (tree_max > m1) {
        m2 = m1;
        m1 = tree_max;
        max_tree = tree;
      } else {
        m2 = std::max(m2, tree_max);
      }
    }

    // A tree's paths outside it score m1, or m2 for the max tree itself.
    const double limit = std::min(lmax, m1);
    Candidate best;
    for (uint32_t i = begin_[max_tree] + 1; i < end_[max_tree]; ++i) {
      ScorePairs(members_[i], m2, limit, &best);
    }
    if (best.worst < limit) return best;
    if (lmax <= m1) return Candidate{};

    best = Candidate{};
    for (uint32_t inner = next_[root_]; inner != root_;
         inner = next_[inner]) {
      const uint32_t tree = tree_[inner];
      const double outside = tree == max_tree ? m2 : m1;
      if (outside >= std::min(best.worst, lmax)) continue;
      if (refreshed_[tree] != pass_) Refresh(tree);
      ScorePairs(inner, outside, lmax, &best);
      if (best.worst <= m1) break;
    }
    return best;
  }

  /// Folds inner into its forest ancestor outer and unlinks inner.
  void Merge(uint32_t outer, uint32_t inner) {
    n_[outer] += n_[inner];
    varsigma_[outer] += varsigma_[inner];
    const uint32_t tree = tree_[inner];
    const uint32_t up = parent_[inner];
    uint32_t kept = begin_[tree];
    for (uint32_t i = begin_[tree]; i < end_[tree]; ++i) {
      const uint32_t c = members_[i];
      if (c == inner) continue;
      if (parent_[c] == inner) parent_[c] = up;
      members_[kept++] = c;
    }
    end_[tree] = kept;
    next_[prev_[inner]] = next_[inner];
    prev_[next_[inner]] = prev_[inner];
    bound_[tree] = kInf;
    --num_alive_;
  }

  /// The Definition 4.1 objective at confidence beta_each per cluster. It
  /// leaves every tree's bound at infinity, as construction does, so the
  /// passes after it refresh the same trees as on a fresh forest.
  double MaxPathError(double beta_each) {
    BeginPass(beta_each);
    double max_err = 0.0;
    for (uint32_t t = 0; t < bound_.size(); ++t) {
      max_err = std::max(max_err, Refresh(t));
      bound_[t] = kInf;
    }
    return max_err;
  }

 private:
  /// Slack on a tree's last exact maximum that covers the rounding of a
  /// later, smaller evaluation, which is a few ulps.
  static constexpr double kSlack = 1.0 + 1e-9;

  /// Starts a pass at confidence beta_each: no tree is refreshed yet, and
  /// the logs of the bound are taken once per distinct region size.
  void BeginPass(double beta_each) {
    ++pass_;
    for (size_t i = 0; i < region_sizes_.size(); ++i) {
      logs_[i] = PcepErrorBoundLogs(beta_each,
                                    static_cast<double>(region_sizes_[i]));
    }
  }

  /// errs, err_path, max_in, max_out and sibling_max of one tree at this
  /// pass's confidence, in three passes over its members: top-down,
  /// bottom-up (top1/top2 hold the two largest max_in among a cluster's
  /// children), top-down. Returns the tree's maximum path error.
  double Refresh(uint32_t tree) {
    const uint32_t* first = members_.data() + begin_[tree];
    const uint32_t* last = members_.data() + end_[tree];
    for (const uint32_t* it = first; it != last; ++it) {
      const uint32_t c = *it;
      errs_[c] = PcepErrorBoundFromLogs(logs_[size_index_[c]],
                                        static_cast<double>(n_[c]),
                                        varsigma_[c]);
      err_path_[c] = errs_[c] + err_path_[parent_[c]];
      top1_[c] = top2_[c] = kNegInf;
    }
    for (const uint32_t* it = last; it-- != first + 1;) {
      const uint32_t c = *it;
      const uint32_t p = parent_[c];
      const double in = std::max(err_path_[c], top1_[c]);
      max_in_[c] = in;
      top2_[p] = std::max(top2_[p], std::min(top1_[p], in));
      top1_[p] = std::max(top1_[p], in);
    }
    // Outside the root: nothing in this tree. Outside a child z of x:
    // outside x, plus path x itself, plus the subtrees of z's siblings.
    const uint32_t root = *first;
    max_in_[root] = std::max(err_path_[root], top1_[root]);
    max_out_[root] = sibling_max_[root] = kNegInf;
    for (const uint32_t* it = first + 1; it != last; ++it) {
      const uint32_t c = *it;
      const uint32_t p = parent_[c];
      sibling_max_[c] = max_in_[c] == top1_[p] ? top2_[p] : top1_[p];
      max_out_[c] = std::max({max_out_[p], err_path_[p], sibling_max_[c]});
    }
    evaluations_ += static_cast<uint64_t>(last - first);
    refreshed_[tree] = pass_;
    bound_[tree] = max_in_[root] * kSlack;
    return max_in_[root];
  }

  /// Scores the pairs of `inner` against its refreshed tree, where
  /// `outside` is the maximum path error of every other tree, and keeps the
  /// first pair below the running best. Every candidate has worst >=
  /// max_out[outer]. Only a pair strictly below the running best can
  /// replace it, and only a pair below `limit` is of use, so a pair with
  /// max_out[outer] >= min(best, limit) is skipped without changing the
  /// result. Every path outside inner's subtree keeps or raises its error,
  /// so each pair also has worst >= max_out[inner], and when inner fails
  /// the test all of its pairs do.
  void ScorePairs(uint32_t inner, double outside, double limit,
                  Candidate* best) {
    if (std::max(outside, max_out_[inner]) >= std::min(best->worst, limit)) {
      return;
    }
    // Walking outward: branch_max is the max over paths that are under the
    // current outer but outside inner's branch (without deltas), so each
    // step adds outer's own path and the subtrees of below's siblings.
    double branch_max = kNegInf;
    uint32_t below = inner;  // the chain node whose subtree holds inner
    for (uint32_t outer = parent_[inner]; outer != root_;
         below = outer, outer = parent_[outer]) {
      branch_max =
          std::max({branch_max, err_path_[outer], sibling_max_[below]});
      const double max_out = std::max(outside, max_out_[outer]);
      if (max_out >= std::min(best->worst, limit)) continue;

      const double merged = PcepErrorBoundFromLogs(
          logs_[size_index_[outer]],
          static_cast<double>(n_[outer] + n_[inner]),
          varsigma_[outer] + varsigma_[inner]);
      ++evaluations_;
      const double delta_outer = merged - errs_[outer];
      const double delta_inner = -errs_[inner];

      double worst = max_out;  // unchanged paths
      worst = std::max(worst, branch_max + delta_outer);
      worst = std::max(worst, max_in_[inner] + delta_outer + delta_inner);
      if (worst < best->worst) *best = {worst, outer, inner};
    }
  }

  const uint32_t root_;  // the virtual root, one past the last cluster
  size_t num_alive_;
  uint64_t evaluations_ = 0;
  uint32_t pass_ = 0;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> tree_;     // each cluster's tree, fixed per call
  std::vector<uint32_t> next_;     // the scan list of alive non-roots
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> members_;  // alive clusters by tree, in scan order
  std::vector<uint32_t> begin_;    // each tree's slice of members_
  std::vector<uint32_t> end_;
  std::vector<double> bound_;      // >= each tree's maximum path error
  std::vector<uint32_t> by_bound_;  // trees by descending bound
  std::vector<uint32_t> refreshed_;  // the pass that last refreshed a tree
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
  std::vector<double> top1_;
  std::vector<double> top2_;
};

/// Checks the inputs of Algorithm 3 and builds its starting point, one
/// cluster per user group.
StatusOr<std::vector<Cluster>> SingletonClusters(
    const SpatialTaxonomy& taxonomy, const std::vector<UserGroup>& groups,
    const ClusteringOptions& options) {
  if (!(options.beta > 0.0 && options.beta < 1.0)) {
    return Status::InvalidArgument("beta must be in (0, 1)");
  }
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
  std::vector<Cluster> clusters;
  clusters.reserve(groups.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    clusters.push_back(MakeSingletonCluster(taxonomy, groups, g));
  }
  return clusters;
}

}  // namespace

double MaxPathError(const SpatialTaxonomy& taxonomy,
                    const std::vector<Cluster>& clusters, double beta) {
  if (clusters.empty()) return 0.0;
  ClusterForest forest(taxonomy, clusters);
  const double max_err =
      forest.MaxPathError(beta / static_cast<double>(clusters.size()));
  CountBoundEvaluations(forest.evaluations());
  return max_err;
}

StatusOr<ClusteringResult> TrivialClusters(const SpatialTaxonomy& taxonomy,
                                           const std::vector<UserGroup>& groups,
                                           const ClusteringOptions& options) {
  ClusteringResult result;
  PLDP_ASSIGN_OR_RETURN(result.clusters,
                        SingletonClusters(taxonomy, groups, options));
  result.initial_max_path_error =
      MaxPathError(taxonomy, result.clusters, options.beta);
  result.final_max_path_error = result.initial_max_path_error;
  return result;
}

StatusOr<ClusteringResult> ClusterUserGroups(
    const SpatialTaxonomy& taxonomy, const std::vector<UserGroup>& groups,
    const ClusteringOptions& options) {
  PLDP_SPAN("clustering.cluster_groups");
  if (groups.size() <= 1) return TrivialClusters(taxonomy, groups, options);
  ClusteringResult result;
  PLDP_ASSIGN_OR_RETURN(result.clusters,
                        SingletonClusters(taxonomy, groups, options));
  std::vector<Cluster>& clusters = result.clusters;
  const size_t k = clusters.size();

  // One forest serves both objectives and every merge pass.
  ClusterForest forest(taxonomy, clusters);
  std::vector<bool> alive(k, true);
  // Lines 1-4 of Algorithm 3.
  result.initial_max_path_error =
      forest.MaxPathError(options.beta / static_cast<double>(k));
  double lmax = result.initial_max_path_error;

  while (forest.num_alive() > 1) {
    // Lines 6-7: all quantities at the post-merge confidence beta/(|C|-1).
    const ClusterForest::Candidate best = forest.BestMerge(
        options.beta / static_cast<double>(forest.num_alive() - 1), lmax);

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

  result.final_max_path_error = forest.MaxPathError(
      options.beta / static_cast<double>(forest.num_alive()));
  CountBoundEvaluations(forest.evaluations());

  // Compact the surviving clusters.
  std::vector<Cluster> survivors;
  survivors.reserve(forest.num_alive());
  for (size_t c = 0; c < k; ++c) {
    if (alive[c]) survivors.push_back(std::move(clusters[c]));
  }
  clusters = std::move(survivors);

  static obs::Counter* merges_counter =
      obs::MetricsRegistry::Global().GetCounter("clustering.merges");
  static obs::Counter* clusters_counter =
      obs::MetricsRegistry::Global().GetCounter("clustering.clusters");
  merges_counter->Increment(result.merges);
  clusters_counter->Increment(clusters.size());
  return result;
}

}  // namespace pldp
