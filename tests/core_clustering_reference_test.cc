// Equivalence check: the optimized cluster-forest implementation of
// Algorithm 3 must produce exactly the same merge decisions as a
// straightforward O(k^2)-per-pair reference implementation, across many
// randomized group configurations. Each cluster's group list records the
// order of its merges, so comparing the lists in order compares the whole
// merge sequence.

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/clustering.h"
#include "core/error_model.h"
#include "geo/taxonomy.h"
#include "util/random.h"

namespace pldp {
namespace {

double RefClusterError(const SpatialTaxonomy& taxonomy, const Cluster& cluster,
                       double beta_each) {
  (void)taxonomy;
  return PcepErrorBound(beta_each, static_cast<double>(cluster.n),
                        static_cast<double>(cluster.region_size),
                        cluster.varsigma);
}

/// Algorithm 3 does not say which of several equally good merges to take.
/// ClusterUserGroups takes the first in its scan order: inner clusters
/// parents-first by (top level, index), and for each inner its outer clusters
/// from the nearest enclosing one outward. Exact ties are common (every merge
/// that leaves the worst path alone scores that path's error), so the
/// reference applies the same rule instead of its loops' index order.
bool ScanOrderBefore(const SpatialTaxonomy& taxonomy,
                     const std::vector<Cluster>& clusters, size_t outer,
                     size_t inner, size_t other_outer, size_t other_inner) {
  const auto key = [&](size_t o, size_t i) {
    return std::make_tuple(taxonomy.level(clusters[i].top_region), i,
                           -static_cast<int64_t>(
                               taxonomy.level(clusters[o].top_region)));
  };
  return key(outer, inner) < key(other_outer, other_inner);
}

/// Literal transcription of Algorithm 3: paths are represented by every
/// cluster as a base, path membership is decided by top-region containment,
/// and every comparable pair is evaluated with a full O(paths) sweep. A
/// path's error sums its clusters root first, as ClusterUserGroups does:
/// summed in index order, a chain of three or more can round differently,
/// and an exact tie between copied trees then picks a different merge.
ClusteringResult ReferenceCluster(const SpatialTaxonomy& taxonomy,
                                  const std::vector<UserGroup>& groups,
                                  double beta) {
  ClusteringResult result =
      TrivialClusters(taxonomy, groups, ClusteringOptions{beta}).value();
  std::vector<Cluster>& clusters = result.clusters;
  const size_t k = clusters.size();
  if (k <= 1) return result;

  std::vector<bool> alive(k, true);
  size_t num_alive = k;
  double lmax = result.initial_max_path_error;

  while (num_alive > 1) {
    const double beta_each = beta / static_cast<double>(num_alive - 1);
    std::vector<double> errors(k, 0.0), path_errors(k, 0.0);
    for (size_t c = 0; c < k; ++c) {
      if (alive[c]) {
        errors[c] = RefClusterError(taxonomy, clusters[c], beta_each);
      }
    }
    for (size_t base = 0; base < k; ++base) {
      if (!alive[base]) continue;
      std::vector<size_t> chain;
      for (size_t c = 0; c < k; ++c) {
        if (alive[c] && taxonomy.Contains(clusters[c].top_region,
                                          clusters[base].top_region)) {
          chain.push_back(c);
        }
      }
      std::sort(chain.begin(), chain.end(), [&](size_t a, size_t b) {
        return taxonomy.level(clusters[a].top_region) <
               taxonomy.level(clusters[b].top_region);
      });
      for (const size_t c : chain) path_errors[base] += errors[c];
    }

    double best = std::numeric_limits<double>::infinity();
    size_t best_outer = k, best_inner = k;
    for (size_t outer = 0; outer < k; ++outer) {
      if (!alive[outer]) continue;
      for (size_t inner = 0; inner < k; ++inner) {
        if (!alive[inner] || inner == outer) continue;
        if (!taxonomy.Contains(clusters[outer].top_region,
                               clusters[inner].top_region)) {
          continue;
        }
        Cluster merged;
        merged.top_region = clusters[outer].top_region;
        merged.n = clusters[outer].n + clusters[inner].n;
        merged.region_size = clusters[outer].region_size;
        merged.varsigma = clusters[outer].varsigma + clusters[inner].varsigma;
        const double merged_error =
            RefClusterError(taxonomy, merged, beta_each);

        double worst = 0.0;
        for (size_t p = 0; p < k; ++p) {
          if (!alive[p]) continue;
          double err = path_errors[p];
          if (taxonomy.Contains(clusters[outer].top_region,
                                clusters[p].top_region)) {
            err += merged_error - errors[outer];
          }
          if (taxonomy.Contains(clusters[inner].top_region,
                                clusters[p].top_region)) {
            err -= errors[inner];
          }
          worst = std::max(worst, err);
        }
        if (worst < best ||
            (worst == best && ScanOrderBefore(taxonomy, clusters, outer,
                                              inner, best_outer,
                                              best_inner))) {
          best = worst;
          best_outer = outer;
          best_inner = inner;
        }
      }
    }
    if (best_outer == k || best >= lmax) break;
    clusters[best_outer].groups.insert(clusters[best_outer].groups.end(),
                                       clusters[best_inner].groups.begin(),
                                       clusters[best_inner].groups.end());
    clusters[best_outer].n += clusters[best_inner].n;
    clusters[best_outer].varsigma += clusters[best_inner].varsigma;
    alive[best_inner] = false;
    --num_alive;
    ++result.merges;
    lmax = best;
  }

  std::vector<Cluster> survivors;
  for (size_t c = 0; c < k; ++c) {
    if (alive[c]) survivors.push_back(clusters[c]);
  }
  result.clusters = std::move(survivors);
  result.final_max_path_error = MaxPathError(taxonomy, result.clusters, beta);
  return result;
}

UserGroup MakeGroup(NodeId region, uint64_t n, double eps) {
  UserGroup group;
  group.region = region;
  group.members.resize(n);
  group.varsigma = static_cast<double>(n) * PrivacyFactorTerm(eps);
  return group;
}

std::vector<UserGroup> RandomGroups(const SpatialTaxonomy& taxonomy,
                                    size_t count, Rng* rng) {
  std::vector<UserGroup> groups;
  std::set<NodeId> used;
  while (groups.size() < count) {
    const auto node =
        static_cast<NodeId>(rng->NextUint64(taxonomy.num_nodes()));
    if (!used.insert(node).second) continue;
    const uint64_t n = 1 + rng->NextUint64(30000);
    const double eps = 0.25 + 0.25 * rng->NextUint64(5);
    groups.push_back(MakeGroup(node, n, eps));
  }
  return groups;
}

SpatialTaxonomy MakeTaxonomy(double side) {
  const UniformGrid grid =
      UniformGrid::Create(BoundingBox{0, 0, side, side}, 1, 1).value();
  return SpatialTaxonomy::Build(grid, 4).value();
}

/// The distinct nodes at `level`.
std::vector<NodeId> NodesAtLevel(const SpatialTaxonomy& taxonomy,
                                 uint32_t level) {
  std::vector<NodeId> nodes;
  for (NodeId node = 0; node < taxonomy.num_nodes(); ++node) {
    if (taxonomy.level(node) == level) nodes.push_back(node);
  }
  return nodes;
}

/// `count` distinct nodes drawn from `nodes`.
std::vector<NodeId> DistinctNodes(const std::vector<NodeId>& nodes,
                                  size_t count, Rng* rng) {
  std::vector<NodeId> picked;
  while (picked.size() < count) {
    const NodeId node = nodes[rng->NextUint64(nodes.size())];
    if (std::find(picked.begin(), picked.end(), node) == picked.end()) {
      picked.push_back(node);
    }
  }
  return picked;
}

/// `node` or one of its descendants, reached by a random walk down from
/// `node` of random length.
NodeId RandomDescendant(const SpatialTaxonomy& taxonomy, NodeId node,
                        Rng* rng) {
  const uint64_t steps =
      rng->NextUint64(taxonomy.height() - taxonomy.level(node) + 1);
  for (uint64_t s = 0; s < steps; ++s) {
    const std::vector<NodeId>& children = taxonomy.children(node);
    node = children[rng->NextUint64(children.size())];
  }
  return node;
}

void ExpectSameClustering(const ClusteringResult& optimized,
                          const ClusteringResult& reference,
                          const std::string& label) {
  EXPECT_EQ(optimized.merges, reference.merges) << label;
  EXPECT_EQ(optimized.initial_max_path_error,
            reference.initial_max_path_error)
      << label;
  EXPECT_EQ(optimized.final_max_path_error, reference.final_max_path_error)
      << label;
  ASSERT_EQ(optimized.clusters.size(), reference.clusters.size()) << label;
  for (size_t c = 0; c < reference.clusters.size(); ++c) {
    EXPECT_EQ(optimized.clusters[c].groups, reference.clusters[c].groups)
        << label << ", cluster " << c;
  }
}

void ExpectMatchesReference(const SpatialTaxonomy& taxonomy,
                            const std::vector<UserGroup>& groups,
                            const std::string& label) {
  const double beta = 0.1;
  const ClusteringResult reference = ReferenceCluster(taxonomy, groups, beta);
  const ClusteringResult optimized =
      ClusterUserGroups(taxonomy, groups, ClusteringOptions{beta}).value();
  ExpectSameClustering(optimized, reference, label);
}

class ClusteringEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusteringEquivalenceTest, OptimizedMatchesReference) {
  const int scenario = GetParam();
  const SpatialTaxonomy taxonomy = MakeTaxonomy(16);
  Rng rng(1000 + scenario);
  const size_t count = 2 + rng.NextUint64(24);
  ExpectMatchesReference(taxonomy, RandomGroups(taxonomy, count, &rng),
                         "scenario " + std::to_string(scenario));
}

// Groups only inside a few disjoint level-2 subtrees of a 64x64 taxonomy,
// none above them: the cluster forest has several root trees, and the
// optimized scan skips whole trees whose root cannot beat the running best.
TEST_P(ClusteringEquivalenceTest, DisjointRootTreesMatchReference) {
  const int scenario = GetParam();
  const SpatialTaxonomy taxonomy = MakeTaxonomy(64);
  Rng rng(2000 + scenario);
  const size_t num_trees = 2 + rng.NextUint64(4);
  const std::vector<NodeId> tree_tops =
      DistinctNodes(NodesAtLevel(taxonomy, 2), num_trees, &rng);
  const size_t count = 20 + rng.NextUint64(30);
  std::vector<UserGroup> groups;
  std::set<NodeId> used;
  while (groups.size() < count) {
    const NodeId node = RandomDescendant(
        taxonomy, tree_tops[rng.NextUint64(tree_tops.size())], &rng);
    if (!used.insert(node).second) continue;
    const uint64_t n = 1 + rng.NextUint64(30000);
    const double eps = 0.25 + 0.25 * rng.NextUint64(5);
    groups.push_back(MakeGroup(node, n, eps));
  }
  ExpectMatchesReference(taxonomy, groups,
                         "disjoint trees " + std::to_string(scenario));
}

// Every chosen parent gets a group, and all of its children get groups with
// equal n and equal epsilon, so sibling merges tie exactly and the strict-<
// tie-break decides which sibling merges first. The groups are shuffled, so
// index order and taxonomy order disagree.
TEST_P(ClusteringEquivalenceTest, EqualSiblingsMatchReference) {
  const int scenario = GetParam();
  const SpatialTaxonomy taxonomy = MakeTaxonomy(16);
  Rng rng(3000 + scenario);
  std::vector<NodeId> internal;
  for (NodeId node = 0; node < taxonomy.num_nodes(); ++node) {
    if (!taxonomy.IsLeaf(node)) internal.push_back(node);
  }
  std::vector<UserGroup> groups;
  std::set<NodeId> used;
  const size_t num_parents = 2 + rng.NextUint64(4);
  for (size_t placed = 0; placed < num_parents;) {
    const NodeId parent = internal[rng.NextUint64(internal.size())];
    bool clash = used.count(parent) != 0;
    for (const NodeId child : taxonomy.children(parent)) {
      clash = clash || used.count(child) != 0;
    }
    if (clash) continue;
    used.insert(parent);
    const uint64_t parent_n = 1 + rng.NextUint64(30000);
    const double parent_eps = 0.25 + 0.25 * rng.NextUint64(5);
    groups.push_back(MakeGroup(parent, parent_n, parent_eps));
    const uint64_t n = 1 + rng.NextUint64(30000);
    const double eps = 0.25 + 0.25 * rng.NextUint64(5);
    for (const NodeId child : taxonomy.children(parent)) {
      used.insert(child);
      groups.push_back(MakeGroup(child, n, eps));
    }
    ++placed;
  }
  for (size_t i = groups.size(); i > 1; --i) {
    std::swap(groups[i - 1], groups[rng.NextUint64(i)]);
  }
  ExpectMatchesReference(taxonomy, groups,
                         "equal siblings " + std::to_string(scenario));
}

// One random tree shape copied, with the same n and epsilon per node, under
// 2-5 disjoint level-2 nodes of a 64x64 taxonomy. The copies' maxima tie
// exactly, so no merge can score below the maximum path error M until one
// copy changes, and the first pair in scan order that scores M is taken.
TEST_P(ClusteringEquivalenceTest, CopiedTreesMatchReference) {
  const int scenario = GetParam();
  const SpatialTaxonomy taxonomy = MakeTaxonomy(64);
  Rng rng(4000 + scenario);
  const size_t num_copies = 2 + rng.NextUint64(4);
  const std::vector<NodeId> tops =
      DistinctNodes(NodesAtLevel(taxonomy, 2), num_copies, &rng);
  // The shape: distinct child-index paths down from the top.
  struct Member {
    std::vector<size_t> path;
    uint64_t n;
    double eps;
  };
  std::vector<Member> shape;
  std::set<std::vector<size_t>> paths;
  const size_t count = 2 + rng.NextUint64(10);
  while (shape.size() < count) {
    std::vector<size_t> path(rng.NextUint64(taxonomy.height() - 1));
    for (size_t& step : path) step = rng.NextUint64(4);
    if (!paths.insert(path).second) continue;
    shape.push_back(
        {path, 1 + rng.NextUint64(30000), 0.25 + 0.25 * rng.NextUint64(5)});
  }
  std::vector<UserGroup> groups;
  for (const NodeId top : tops) {
    for (const Member& member : shape) {
      NodeId node = top;
      for (const size_t step : member.path) {
        node = taxonomy.children(node)[step];
      }
      groups.push_back(MakeGroup(node, member.n, member.eps));
    }
  }
  ExpectMatchesReference(taxonomy, groups,
                         "copied trees " + std::to_string(scenario));
}

// Random groups plus one at the taxonomy root: every cluster lies in the
// root's tree, so the whole forest is one tree that every merge touches.
TEST_P(ClusteringEquivalenceTest, RootGroupMatchesReference) {
  const int scenario = GetParam();
  const SpatialTaxonomy taxonomy = MakeTaxonomy(16);
  Rng rng(5000 + scenario);
  std::vector<UserGroup> groups =
      RandomGroups(taxonomy, 1 + rng.NextUint64(24), &rng);
  if (std::none_of(groups.begin(), groups.end(), [&](const UserGroup& g) {
        return g.region == taxonomy.root();
      })) {
    groups.push_back(MakeGroup(taxonomy.root(), 1 + rng.NextUint64(30000),
                               0.25 + 0.25 * rng.NextUint64(5)));
  }
  ExpectMatchesReference(taxonomy, groups,
                         "root group " + std::to_string(scenario));
}

INSTANTIATE_TEST_SUITE_P(RandomConfigurations, ClusteringEquivalenceTest,
                         ::testing::Range(0, 40));

// A merge that raises its tree's maximum must not leave that tree's bound in
// place. Trees A = {a, a2} and B = {b, b2} are copies and tie at M; T = {t,
// u, w} lies below them. Pass 1 takes (t, u), the first pair scoring M,
// which raises T's maximum. Pass 2 takes (a, a2) at M. Pass 3 takes (b, b2),
// which scores T's maximum, now above merged A's, and pass 4 merges (t, w)
// below that. Had T kept its pre-merge bound, which lies under merged A's
// maximum, pass 3 would not refresh T and would score (b, b2) at merged A's
// maximum, and pass 4 would refuse (t, w) against that lower objective.
TEST(ClusteringStaleBoundTest, RaisedTreeIsRefreshed) {
  const SpatialTaxonomy taxonomy = MakeTaxonomy(64);
  const auto below = [&](NodeId node, std::initializer_list<size_t> steps) {
    for (const size_t step : steps) node = taxonomy.children(node)[step];
    return node;
  };
  const NodeId t = below(taxonomy.root(), {0, 0});
  const NodeId a = below(taxonomy.root(), {1, 0});
  const NodeId b = below(taxonomy.root(), {2, 0});
  const std::vector<UserGroup> groups = {
      MakeGroup(t, 100, 1.0),
      MakeGroup(below(t, {0}), 5000, 1.0),         // u
      MakeGroup(below(t, {1, 0, 0}), 25000, 1.0),  // w
      MakeGroup(a, 15000, 1.0),
      MakeGroup(below(a, {0, 0}), 7500, 1.0),      // a2
      MakeGroup(b, 15000, 1.0),
      MakeGroup(below(b, {0, 0}), 7500, 1.0)};     // b2
  ExpectMatchesReference(taxonomy, groups, "stale bound");
  const ClusteringResult result =
      ClusterUserGroups(taxonomy, groups, ClusteringOptions{0.1}).value();
  EXPECT_EQ(result.merges, 4u);
  ASSERT_EQ(result.clusters.size(), 3u);
  EXPECT_EQ(result.clusters[0].groups, (std::vector<uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace pldp
