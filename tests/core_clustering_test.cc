#include "core/clustering.h"

#include <bit>
#include <set>

#include <gtest/gtest.h>

#include "core/error_model.h"
#include "core/user_group.h"
#include "data/spec_assignment.h"
#include "data/synthetic.h"
#include "geo/taxonomy.h"
#include "obs/metrics.h"

namespace pldp {
namespace {

SpatialTaxonomy MakeTaxonomy(uint32_t side = 8) {
  const UniformGrid grid =
      UniformGrid::Create(BoundingBox{0, 0, static_cast<double>(side),
                                      static_cast<double>(side)},
                          1, 1)
          .value();
  return SpatialTaxonomy::Build(grid, 4).value();
}

UserGroup MakeGroup(NodeId region, uint64_t n, double epsilon) {
  UserGroup group;
  group.region = region;
  group.members.resize(n);
  for (uint64_t i = 0; i < n; ++i) group.members[i] = static_cast<uint32_t>(i);
  group.varsigma = static_cast<double>(n) * PrivacyFactorTerm(epsilon);
  return group;
}

TEST(ClusteringTest, EmptyAndSingleton) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  ClusteringOptions options;
  const auto empty = ClusterUserGroups(tax, {}, options).value();
  EXPECT_TRUE(empty.clusters.empty());
  EXPECT_EQ(empty.merges, 0u);

  const auto single =
      ClusterUserGroups(tax, {MakeGroup(tax.root(), 100, 1.0)}, options)
          .value();
  ASSERT_EQ(single.clusters.size(), 1u);
  EXPECT_EQ(single.clusters[0].n, 100u);
  EXPECT_EQ(single.clusters[0].region_size, 64u);
  EXPECT_EQ(single.merges, 0u);
}

TEST(ClusteringTest, RejectsDuplicateRegions) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const std::vector<UserGroup> groups = {MakeGroup(tax.root(), 10, 1.0),
                                         MakeGroup(tax.root(), 20, 1.0)};
  EXPECT_FALSE(ClusterUserGroups(tax, groups, ClusteringOptions()).ok());
}

TEST(ClusteringTest, RejectsEmptyGroup) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  UserGroup empty_group;
  empty_group.region = tax.root();
  EXPECT_FALSE(
      ClusterUserGroups(tax, {empty_group}, ClusteringOptions()).ok());
}

TEST(ClusteringTest, Example41ShapeMergesNestedGroups) {
  // Mirrors Example 4.1: a large group at an internal node and a smaller
  // group at one of its descendants; merging them lowers the bound, so the
  // algorithm must merge.
  const SpatialTaxonomy tax = MakeTaxonomy(8);
  const NodeId outer = tax.children(tax.root())[0];     // 16 cells
  const NodeId inner = tax.children(outer)[1];          // 4 cells
  ASSERT_TRUE(tax.Contains(outer, inner));
  const std::vector<UserGroup> groups = {MakeGroup(outer, 60000, 1.0),
                                         MakeGroup(inner, 20000, 1.0)};
  ClusteringOptions options;
  options.beta = 0.2;
  const auto result = ClusterUserGroups(tax, groups, options).value();
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.merges, 1u);
  EXPECT_EQ(result.clusters[0].top_region, outer);
  EXPECT_EQ(result.clusters[0].n, 80000u);
  EXPECT_EQ(result.clusters[0].region_size, tax.RegionSize(outer));
  EXPECT_LT(result.final_max_path_error, result.initial_max_path_error);
}

TEST(ClusteringTest, DisjointRegionsNeverMerge) {
  const SpatialTaxonomy tax = MakeTaxonomy(8);
  const auto& children = tax.children(tax.root());
  ASSERT_GE(children.size(), 2u);
  const std::vector<UserGroup> groups = {MakeGroup(children[0], 5000, 1.0),
                                         MakeGroup(children[1], 5000, 1.0)};
  const auto result =
      ClusterUserGroups(tax, groups, ClusteringOptions()).value();
  EXPECT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.merges, 0u);
}

TEST(ClusteringTest, NeverIncreasesObjective) {
  // Randomized-ish sweep: many nested configurations; the final objective
  // must never exceed the initial one (the algorithm only accepts improving
  // merges).
  const SpatialTaxonomy tax = MakeTaxonomy(16);
  for (uint64_t scenario = 0; scenario < 12; ++scenario) {
    std::vector<UserGroup> groups;
    std::set<NodeId> used;
    // Walk a few root-to-leaf chains, dropping groups at various depths.
    NodeId node = tax.root();
    uint64_t n = 1000 + 7919 * scenario % 50000;
    uint32_t salt = static_cast<uint32_t>(scenario);
    while (!tax.IsLeaf(node)) {
      if ((salt % 3) != 0 && used.insert(node).second) {
        groups.push_back(
            MakeGroup(node, 500 + n % 20000, 0.25 + 0.25 * (salt % 4)));
      }
      const auto& children = tax.children(node);
      node = children[salt % children.size()];
      salt = salt * 31 + 17;
      n = n * 13 + 7;
    }
    if (used.insert(node).second) groups.push_back(MakeGroup(node, 300, 1.0));
    if (groups.empty()) continue;

    const auto result =
        ClusterUserGroups(tax, groups, ClusteringOptions()).value();
    EXPECT_LE(result.final_max_path_error,
              result.initial_max_path_error * (1.0 + 1e-9))
        << "scenario " << scenario;

    // Invariants: clusters partition the groups; every cluster's top region
    // contains all its member groups' regions.
    std::set<uint32_t> seen;
    for (const Cluster& cluster : result.clusters) {
      for (const uint32_t g : cluster.groups) {
        EXPECT_TRUE(seen.insert(g).second);
        EXPECT_TRUE(tax.Contains(cluster.top_region, groups[g].region));
      }
      uint64_t expected_n = 0;
      double expected_varsigma = 0.0;
      for (const uint32_t g : cluster.groups) {
        expected_n += groups[g].n();
        expected_varsigma += groups[g].varsigma;
      }
      EXPECT_EQ(cluster.n, expected_n);
      EXPECT_NEAR(cluster.varsigma, expected_varsigma, 1e-6);
      EXPECT_EQ(cluster.region_size, tax.RegionSize(cluster.top_region));
    }
    EXPECT_EQ(seen.size(), groups.size());
  }
}

TEST(ClusteringTest, TrivialClustersKeepsGroupsSeparate) {
  const SpatialTaxonomy tax = MakeTaxonomy(8);
  const NodeId outer = tax.children(tax.root())[0];
  const NodeId inner = tax.children(outer)[1];
  const std::vector<UserGroup> groups = {MakeGroup(outer, 60000, 1.0),
                                         MakeGroup(inner, 20000, 1.0)};
  const auto result = TrivialClusters(tax, groups, ClusteringOptions()).value();
  EXPECT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.merges, 0u);
}

TEST(ClusteringTest, MaxPathErrorSumsAlongChains) {
  const SpatialTaxonomy tax = MakeTaxonomy(8);
  const NodeId outer = tax.children(tax.root())[0];
  const NodeId inner = tax.children(outer)[1];
  std::vector<Cluster> clusters(2);
  clusters[0].top_region = outer;
  clusters[0].n = 100;
  clusters[0].region_size = tax.RegionSize(outer);
  clusters[0].varsigma = 100 * PrivacyFactorTerm(1.0);
  clusters[1].top_region = inner;
  clusters[1].n = 50;
  clusters[1].region_size = tax.RegionSize(inner);
  clusters[1].varsigma = 50 * PrivacyFactorTerm(1.0);

  const double beta = 0.1;
  const double err_outer = PcepErrorBound(beta / 2, 100, 16, clusters[0].varsigma);
  const double err_inner = PcepErrorBound(beta / 2, 50, 4, clusters[1].varsigma);
  EXPECT_NEAR(MaxPathError(tax, clusters, beta), err_outer + err_inner, 1e-9);
}

// The checkin cohort at scale 0.15 (S2E2, seed 2016), derived as `pldp_cli
// run` derives it: 4,436 groups in a forest of hundreds of trees, clustered
// over thousands of passes. The merges, both objective values and every
// cluster's group list (in merge order) are pinned to the values of the
// whole-forest implementation. The evaluation count catches a pass that
// refreshes every tree or scans every pair; that took 10,057,771 bounds.
TEST(ClusteringTest, CheckinCohortKeepsPinnedMerges) {
  const uint64_t seed = 2016;
  const Dataset dataset = GenerateByName("checkin", 0.15, seed).value();
  const UniformGrid grid = dataset.MakeGrid().value();
  const SpatialTaxonomy tax = SpatialTaxonomy::Build(grid, 4).value();
  const std::vector<UserRecord> users =
      AssignSpecs(tax, dataset.ToCells(grid), SafeRegionsS2(), EpsilonsE2(),
                  seed ^ 0x5E771265)
          .value();
  const std::vector<UserGroup> groups =
      GroupUsersBySafeRegion(tax, users).value();
  ASSERT_EQ(groups.size(), 4436u);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  obs::Counter* evaluations =
      registry.GetCounter("error_model.bound_evaluations");
  const uint64_t before = evaluations->Value();
  const ClusteringResult result =
      ClusterUserGroups(tax, groups, ClusteringOptions{0.1}).value();
  const uint64_t evaluated = evaluations->Value() - before;
  registry.set_enabled(was_enabled);

  EXPECT_EQ(result.merges, 4082u);
  EXPECT_EQ(result.clusters.size(), 354u);
  EXPECT_EQ(std::bit_cast<uint64_t>(result.initial_max_path_error),
            0x40ae96a805c9567eu);
  EXPECT_EQ(std::bit_cast<uint64_t>(result.final_max_path_error),
            0x40a3cfb1bdfe10bbu);
  uint64_t hash = 14695981039346656037u;  // FNV-1a over the group lists
  const auto mix = [&](uint64_t value) {
    hash = (hash ^ value) * 1099511628211u;
  };
  mix(result.clusters.size());
  for (const Cluster& cluster : result.clusters) {
    mix(cluster.groups.size());
    for (const uint32_t g : cluster.groups) mix(g);
  }
  EXPECT_EQ(hash, 0x0d668c4eca513ccbu);
  // Refreshing every tree on every pass costs about 10M evaluations; the
  // exact count also catches a scan that runs on past the first pair that
  // scores the maximum path error, which keeps every merge.
  EXPECT_LT(evaluated, 2000000u);
  EXPECT_EQ(evaluated, 545656u);
}

}  // namespace
}  // namespace pldp
