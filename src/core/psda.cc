#include "core/psda.h"

#include <algorithm>

#include "core/consistency.h"
#include "core/error_model.h"
#include "core/frequency_oracle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cpu.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pldp {

bool operator==(const ClusterResponseStats& a, const ClusterResponseStats& b) {
  return a.cluster_index == b.cluster_index && a.n_expected == b.n_expected &&
         a.n_responded == b.n_responded && a.n_shed == b.n_shed &&
         a.response_rate == b.response_rate && a.error_bound == b.error_bound;
}

uint64_t ClusterSeed(uint64_t seed, size_t cluster_index) {
  return SplitMix64(seed ^ ((cluster_index + 1) * 0x9E3779B97F4A7C15ULL));
}

unsigned ClusterFanOutChunks(const PsdaOptions& options) {
  // Rounded to the topology group count so cluster work splits evenly across
  // NUMA nodes / cache domains. Every fan-out writes one slot per cluster
  // and merges in cluster order, so the chunk count never changes results.
  return TopologyAlignedChunks(options.num_threads != 0
                                   ? options.num_threads
                                   : ThreadPool::Global().num_threads());
}

StatusOr<EpochPlan> PlanEpoch(const SpatialTaxonomy& taxonomy,
                              const std::vector<UserGroup>& groups,
                              const PsdaOptions& options) {
  // Line 5: partition the groups into clusters (Algorithm 3).
  ClusteringOptions cluster_options;
  cluster_options.beta = options.beta;
  EpochPlan plan;
  PLDP_ASSIGN_OR_RETURN(
      plan.clustering,
      options.enable_clustering
          ? ClusterUserGroups(taxonomy, groups, cluster_options)
          : TrivialClusters(taxonomy, groups, cluster_options));

  // Lines 6-9 run one PCEP per cluster at confidence beta / |C|.
  const std::vector<Cluster>& clusters = plan.clustering.clusters;
  const double beta_each = options.beta / static_cast<double>(clusters.size());
  plan.clusters.resize(clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    ClusterPlan& cluster = plan.clusters[c];
    cluster.cells = taxonomy.RegionCells(clusters[c].top_region);
    cluster.n = clusters[c].n;
    cluster.params.beta = beta_each;
    cluster.params.seed = ClusterSeed(options.seed, c);
    cluster.params.max_reduced_dimension = options.max_reduced_dimension;
  }
  return plan;
}

StatusOr<PsdaResult> PublishEpoch(const SpatialTaxonomy& taxonomy,
                                  const std::vector<UserGroup>& groups,
                                  const EpochPlan& plan,
                                  const std::vector<ClusterTally>& tallies,
                                  uint64_t cohort_size,
                                  bool enforce_consistency) {
  PLDP_CHECK(tallies.size() == plan.clusters.size());
  PsdaResult result;
  result.raw_counts.assign(taxonomy.grid().num_cells(), 0.0);
  result.cluster_response.reserve(plan.clusters.size());
  uint64_t responders = 0;
  for (size_t c = 0; c < plan.clusters.size(); ++c) {
    const ClusterPlan& cluster = plan.clusters[c];
    const ClusterTally& tally = tallies[c];
    responders += cluster.n;

    ClusterResponseStats response;
    response.cluster_index = static_cast<uint32_t>(c);
    response.n_expected = cluster.n;
    response.n_responded = tally.n_responded;
    response.n_shed = tally.n_shed;
    response.response_rate =
        cluster.n == 0 ? 0.0
                       : static_cast<double>(tally.n_responded) /
                             static_cast<double>(cluster.n);
    response.error_bound =
        tally.n_responded == 0
            ? 0.0
            : PcepErrorBound(cluster.params.beta,
                             static_cast<double>(tally.n_responded),
                             static_cast<double>(cluster.cells.size()),
                             tally.varsigma_responded);
    result.cluster_response.push_back(response);

    if (tally.n_responded == 0) {
      PLDP_LOG(Warning) << "cluster " << c
                        << " received no reports; its region contributes 0";
      continue;
    }
    PLDP_CHECK(tally.estimate.size() == cluster.cells.size())
        << "cluster " << c << " has a wrong-size estimate";
    // Missing-completely-at-random dropout — and admission shedding, which
    // refuses reports independently of their content — thins every count by
    // the response rate in expectation; rescaling by its inverse keeps the
    // estimator unbiased. The scale is exactly 1.0 when nobody dropped, so
    // a full cohort's estimate merges unchanged.
    const double rescale = static_cast<double>(cluster.n) /
                           static_cast<double>(tally.n_responded);
    for (size_t k = 0; k < cluster.cells.size(); ++k) {
      result.raw_counts[cluster.cells[k]] += tally.estimate[k] * rescale;
    }
  }

  // Line 10: enforce the public consistency constraints. Groups hold the
  // spec responders, so the constraint totals match the rescaled
  // per-cluster estimates.
  if (enforce_consistency) {
    PLDP_ASSIGN_OR_RETURN(
        result.counts, EnforceConsistency(taxonomy, result.raw_counts, groups));
  } else {
    result.counts = result.raw_counts;
  }

  // Users lost before registering a spec never joined any group; under MCAR
  // dropout the responders are an unbiased sample of the cohort, so the
  // full-population estimate is the responder estimate scaled up. Applied
  // after consistency, which pins totals to the responder cohort.
  result.global_rescale =
      static_cast<double>(cohort_size) / static_cast<double>(responders);
  if (result.global_rescale != 1.0) {
    for (double& v : result.raw_counts) v *= result.global_rescale;
    for (double& v : result.counts) v *= result.global_rescale;
  }
  return result;
}

StatusOr<PsdaResult> RunPsdaWithOracle(const SpatialTaxonomy& taxonomy,
                                       const std::vector<UserRecord>& users,
                                       const PsdaOptions& options,
                                       const FrequencyOracle& oracle) {
  if (users.empty()) {
    return Status::InvalidArgument("PSDA needs at least one user");
  }
  PLDP_SPAN("psda.run");
  Stopwatch timer;

  // Line 4: group users by their (public) safe regions.
  std::vector<UserGroup> groups;
  {
    PLDP_SPAN("psda.group");
    PLDP_ASSIGN_OR_RETURN(groups, GroupUsersBySafeRegion(taxonomy, users));
  }
  PLDP_ASSIGN_OR_RETURN(EpochPlan plan, PlanEpoch(taxonomy, groups, options));

  // Lines 6-9: every user of a cluster reports to its oracle instance.
  // Clusters are independent protocol instances with independent seeds, so
  // they estimate in parallel on the shared pool, each into its own slot.
  const std::vector<Cluster>& clusters = plan.clustering.clusters;
  const size_t num_clusters = clusters.size();
  std::vector<ClusterTally> tallies(num_clusters);
  {
    PLDP_SPAN("psda.estimate_clusters");
    std::vector<std::vector<PcepUser>> cluster_users(num_clusters);
    for (size_t c = 0; c < num_clusters; ++c) {
      for (const uint32_t g : clusters[c].groups) {
        for (const uint32_t user_index : groups[g].members) {
          const UserRecord& user = users[user_index];
          const StatusOr<uint64_t> rank =
              taxonomy.RegionRankOfCell(clusters[c].top_region, user.cell);
          PLDP_CHECK(rank.ok())
              << "user cell not covered by its cluster region";
          PcepUser oracle_user;
          oracle_user.location_index = static_cast<uint32_t>(*rank);
          oracle_user.epsilon = user.spec.epsilon;
          cluster_users[c].push_back(oracle_user);
        }
      }
    }

    const unsigned num_chunks = static_cast<unsigned>(
        std::min<size_t>(ClusterFanOutChunks(options), num_clusters));
    const int64_t estimate_span = obs::TraceCollector::Global().CurrentSpan();
    std::vector<Status> cluster_status(num_clusters, Status::OK());
    ThreadPool::Global().ParallelFor(
        0, num_clusters, num_chunks,
        [&](unsigned /*chunk*/, size_t begin, size_t end) {
          PLDP_SPAN_PARENT("psda.estimate_worker", estimate_span);
          for (size_t c = begin; c < end; ++c) {
            const ClusterPlan& cluster = plan.clusters[c];
            StatusOr<std::vector<double>> estimate = oracle.EstimateCounts(
                cluster_users[c], cluster.cells.size(), cluster.params.beta,
                cluster.params.seed);
            if (!estimate.ok()) {
              cluster_status[c] = estimate.status();
              continue;
            }
            tallies[c].estimate = std::move(estimate).value();
          }
        });
    for (size_t c = 0; c < num_clusters; ++c) {
      PLDP_RETURN_IF_ERROR(cluster_status[c]);
      tallies[c].n_responded = plan.clusters[c].n;
      tallies[c].varsigma_responded = clusters[c].varsigma;
    }
  }

  PLDP_ASSIGN_OR_RETURN(
      PsdaResult result,
      PublishEpoch(taxonomy, groups, plan, tallies, users.size(),
                   options.enforce_consistency));
  result.clustering = std::move(plan.clustering);
  result.server_seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<PsdaResult> RunPsda(const SpatialTaxonomy& taxonomy,
                             const std::vector<UserRecord>& users,
                             const PsdaOptions& options) {
  const PcepOracle oracle(options.max_reduced_dimension);
  return RunPsdaWithOracle(taxonomy, users, options, oracle);
}

}  // namespace pldp
