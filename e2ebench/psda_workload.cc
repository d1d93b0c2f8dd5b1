// psda_checkin: Algorithm 4 in process, one RunPsda call per epoch.
//
// The traced run composes the same algorithm from its public stages, in
// RunPsda's order — GroupUsersBySafeRegion, ClusterUserGroups, one
// PcepOracle::EstimateCounts per cluster fanned out on the shared pool,
// EnforceConsistency — with a span around each stage call, and asserts that
// the composition publishes RunPsda's estimates bit for bit, so the layer
// budget describes the work the untraced runs time.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.h"
#include "core/clustering.h"
#include "core/consistency.h"
#include "core/frequency_oracle.h"
#include "core/psda.h"
#include "core/user_group.h"
#include "util/cpu.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pldp {
namespace e2ebench {
namespace {

/// The composed run's estimates plus what its stages reported.
struct ComposedRun {
  std::vector<double> counts;
  std::vector<double> raw_counts;
  uint64_t groups = 0;
  ClusteringResult clustering;
  /// Summed over clusters (each cluster runs on one pool thread).
  double encode_s = 0.0;
  double decode_s = 0.0;
  /// Reduced dimension m summed over clusters: the JL rows decoded.
  uint64_t decode_rows = 0;
};

StatusOr<ComposedRun> RunComposedPsda(const SpatialTaxonomy& taxonomy,
                                      const std::vector<UserRecord>& users,
                                      const PsdaOptions& options) {
  ComposedRun run;
  std::vector<UserGroup> groups;
  {
    PLDP_SPAN("bench.user_group");
    PLDP_ASSIGN_OR_RETURN(groups, GroupUsersBySafeRegion(taxonomy, users));
  }
  run.groups = groups.size();
  {
    PLDP_SPAN("bench.clustering");
    ClusteringOptions cluster_options;
    cluster_options.beta = options.beta;
    PLDP_ASSIGN_OR_RETURN(run.clustering,
                          ClusterUserGroups(taxonomy, groups, cluster_options));
  }

  const std::vector<Cluster>& clusters = run.clustering.clusters;
  const size_t num_clusters = clusters.size();
  const double beta_each = options.beta / static_cast<double>(num_clusters);
  std::vector<std::vector<CellId>> regions(num_clusters);
  std::vector<std::vector<PcepUser>> cluster_users(num_clusters);
  std::vector<OracleRunStats> stats(num_clusters);
  run.raw_counts.assign(taxonomy.grid().num_cells(), 0.0);
  {
    PLDP_SPAN("bench.pcep");
    for (size_t c = 0; c < num_clusters; ++c) {
      regions[c] = taxonomy.RegionCells(clusters[c].top_region);
      for (const uint32_t g : clusters[c].groups) {
        for (const uint32_t user_index : groups[g].members) {
          const UserRecord& user = users[user_index];
          PLDP_ASSIGN_OR_RETURN(
              const uint64_t rank,
              taxonomy.RegionRankOfCell(clusters[c].top_region, user.cell));
          cluster_users[c].push_back(
              PcepUser{static_cast<uint32_t>(rank), user.spec.epsilon});
        }
      }
    }

    const PcepOracle oracle(options.max_reduced_dimension);
    ThreadPool& pool = ThreadPool::Global();
    const unsigned num_chunks = static_cast<unsigned>(std::min<size_t>(
        TopologyAlignedChunks(options.num_threads == 0 ? pool.num_threads()
                                                       : options.num_threads),
        num_clusters));
    const int64_t parent = obs::TraceCollector::Global().CurrentSpan();
    std::vector<Status> status(num_clusters, Status::OK());
    std::vector<std::vector<double>> estimates(num_clusters);
    pool.ParallelFor(
        0, num_clusters, num_chunks,
        [&](unsigned /*chunk*/, size_t begin, size_t end) {
          for (size_t c = begin; c < end; ++c) {
            PLDP_SPAN_PARENT("bench.pcep.cluster", parent);
            const uint64_t cluster_seed =
                SplitMix64(options.seed ^ ((c + 1) * 0x9E3779B97F4A7C15ULL));
            StatusOr<std::vector<double>> estimate =
                oracle.EstimateCounts(cluster_users[c], regions[c].size(),
                                      beta_each, cluster_seed, &stats[c]);
            if (!estimate.ok()) {
              status[c] = estimate.status();
              continue;
            }
            estimates[c] = std::move(estimate).value();
          }
        });
    for (size_t c = 0; c < num_clusters; ++c) {
      PLDP_RETURN_IF_ERROR(status[c]);
      if (estimates[c].size() != regions[c].size()) {
        return Status::Internal("oracle returned a wrong-size estimate");
      }
      for (size_t k = 0; k < regions[c].size(); ++k) {
        run.raw_counts[regions[c][k]] += estimates[c][k];
      }
    }
  }
  {
    PLDP_SPAN("bench.consistency");
    PLDP_ASSIGN_OR_RETURN(
        run.counts, EnforceConsistency(taxonomy, run.raw_counts, groups));
  }

  for (size_t c = 0; c < num_clusters; ++c) {
    run.encode_s += stats[c].encode_seconds;
    run.decode_s += stats[c].decode_seconds;
    PLDP_ASSIGN_OR_RETURN(
        const PcepDimensions dims,
        ComputePcepDimensions(cluster_users[c].size(), regions[c].size(),
                              beta_each, options.max_reduced_dimension));
    run.decode_rows += dims.m;
  }
  return run;
}

/// One finite estimate per cell, summing to the cohort size (consistency
/// pins the taxonomy root to the exact user count).
void CheckEstimates(const Cohort& cohort, const std::vector<double>& counts,
                    RunResult* result) {
  result->Attempt(1);
  if (counts.size() != cohort.truth.size()) {
    result->FailCheck("expected " + std::to_string(cohort.truth.size()) +
                      " estimates, got " + std::to_string(counts.size()));
    return;
  }
  double sum = 0.0;
  for (const double count : counts) {
    if (!std::isfinite(count)) {
      result->FailCheck("non-finite estimate");
      return;
    }
    sum += count;
  }
  const double n = static_cast<double>(cohort.users.size());
  if (std::fabs(sum - n) > 1e-6 * n) {
    result->FailCheck("estimates sum to " + std::to_string(sum) + ", not " +
                      std::to_string(cohort.users.size()));
  }
}

void SetTracedMetrics(const ComposedRun& run, double traced_epoch_ms,
                      double untraced_epoch_s, double epoch_cpu_s,
                      uint64_t num_users,
                      const std::vector<obs::SpanRecord>& spans,
                      RunResult* result) {
  const double group_ms = SpanMillis(spans, "bench.user_group");
  const double cluster_ms = SpanMillis(spans, "bench.clustering");
  const double pcep_ms = SpanMillis(spans, "bench.pcep");
  const double consistency_ms = SpanMillis(spans, "bench.consistency");
  const double unattributed_ms =
      traced_epoch_ms - (group_ms + cluster_ms + pcep_ms + consistency_ms);
  result->Set("user_group.ms", group_ms);
  result->Set("user_group.groups", static_cast<double>(run.groups));
  result->Set("clustering.ms", cluster_ms);
  result->Set("clustering.merges", run.clustering.merges);
  result->Set("clustering.clusters",
              static_cast<double>(run.clustering.clusters.size()));
  result->Set("clustering.us_per_merge",
              run.clustering.merges == 0
                  ? 0.0
                  : cluster_ms * 1e3 / run.clustering.merges);
  result->Set("pcep.ms", pcep_ms);
  result->Set("pcep.encode_ms", run.encode_s * 1e3);
  result->Set("pcep.encode_users_per_s",
              run.encode_s > 0.0 ? num_users / run.encode_s : 0.0);
  result->Set("pcep.decode_ms", run.decode_s * 1e3);
  result->Set("pcep.decode_rows", static_cast<double>(run.decode_rows));
  result->Set("pcep.decode_rows_per_s",
              run.decode_s > 0.0 ? run.decode_rows / run.decode_s : 0.0);
  result->Set("consistency.ms", consistency_ms);
  result->Set("traced_epoch_ms", traced_epoch_ms);
  result->Set("epoch_cpu_s", epoch_cpu_s);
  result->Set("unattributed_ms", unattributed_ms);
  result->Set("trace_overhead_pct",
              (traced_epoch_ms / 1e3 - untraced_epoch_s) / untraced_epoch_s *
                  100.0);
  std::cout << "layer budget (traced epoch " << traced_epoch_ms << " ms):\n"
            << "  user_group " << group_ms << " ms, clustering " << cluster_ms
            << " ms, pcep " << pcep_ms << " ms, consistency "
            << consistency_ms << " ms, unattributed " << unattributed_ms
            << " ms\n";
}

}  // namespace

void RunPsdaWorkload(const BenchOptions& options, const Workload& workload,
                     RunResult* result) {
  SetupSampler setup(workload, options.seed);
  StatusOr<std::unique_ptr<Cohort>> built = setup.Build();
  if (!built.ok()) {
    result->FailCheck("cohort: " + built.status().ToString());
    return;
  }
  const Cohort& cohort = *built.value();
  const uint64_t n = cohort.users.size();
  std::cout << workload.name << ": " << n << " users, "
            << cohort.truth.size() << " cells, seed " << options.seed << "\n";

  PsdaOptions psda;
  psda.beta = 0.1;
  psda.seed = options.seed;

  // Timed epochs. The traced run times one, as the overhead reference.
  std::vector<double> epoch_s;
  std::vector<double> counts;
  double measured_s = 0.0;
  do {
    result->Attempt(1);
    Stopwatch watch;
    StatusOr<PsdaResult> run = RunPsda(cohort.taxonomy, cohort.users, psda);
    const double seconds = watch.ElapsedSeconds();
    if (!run.ok()) {
      result->FailCheck("RunPsda: " + run.status().ToString());
      return;
    }
    std::cout << "epoch " << epoch_s.size() << ": " << seconds << " s\n";
    epoch_s.push_back(seconds);
    measured_s += seconds;
    if (counts.empty()) {
      // Later epochs inherit the allocator state this one left behind.
      result->Set("peak_rss_mb", PeakRssMb());
      counts = std::move(run.value().counts);
    } else if (!BitIdentical(counts, run.value().counts)) {
      result->FailCheck("RunPsda published different estimates for one seed");
    }
    const StatusOr<std::unique_ptr<Cohort>> sample = setup.Build();
    if (!sample.ok()) {
      result->FailCheck("cohort: " + sample.status().ToString());
      return;
    }
  } while (!options.trace &&
           (epoch_s.size() < kMinEpochs || measured_s < options.seconds));

  const SetupTimes setup_median = setup.Median();
  result->Set("setup_s", setup_median.total());
  result->Set("data.generate_s", setup_median.generate_s);
  result->Set("geo.taxonomy_s", setup_median.taxonomy_s);
  result->Set("data.assign_specs_s", setup_median.assign_specs_s);

  const double epoch = Median(epoch_s);
  std::cout << epoch_s.size() << " epochs: median " << epoch << " s\n";
  result->Set("epoch_s", epoch);
  result->Set("reports_per_s", static_cast<double>(n) / epoch);
  // The in-process pipeline has no control plane: a caller gets no answer,
  // status or estimate, until RunPsda returns.
  result->Set("status_stall_ms", epoch * 1e3);

  if (options.flip_bit) FlipOneBit(&counts);

  if (options.trace) {
    BeginTrace();
    const CpuTimes cpu_before = ProcessCpu();
    StatusOr<ComposedRun> composed = [&] {
      PLDP_SPAN("bench.epoch");
      return RunComposedPsda(cohort.taxonomy, cohort.users, psda);
    }();
    const CpuTimes cpu_after = ProcessCpu();
    const std::vector<obs::SpanRecord> spans = EndTrace(options.trace_file);
    result->Attempt(1);
    if (!composed.ok()) {
      result->FailCheck("composed PSDA: " + composed.status().ToString());
      return;
    }
    if (!BitIdentical(composed.value().counts, counts)) {
      result->FailCheck("composed PSDA differs from RunPsda");
    }
    SetTracedMetrics(composed.value(), SpanMillis(spans, "bench.epoch"),
                     epoch, (cpu_after.user_s - cpu_before.user_s) +
                                (cpu_after.sys_s - cpu_before.sys_s),
                     n, spans, result);
  }

  CheckEstimates(cohort, counts, result);
  ScoreEstimates(cohort, {counts}, result);
}

}  // namespace e2ebench
}  // namespace pldp
