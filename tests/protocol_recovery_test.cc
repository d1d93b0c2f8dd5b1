// Crash-safe epoch aggregation: RunEpoch/ResumeEpoch semantics — the
// bit-identical recovery contract on a clean channel, the
// restart-from-scratch path when no snapshot survives, configuration and
// roster mismatch rejection, and graceful degradation under admission
// control.

#include <cmath>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/psda.h"
#include "protocol/channel.h"
#include "protocol/checkpoint.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "util/random.h"

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

std::vector<DeviceClient> MakeClients(const SpatialTaxonomy& tax, size_t n,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<DeviceClient> clients;
  clients.reserve(n);
  const double epsilons[] = {0.5, 1.0};
  for (size_t i = 0; i < n; ++i) {
    const auto cell =
        static_cast<CellId>(rng.NextUint64(tax.grid().num_cells()));
    const uint32_t level = static_cast<uint32_t>(rng.NextUint64(3));
    PrivacySpec spec;
    spec.safe_region = tax.AncestorAbove(tax.LeafNodeOfCell(cell), level);
    spec.epsilon = epsilons[rng.NextUint64(2)];
    clients.emplace_back(&tax, cell, spec, SplitMix64(seed ^ (i + 1)));
  }
  return clients;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RunEpochTest, DefaultOptionsMatchCollectExactly) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  auto clients_a = MakeClients(tax, 400, 31);
  auto clients_b = MakeClients(tax, 400, 31);

  AggregationServer server(&tax, PsdaOptions());
  ProtocolStats collect_stats, epoch_stats;
  const PsdaResult via_collect =
      server.Collect(&clients_a, &collect_stats).value();
  const PsdaResult via_epoch =
      server.RunEpoch(&clients_b, EpochRunOptions(), &epoch_stats).value();

  EXPECT_EQ(via_collect.counts, via_epoch.counts);
  EXPECT_EQ(via_collect.raw_counts, via_epoch.raw_counts);
  EXPECT_TRUE(collect_stats == epoch_stats);
}

TEST(RunEpochTest, CheckpointingDoesNotPerturbTheTranscript) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  auto clients_a = MakeClients(tax, 300, 77);
  auto clients_b = MakeClients(tax, 300, 77);

  AggregationServer server(&tax, PsdaOptions());
  const PsdaResult plain = server.Collect(&clients_a, nullptr).value();

  EpochRunOptions run;
  run.checkpoint.dir = FreshDir("pldp_recovery_noperturb");
  run.checkpoint.every_n_reports = 32;
  const PsdaResult checkpointed =
      server.RunEpoch(&clients_b, run, nullptr).value();

  EXPECT_EQ(plain.counts, checkpointed.counts);
  // The final snapshot is always written, so the epoch is durable.
  EXPECT_FALSE(CheckpointStore(run.checkpoint.dir).ListFiles().empty());
  std::filesystem::remove_all(run.checkpoint.dir);
}

TEST(RecoveryTest, CrashThenResumeIsBitIdenticalOnCleanChannel) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t cohort = 500;
  auto baseline_clients = MakeClients(tax, cohort, 42);
  auto chaos_clients = MakeClients(tax, cohort, 42);

  AggregationServer server(&tax, PsdaOptions());
  const PsdaResult baseline =
      server.Collect(&baseline_clients, nullptr).value();

  EpochRunOptions run;
  run.epoch = 3;
  run.checkpoint.dir = FreshDir("pldp_recovery_bitident");
  run.checkpoint.every_n_reports = 16;
  run.crash_after_ingests = 210;  // not a multiple of 16: past the snapshot

  ProtocolStats crash_stats;
  const auto crashed = server.RunEpoch(&chaos_clients, run, &crash_stats);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);
  // Partial stats are still written so the harness can account the crash.
  EXPECT_GT(crash_stats.spec_responders, 0u);

  run.crash_after_ingests = 0;
  ProtocolStats recovered_stats;
  const PsdaResult recovered =
      server.ResumeEpoch(&chaos_clients, run, &recovered_stats).value();

  // The snapshot held the last multiple of 16 before the kill point; the
  // remaining users re-exchange from their device caches, so the decode is
  // bit-identical to the uninterrupted run.
  EXPECT_EQ(recovered_stats.restored_reports, 208u);
  EXPECT_GE(recovered_stats.recovery_ms, 0.0);
  EXPECT_EQ(recovered_stats.dropped_clients, 0u);
  EXPECT_EQ(baseline.counts, recovered.counts);
  EXPECT_EQ(baseline.raw_counts, recovered.raw_counts);
  std::filesystem::remove_all(run.checkpoint.dir);
}

TEST(RecoveryTest, ResumeAfterCompletedEpochNeverReexchanges) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  auto clients = MakeClients(tax, 250, 9);

  AggregationServer server(&tax, PsdaOptions());
  EpochRunOptions run;
  run.checkpoint.dir = FreshDir("pldp_recovery_complete");
  run.checkpoint.every_n_reports = 64;
  ProtocolStats first_stats;
  const PsdaResult first = server.RunEpoch(&clients, run, &first_stats).value();

  // The final snapshot covers the whole epoch: a resume restores everything
  // and exchanges nothing (the dedup bitset marks every responder as seen).
  ProtocolStats resume_stats;
  const PsdaResult resumed =
      server.ResumeEpoch(&clients, run, &resume_stats).value();
  EXPECT_EQ(resume_stats.restored_reports, first_stats.spec_responders);
  EXPECT_EQ(resume_stats.messages_to_clients, 0u);
  EXPECT_EQ(resume_stats.messages_to_server, 0u);
  EXPECT_EQ(first.counts, resumed.counts);
  std::filesystem::remove_all(run.checkpoint.dir);
}

TEST(RecoveryTest, CrashBeforeFirstSnapshotLeavesNothingToResume) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  auto clients = MakeClients(tax, 200, 13);

  AggregationServer server(&tax, PsdaOptions());
  EpochRunOptions run;
  run.checkpoint.dir = FreshDir("pldp_recovery_nothing");
  run.checkpoint.every_n_reports = 1000;  // cadence never fires
  run.crash_after_ingests = 5;

  const auto crashed = server.RunEpoch(&clients, run, nullptr);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted);

  run.crash_after_ingests = 0;
  const auto resumed = server.ResumeEpoch(&clients, run, nullptr);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kNotFound);

  // The harness's fallback: re-run from scratch. Devices answer from their
  // cached reports, so even this path reproduces the baseline exactly.
  auto baseline_clients = MakeClients(tax, 200, 13);
  const PsdaResult baseline =
      server.Collect(&baseline_clients, nullptr).value();
  const PsdaResult rerun = server.RunEpoch(&clients, run, nullptr).value();
  EXPECT_EQ(baseline.counts, rerun.counts);
  std::filesystem::remove_all(run.checkpoint.dir);
}

TEST(RecoveryTest, ResumeRejectsMismatchedConfigurations) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  auto clients = MakeClients(tax, 200, 23);

  AggregationServer server(&tax, PsdaOptions());
  EpochRunOptions run;
  run.epoch = 1;
  run.checkpoint.dir = FreshDir("pldp_recovery_mismatch");
  run.checkpoint.every_n_reports = 16;
  run.crash_after_ingests = 100;
  ASSERT_EQ(server.RunEpoch(&clients, run, nullptr).status().code(),
            StatusCode::kAborted);
  run.crash_after_ingests = 0;

  {  // Wrong epoch number.
    EpochRunOptions wrong = run;
    wrong.epoch = 2;
    const auto resumed = server.ResumeEpoch(&clients, wrong, nullptr);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // Different protocol seed.
    PsdaOptions other_options;
    other_options.seed += 1;
    AggregationServer other(&tax, other_options);
    const auto resumed = other.ResumeEpoch(&clients, run, nullptr);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // Different confidence level.
    PsdaOptions other_options;
    other_options.beta = 0.2;
    AggregationServer other(&tax, other_options);
    const auto resumed = other.ResumeEpoch(&clients, run, nullptr);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // Different cohort size.
    auto smaller = MakeClients(tax, 150, 23);
    const auto resumed = server.ResumeEpoch(&smaller, run, nullptr);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // No checkpoint directory at all.
    EpochRunOptions no_dir;
    const auto resumed = server.ResumeEpoch(&clients, no_dir, nullptr);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }

  // The matching configuration still resumes fine afterwards.
  EXPECT_TRUE(server.ResumeEpoch(&clients, run, nullptr).ok());
  std::filesystem::remove_all(run.checkpoint.dir);
}

// Crashes an epoch after some snapshots, then re-saves its newest snapshot
// through `tamper` with a valid CRC, so only the restore's own checks stand
// between the tampered roster and the accumulators.
Status ResumeTamperedRoster(
    const std::string& name,
    const std::function<void(EpochCheckpoint*)>& tamper) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  auto clients = MakeClients(tax, 200, 61);
  AggregationServer server(&tax, PsdaOptions());
  EpochRunOptions run;
  run.checkpoint.dir = FreshDir(name);
  run.checkpoint.every_n_reports = 16;
  run.crash_after_ingests = 100;
  EXPECT_EQ(server.RunEpoch(&clients, run, nullptr).status().code(),
            StatusCode::kAborted);
  CheckpointStore store(run.checkpoint.dir);
  EpochCheckpoint checkpoint = store.RestoreLatest().value();
  EXPECT_EQ(checkpoint.ingested, 96u);
  tamper(&checkpoint);
  EXPECT_TRUE(store.Save(checkpoint).ok());

  run.crash_after_ingests = 0;
  const Status resumed = server.ResumeEpoch(&clients, run, nullptr).status();
  std::filesystem::remove_all(run.checkpoint.dir);
  return resumed;
}

TEST(RecoveryTest, ResumeRejectsSwappedRosterEntries) {
  // Each (roster, spec) pair stays intact, but the roster is no longer
  // ascending, so slots would map to other users' clusters and rows.
  const Status resumed =
      ResumeTamperedRoster("pldp_recovery_swapped", [](EpochCheckpoint* c) {
        std::swap(c->roster[3], c->roster[40]);
        std::swap(c->specs[3], c->specs[40]);
      });
  EXPECT_EQ(resumed.code(), StatusCode::kFailedPrecondition) << resumed;
}

TEST(RecoveryTest, ResumeRejectsDuplicateRosterEntries) {
  const Status resumed =
      ResumeTamperedRoster("pldp_recovery_duplicate", [](EpochCheckpoint* c) {
        c->roster[1] = c->roster[0];
      });
  EXPECT_EQ(resumed.code(), StatusCode::kFailedPrecondition) << resumed;
}

TEST(AdmissionControlTest, OverloadShedsGracefullyAndRescalesUnbiased) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t cohort = 1500;
  auto clients = MakeClients(tax, cohort, 55);

  AggregationServer server(&tax, PsdaOptions());
  EpochRunOptions run;
  run.admission.max_queue_depth = 32;
  run.admission.service_per_arrival = 0.8;  // sheds ~20% at steady state

  ProtocolStats stats;
  const PsdaResult result = server.RunEpoch(&clients, run, &stats).value();

  EXPECT_GT(stats.shed_reports, 0u);
  // A shed report never starts an exchange and never drops the client.
  EXPECT_EQ(stats.dropped_clients, 0u);
  uint64_t cluster_shed = 0, cluster_responded = 0;
  for (const ClusterResponseStats& c : stats.cluster_response) {
    cluster_shed += c.n_shed;
    cluster_responded += c.n_responded;
    EXPECT_EQ(c.n_responded + c.n_shed, c.n_expected);
  }
  EXPECT_EQ(cluster_shed, stats.shed_reports);
  EXPECT_EQ(cluster_responded + cluster_shed, cohort);

  // Rescaling by n_expected / n_responded keeps the totals unbiased: the
  // estimate still sums to roughly the cohort size.
  const double total =
      std::accumulate(result.counts.begin(), result.counts.end(), 0.0);
  EXPECT_NEAR(total, static_cast<double>(cohort), cohort * 0.1);
}

TEST(AdmissionControlTest, SheddingIsSeedDeterministic) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  auto clients_a = MakeClients(tax, 400, 71);
  auto clients_b = MakeClients(tax, 400, 71);

  AggregationServer server(&tax, PsdaOptions());
  EpochRunOptions run;
  run.admission.max_queue_depth = 16;
  run.admission.service_per_arrival = 0.5;

  ProtocolStats stats_a, stats_b;
  const PsdaResult a = server.RunEpoch(&clients_a, run, &stats_a).value();
  const PsdaResult b = server.RunEpoch(&clients_b, run, &stats_b).value();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_TRUE(stats_a == stats_b);
}

}  // namespace
}  // namespace pldp
