// EpochEngine regression suite: the frame-driven epoch must publish
// estimates and per-cluster accounting identical to
// AggregationServer::Collect over the same report multiset regardless of
// arrival order, and the late/duplicate/shed verdicts must keep the
// published estimate unbiased (the satellite contract of docs/service.md).

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/psda.h"
#include "net/epoch_engine.h"
#include "net/wire.h"
#include "protocol/client.h"
#include "protocol/messages.h"
#include "protocol/server.h"
#include "util/random.h"

namespace pldp {
namespace net {
namespace {

SpatialTaxonomy MakeTaxonomy(uint32_t side = 8) {
  const UniformGrid grid =
      UniformGrid::Create(BoundingBox{0, 0, static_cast<double>(side),
                                      static_cast<double>(side)},
                          1, 1)
          .value();
  return SpatialTaxonomy::Build(grid, 4).value();
}

struct Cohort {
  std::vector<PrivacySpec> specs;
  std::vector<CellId> cells;
};

Cohort MakeCohort(const SpatialTaxonomy& tax, size_t n, uint64_t seed) {
  Rng rng(seed);
  Cohort cohort;
  const double epsilons[] = {0.5, 1.0};
  for (size_t i = 0; i < n; ++i) {
    const auto cell =
        static_cast<CellId>(rng.NextUint64(tax.grid().num_cells()));
    const uint32_t level = static_cast<uint32_t>(rng.NextUint64(3));
    PrivacySpec spec;
    spec.safe_region = tax.AncestorAbove(tax.LeafNodeOfCell(cell), level);
    spec.epsilon = epsilons[rng.NextUint64(2)];
    cohort.specs.push_back(spec);
    cohort.cells.push_back(cell);
  }
  return cohort;
}

// Device seed schedule shared with AggregationServer::Collect's client-array
// convention (tests/protocol_end_to_end_test.cc): user i gets
// SplitMix64(seed ^ (i+1)).
std::vector<DeviceClient> MakeClients(const SpatialTaxonomy& tax,
                                      const Cohort& cohort, uint64_t seed) {
  std::vector<DeviceClient> clients;
  clients.reserve(cohort.specs.size());
  for (size_t i = 0; i < cohort.specs.size(); ++i) {
    clients.emplace_back(&tax, cohort.cells[i], cohort.specs[i],
                         SplitMix64(seed ^ (i + 1)));
  }
  return clients;
}

// Drives one full epoch through the engine: register every spec, seal, fetch
// each user's assignment, perturb on a fresh device client, submit in
// `order`, seal the epoch. Returns the published estimates.
std::vector<double> RunEngineEpoch(const SpatialTaxonomy& tax,
                                   const Cohort& cohort, uint64_t seed,
                                   EpochEngine* engine,
                                   const std::vector<size_t>& order) {
  const size_t n = cohort.specs.size();
  for (size_t i = 0; i < n; ++i) {
    SpecUploadMsg msg;
    msg.safe_region = cohort.specs[i].safe_region;
    msg.epsilon = cohort.specs[i].epsilon;
    EXPECT_EQ(engine->RegisterSpec(i, msg), SpecOutcome::kAccepted) << i;
  }
  EXPECT_TRUE(engine->SealSpecs(n).ok());

  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  for (const size_t i : order) {
    const auto assignment = engine->Assignment(i);
    if (!assignment.ok()) {
      ADD_FAILURE() << assignment.status();
      return {};
    }
    const auto reply =
        devices[i].HandleRowAssignment(assignment->Serialize());
    if (!reply.ok()) {
      ADD_FAILURE() << reply.status();
      return {};
    }
    const ReportMsg report = ReportMsg::Parse(reply.value()).value();
    EXPECT_EQ(engine->SubmitReport(i, report), ReportOutcome::kAccepted) << i;
  }
  EXPECT_TRUE(engine->SealEpoch().ok());
  return engine->published();
}

std::vector<size_t> Ascending(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  return order;
}

TEST(NetEpochEngineTest, BitIdenticalToInProcessCollect) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 1500;
  const uint64_t seed = 42;
  const Cohort cohort = MakeCohort(tax, n, seed);

  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions options;
  options.psda = psda;
  EpochEngine engine(&tax, options);
  const std::vector<double> via_net =
      RunEngineEpoch(tax, cohort, seed, &engine, Ascending(n));

  auto clients = MakeClients(tax, cohort, seed);
  AggregationServer server(&tax, psda);
  const PsdaResult in_process = server.Collect(&clients, nullptr).value();

  ASSERT_EQ(via_net.size(), in_process.counts.size());
  for (size_t k = 0; k < via_net.size(); ++k) {
    EXPECT_EQ(via_net[k], in_process.counts[k]) << "cell " << k;
  }
}

TEST(NetEpochEngineTest, ClusterResponseMatchesCollect) {
  // Per-cluster accounting, Theorem 4.5 bound included, is the same on both
  // paths over the same cohort.
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 1200;
  const uint64_t seed = 64;
  const Cohort cohort = MakeCohort(tax, n, seed);
  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions options;
  options.psda = psda;
  EpochEngine engine(&tax, options);
  std::vector<size_t> shuffled = Ascending(n);
  std::mt19937_64 shuffle_rng(5);
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
  RunEngineEpoch(tax, cohort, seed, &engine, shuffled);

  auto clients = MakeClients(tax, cohort, seed);
  ProtocolStats stats;
  AggregationServer server(&tax, psda);
  ASSERT_TRUE(server.Collect(&clients, &stats).ok());

  ASSERT_GT(stats.cluster_response.size(), 1u);
  EXPECT_EQ(engine.num_clusters(), stats.cluster_response.size());
  EXPECT_TRUE(engine.cluster_response() == stats.cluster_response);
  for (const ClusterResponseStats& response : engine.cluster_response()) {
    EXPECT_EQ(response.n_responded, response.n_expected);
    EXPECT_GT(response.error_bound, 0.0);
  }
}

TEST(NetEpochEngineTest, ArrivalOrderDoesNotChangeTheBits) {
  // Floating-point fold order is part of the determinism contract: the
  // engine stages at arrival and folds in roster order, so a shuffled
  // arrival schedule must publish the exact same bits.
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 1000;
  const uint64_t seed = 77;
  const Cohort cohort = MakeCohort(tax, n, seed);
  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions options;
  options.psda = psda;

  EpochEngine forward(&tax, options);
  const std::vector<double> a =
      RunEngineEpoch(tax, cohort, seed, &forward, Ascending(n));

  std::vector<size_t> shuffled = Ascending(n);
  std::mt19937_64 shuffle_rng(123);
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
  EpochEngine backward(&tax, options);
  const std::vector<double> b =
      RunEngineEpoch(tax, cohort, seed, &backward, shuffled);

  EXPECT_EQ(a, b);
}

TEST(NetEpochEngineTest, LateFramesAreCountedNeverFolded) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 600;
  const uint64_t seed = 91;
  const Cohort cohort = MakeCohort(tax, n, seed);
  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions options;
  options.psda = psda;

  // Hold back the last 10 users' reports until after the seal.
  std::vector<size_t> on_time = Ascending(n - 10);
  EpochEngine engine(&tax, options);
  const std::vector<double> published =
      RunEngineEpoch(tax, cohort, seed, &engine, on_time);

  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  for (size_t i = n - 10; i < n; ++i) {
    const auto assignment = engine.Assignment(i);
    ASSERT_TRUE(assignment.ok());
    const auto reply = devices[i].HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok());
    const ReportMsg report = ReportMsg::Parse(reply.value()).value();
    EXPECT_EQ(engine.SubmitReport(i, report), ReportOutcome::kLate);
  }
  EXPECT_EQ(engine.stats().late_frames, 10u);
  // The late frames changed nothing: the published vector is what the seal
  // produced, and the rescale already compensated the 10 absentees, so the
  // total still recovers the full cohort (unbiasedness regression).
  EXPECT_EQ(engine.published(), published);
  const double total =
      std::accumulate(published.begin(), published.end(), 0.0);
  EXPECT_NEAR(total, static_cast<double>(n), 1e-6);
}

TEST(NetEpochEngineTest, DuplicateReportsAreDiscarded) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 500;
  const uint64_t seed = 55;
  const Cohort cohort = MakeCohort(tax, n, seed);
  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions options;
  options.psda = psda;

  EpochEngine engine(&tax, options);
  EXPECT_EQ(engine.phase(), EpochEngine::Phase::kCollectingSpecs);
  for (size_t i = 0; i < n; ++i) {
    SpecUploadMsg msg;
    msg.safe_region = cohort.specs[i].safe_region;
    msg.epsilon = cohort.specs[i].epsilon;
    ASSERT_EQ(engine.RegisterSpec(i, msg), SpecOutcome::kAccepted);
    // Idempotent: a second spec upload is a duplicate, not an error.
    EXPECT_EQ(engine.RegisterSpec(i, msg), SpecOutcome::kDuplicate);
  }
  ASSERT_TRUE(engine.SealSpecs(n).ok());

  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  for (size_t i = 0; i < n; ++i) {
    const auto assignment = engine.Assignment(i);
    ASSERT_TRUE(assignment.ok());
    const auto reply = devices[i].HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok());
    const ReportMsg report = ReportMsg::Parse(reply.value()).value();
    ASSERT_EQ(engine.SubmitReport(i, report), ReportOutcome::kAccepted);
    EXPECT_EQ(engine.SubmitReport(i, report), ReportOutcome::kDuplicate);
  }
  ASSERT_TRUE(engine.SealEpoch().ok());
  EXPECT_EQ(engine.stats().reports_duplicate, static_cast<uint64_t>(n));

  // Duplicates folded zero extra mass: bit-identical to the clean run.
  EpochEngine clean(&tax, options);
  const std::vector<double> clean_counts =
      RunEngineEpoch(tax, cohort, seed, &clean, Ascending(n));
  EXPECT_EQ(engine.published(), clean_counts);
}

TEST(NetEpochEngineTest, WrongPhaseAndUnknownUserVerdicts) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  PsdaOptions psda;
  psda.seed = 7;
  EpochEngineOptions options;
  options.psda = psda;
  EpochEngine engine(&tax, options);

  ReportMsg report;
  report.positive = true;
  // Reports before the spec seal are wrong-phase, not crashes.
  EXPECT_EQ(engine.SubmitReport(0, report), ReportOutcome::kWrongPhase);
  EXPECT_FALSE(engine.SealEpoch().ok());

  const Cohort cohort = MakeCohort(tax, 64, 7);
  for (size_t i = 0; i < 64; ++i) {
    SpecUploadMsg msg;
    msg.safe_region = cohort.specs[i].safe_region;
    msg.epsilon = cohort.specs[i].epsilon;
    ASSERT_EQ(engine.RegisterSpec(i, msg), SpecOutcome::kAccepted);
  }
  ASSERT_TRUE(engine.SealSpecs(64).ok());

  // Specs after the seal are wrong-phase.
  SpecUploadMsg late_spec;
  late_spec.safe_region = cohort.specs[0].safe_region;
  late_spec.epsilon = 1.0;
  EXPECT_EQ(engine.RegisterSpec(999, late_spec), SpecOutcome::kWrongPhase);

  // A report from a user outside the sealed roster is refused by verdict.
  EXPECT_EQ(engine.SubmitReport(999, report), ReportOutcome::kUnknownUser);
  EXPECT_FALSE(engine.Assignment(999).ok());
  EXPECT_EQ(engine.stats().unknown_user_frames, 1u);
  EXPECT_EQ(engine.stats().wrong_phase_frames, 2u);
}

TEST(NetEpochEngineTest, InvalidSpecIsRefused) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions options;
  options.psda.seed = 3;
  EpochEngine engine(&tax, options);

  SpecUploadMsg bogus;
  bogus.safe_region = 1u << 30;  // not a node of this taxonomy
  bogus.epsilon = 1.0;
  EXPECT_EQ(engine.RegisterSpec(0, bogus), SpecOutcome::kInvalid);

  SpecUploadMsg bad_eps;
  bad_eps.safe_region = tax.root();
  bad_eps.epsilon = -2.0;
  EXPECT_EQ(engine.RegisterSpec(1, bad_eps), SpecOutcome::kInvalid);
  EXPECT_EQ(engine.stats().specs_invalid, 2u);
}

TEST(NetEpochEngineTest, ShedReportsAreRescaleCompensated) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 4000;
  const uint64_t seed = 13;
  const Cohort cohort = MakeCohort(tax, n, seed);
  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions options;
  options.psda = psda;
  options.admission.max_queue_depth = 64;
  options.admission.service_per_arrival = 0.8;  // ~20% steady-state shed
  EpochEngine engine(&tax, options);

  for (size_t i = 0; i < n; ++i) {
    SpecUploadMsg msg;
    msg.safe_region = cohort.specs[i].safe_region;
    msg.epsilon = cohort.specs[i].epsilon;
    ASSERT_EQ(engine.RegisterSpec(i, msg), SpecOutcome::kAccepted);
  }
  ASSERT_TRUE(engine.SealSpecs(n).ok());

  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  uint64_t shed = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto assignment = engine.Assignment(i);
    ASSERT_TRUE(assignment.ok());
    const auto reply = devices[i].HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok());
    const ReportMsg report = ReportMsg::Parse(reply.value()).value();
    const ReportOutcome outcome = engine.SubmitReport(i, report);
    if (outcome == ReportOutcome::kShed) {
      ++shed;
    } else {
      ASSERT_EQ(outcome, ReportOutcome::kAccepted);
    }
  }
  ASSERT_TRUE(engine.SealEpoch().ok());
  EXPECT_GT(shed, n / 20);  // overload genuinely shed a chunk
  EXPECT_EQ(engine.stats().reports_shed, shed);

  // Unbiasedness: the per-cluster n/n_resp rescale recovers the cohort
  // total despite the shed mass (same contract as dropout compensation).
  const double total = std::accumulate(engine.published().begin(),
                                       engine.published().end(), 0.0);
  EXPECT_NEAR(total, static_cast<double>(n), 0.05 * n);
}

TEST(NetEpochEngineTest, CheckpointThenRestoreContinuesTheEpoch) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 800;
  const uint64_t seed = 29;
  const Cohort cohort = MakeCohort(tax, n, seed);
  const std::string dir = ::testing::TempDir() + "/pldp_net_engine_restore";
  (void)std::remove((dir + "/ckpt-0000000001.pldp").c_str());

  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions options;
  options.psda = psda;
  options.epoch = 5;
  options.checkpoint.dir = dir;

  // First process: seal specs, stage half the reports, flush a snapshot
  // (the graceful-SIGTERM path), and "crash".
  {
    EpochEngine engine(&tax, options);
    for (size_t i = 0; i < n; ++i) {
      SpecUploadMsg msg;
      msg.safe_region = cohort.specs[i].safe_region;
      msg.epsilon = cohort.specs[i].epsilon;
      ASSERT_EQ(engine.RegisterSpec(i, msg), SpecOutcome::kAccepted);
    }
    ASSERT_TRUE(engine.SealSpecs(n).ok());
    std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
    for (size_t i = 0; i < n / 2; ++i) {
      const auto assignment = engine.Assignment(i);
      ASSERT_TRUE(assignment.ok());
      const auto reply =
          devices[i].HandleRowAssignment(assignment->Serialize());
      ASSERT_TRUE(reply.ok());
      const ReportMsg report = ReportMsg::Parse(reply.value()).value();
      ASSERT_EQ(engine.SubmitReport(i, report), ReportOutcome::kAccepted);
    }
    ASSERT_TRUE(engine.Checkpoint().ok());
    EXPECT_GE(engine.stats().checkpoints_written, 1u);
  }

  // Second process: restore, verify the staged half survived, finish.
  EpochEngine restored(&tax, options);
  ASSERT_TRUE(restored.RestoreLatest().ok());
  EXPECT_EQ(restored.phase(), EpochEngine::Phase::kCollectingReports);
  EXPECT_EQ(restored.stats().restored_reports, static_cast<uint64_t>(n / 2));

  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  // A restored user's report resubmitted after recovery is a duplicate.
  {
    const auto assignment = restored.Assignment(0);
    ASSERT_TRUE(assignment.ok());
    const auto reply = devices[0].HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok());
    const ReportMsg report = ReportMsg::Parse(reply.value()).value();
    EXPECT_EQ(restored.SubmitReport(0, report), ReportOutcome::kDuplicate);
  }
  for (size_t i = n / 2; i < n; ++i) {
    const auto assignment = restored.Assignment(i);
    ASSERT_TRUE(assignment.ok());
    const auto reply = devices[i].HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok());
    const ReportMsg report = ReportMsg::Parse(reply.value()).value();
    ASSERT_EQ(restored.SubmitReport(i, report), ReportOutcome::kAccepted);
  }
  ASSERT_TRUE(restored.SealEpoch().ok());

  // Two-batch folding reassociates sums, so the contract here is the
  // Theorem 4.5 envelope, not bit-identity: the total still recovers the
  // cohort.
  const double total = std::accumulate(restored.published().begin(),
                                       restored.published().end(), 0.0);
  EXPECT_NEAR(total, static_cast<double>(n), 1e-6);
}

TEST(NetEpochEngineTest, RestoreRefusesWrongEpoch) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 100;
  const uint64_t seed = 31;
  const Cohort cohort = MakeCohort(tax, n, seed);
  const std::string dir = ::testing::TempDir() + "/pldp_net_engine_epoch";

  EpochEngineOptions options;
  options.psda.seed = seed;
  options.epoch = 1;
  options.checkpoint.dir = dir;
  {
    EpochEngine engine(&tax, options);
    for (size_t i = 0; i < n; ++i) {
      SpecUploadMsg msg;
      msg.safe_region = cohort.specs[i].safe_region;
      msg.epsilon = cohort.specs[i].epsilon;
      ASSERT_EQ(engine.RegisterSpec(i, msg), SpecOutcome::kAccepted);
    }
    ASSERT_TRUE(engine.SealSpecs(n).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }

  EpochEngineOptions other = options;
  other.epoch = 2;
  EpochEngine wrong(&tax, other);
  EXPECT_FALSE(wrong.RestoreLatest().ok());
}

}  // namespace
}  // namespace net
}  // namespace pldp
