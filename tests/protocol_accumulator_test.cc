// Streaming epoch accumulators: admission-control determinism and shed
// accounting, snapshot/restore round trips, rejection of corrupt snapshots,
// and the per-slot dedup that makes restarts double-count-proof.

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/pcep.h"
#include "obs/metrics.h"
#include "protocol/accumulator.h"
#include "protocol/checkpoint.h"
#include "util/random.h"

namespace pldp {
namespace {

PcepParams SmallParams(uint64_t seed = 77) {
  PcepParams params;
  params.beta = 0.1;
  params.seed = seed;
  return params;
}

TEST(AdmissionControllerTest, DisabledConfigAdmitsEverything) {
  AdmissionController controller{AdmissionConfig{}};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(controller.Admit());
  }
  EXPECT_EQ(controller.admitted(), 1000u);
  EXPECT_EQ(controller.shed(), 0u);
}

TEST(AdmissionControllerTest, OverloadShedsTheExpectedSteadyStateFraction) {
  // service_per_arrival = 0.8: the queue fills, then ~20% of arrivals shed.
  AdmissionConfig config;
  config.max_queue_depth = 32;
  config.service_per_arrival = 0.8;
  AdmissionController controller(config);
  const int arrivals = 10000;
  for (int i = 0; i < arrivals; ++i) controller.Admit();
  const double shed_fraction =
      static_cast<double>(controller.shed()) / arrivals;
  EXPECT_NEAR(shed_fraction, 0.2, 0.02);
  EXPECT_EQ(controller.admitted() + controller.shed(),
            static_cast<uint64_t>(arrivals));
}

TEST(AdmissionControllerTest, DecisionsAreDeterministic) {
  AdmissionConfig config;
  config.max_queue_depth = 8;
  config.service_per_arrival = 0.5;
  AdmissionController a(config);
  AdmissionController b(config);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.Admit(), b.Admit()) << "arrival " << i;
  }
}

TEST(AdmissionControllerTest, DeadlineBudgetShedsProjectedLateReports) {
  AdmissionConfig config;
  config.per_report_service_ms = 10.0;
  config.deadline_budget_ms = 55.0;  // backlog of 5+ reports blows the budget
  config.service_per_arrival = 0.0;  // nothing drains
  AdmissionController controller(config);
  int admitted = 0;
  for (int i = 0; i < 100; ++i) {
    if (controller.Admit()) ++admitted;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 8);
  EXPECT_EQ(controller.shed(), 100u - admitted);
}

TEST(ClusterAccumulatorTest, SnapshotRestoreRoundTripIsExact) {
  auto acc = ClusterAccumulator::Create(3, NodeId{9}, 64, 500, SmallParams())
                 .value();
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    acc.IngestReport(acc.pcep().AssignRow(&rng),
                     rng.Bernoulli(0.5) ? 1.25 : -1.25, 0.7);
  }
  acc.RecordShed();
  acc.RecordShed();
  const ClusterAccumulatorState state = acc.Snapshot();
  EXPECT_EQ(state.cluster_index, 3u);
  EXPECT_EQ(state.n_responded, 200u);
  EXPECT_EQ(state.n_shed, 2u);
  EXPECT_EQ(state.touched_rows.size(), state.touched_values.size());

  auto restored =
      ClusterAccumulator::Create(3, NodeId{9}, 64, 500, SmallParams()).value();
  ASSERT_TRUE(restored.Restore(state).ok());
  EXPECT_EQ(restored.n_responded(), acc.n_responded());
  EXPECT_EQ(restored.n_shed(), acc.n_shed());
  EXPECT_DOUBLE_EQ(restored.varsigma_responded(), acc.varsigma_responded());
  // Touch order survives the round trip, so the decode is bit-identical.
  EXPECT_EQ(restored.pcep().touched_rows(), acc.pcep().touched_rows());
  EXPECT_EQ(restored.pcep().accumulator(), acc.pcep().accumulator());
  EXPECT_EQ(restored.Estimate(), acc.Estimate());
}

TEST(ClusterAccumulatorTest, RestoreRejectsCorruptSnapshots) {
  auto acc = ClusterAccumulator::Create(0, NodeId{1}, 16, 100, SmallParams())
                 .value();
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    acc.IngestReport(acc.pcep().AssignRow(&rng), 1.0, 0.5);
  }
  const ClusterAccumulatorState good = acc.Snapshot();

  const auto fresh = [&] {
    return ClusterAccumulator::Create(0, NodeId{1}, 16, 100, SmallParams())
        .value();
  };

  {  // Row index out of range.
    ClusterAccumulatorState bad = good;
    bad.touched_rows[0] = bad.m + 7;
    EXPECT_FALSE(fresh().Restore(bad).ok());
  }
  {  // Duplicate row entries.
    ASSERT_GE(good.touched_rows.size(), 2u);
    ClusterAccumulatorState bad = good;
    bad.touched_rows[1] = bad.touched_rows[0];
    EXPECT_FALSE(fresh().Restore(bad).ok());
  }
  {  // Rows/values length mismatch.
    ClusterAccumulatorState bad = good;
    bad.touched_values.pop_back();
    EXPECT_FALSE(fresh().Restore(bad).ok());
  }
  {  // Wrong reduced dimension.
    ClusterAccumulatorState bad = good;
    bad.m += 1;
    EXPECT_FALSE(fresh().Restore(bad).ok());
  }
  {  // Counter inconsistency: more responders than accumulated reports.
    ClusterAccumulatorState bad = good;
    bad.num_reports = 0;
    EXPECT_FALSE(fresh().Restore(bad).ok());
  }
  {  // Non-finite accumulator values.
    ClusterAccumulatorState bad = good;
    bad.touched_values[0] = std::nan("");
    EXPECT_FALSE(fresh().Restore(bad).ok());
  }
  // The good snapshot still restores after all the rejected attempts.
  EXPECT_TRUE(fresh().Restore(good).ok());
}

SpatialTaxonomy SmallTaxonomy() {
  const UniformGrid grid =
      UniformGrid::Create(BoundingBox{0, 0, 8, 8}, 1, 1).value();
  return SpatialTaxonomy::Build(grid, 4).value();
}

// Seals `epoch` over `users` (ascending ids inside a cohort of `cohort`).
// User u declares the region one level above cell u, so the users spread
// over several groups.
Status SealUsers(const SpatialTaxonomy& tax, const std::vector<uint32_t>& users,
                 uint64_t cohort, EpochAccumulator* epoch) {
  std::vector<PrivacySpec> specs;
  for (const uint32_t u : users) {
    const auto cell = static_cast<CellId>(u % tax.grid().num_cells());
    specs.push_back(PrivacySpec{tax.AncestorAbove(tax.LeafNodeOfCell(cell), 1),
                                u % 2 == 0 ? 0.5 : 1.0});
  }
  return epoch->Seal(users, std::move(specs), cohort);
}

uint64_t TotalReports(const EpochAccumulator& epoch) {
  uint64_t total = 0;
  for (size_t c = 0; c < epoch.num_clusters(); ++c) {
    EXPECT_EQ(epoch.cluster(c).n_responded(),
              epoch.cluster(c).pcep().num_reports());
    total += epoch.cluster(c).pcep().num_reports();
  }
  return total;
}

TEST(EpochAccumulatorTest, DuplicateSuppressionIsExact) {
  const SpatialTaxonomy tax = SmallTaxonomy();
  std::vector<uint32_t> users(100);
  std::iota(users.begin(), users.end(), 0u);
  EpochAccumulator epoch(&tax, PsdaOptions(), 0, AdmissionConfig{});
  ASSERT_TRUE(SealUsers(tax, users, 100, &epoch).ok());

  const uint32_t slot = epoch.SlotOf(42).value();
  EXPECT_FALSE(epoch.Seen(slot));
  ASSERT_EQ(epoch.Admit(slot), EpochAccumulator::Verdict::kAccepted);
  epoch.Stage(slot, true);
  EXPECT_TRUE(epoch.Seen(slot));
  // The duplicate never reaches z, before or after the fold.
  EXPECT_EQ(epoch.Admit(slot), EpochAccumulator::Verdict::kDuplicate);
  epoch.Fold();
  EXPECT_EQ(epoch.Admit(slot), EpochAccumulator::Verdict::kDuplicate);
  epoch.Fold();  // a second fold finds nothing staged
  EXPECT_EQ(epoch.total_ingested(), 1u);
  EXPECT_EQ(epoch.folded(), 1u);
  EXPECT_EQ(TotalReports(epoch), 1u);
}

TEST(EpochAccumulatorTest, DedupBitsetSurvivesSerialization) {
  const SpatialTaxonomy tax = SmallTaxonomy();
  const std::vector<uint32_t> roster = {0,  1,  2,  62,  63,  64, 65,
                                        66, 126, 127, 128, 129};
  const std::vector<uint32_t> reported = {0, 1, 63, 64, 65, 127, 128, 129};
  EpochAccumulator epoch(&tax, PsdaOptions(), 7, AdmissionConfig{});
  ASSERT_TRUE(SealUsers(tax, roster, 130, &epoch).ok());
  for (const uint32_t u : reported) {
    const uint32_t slot = epoch.SlotOf(u).value();
    ASSERT_EQ(epoch.Admit(slot), EpochAccumulator::Verdict::kAccepted);
    epoch.Stage(slot, u % 3 == 0);
  }
  epoch.Fold();
  const StatusOr<EpochCheckpoint> decoded =
      DecodeCheckpoint(EncodeCheckpoint(epoch.Snapshot()));
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EpochAccumulator restarted(&tax, PsdaOptions(), 7, AdmissionConfig{});
  ASSERT_TRUE(restarted.Restore(*decoded, 130).ok());
  EXPECT_EQ(restarted.restored(), reported.size());
  EXPECT_EQ(restarted.roster(), roster);
  for (const uint32_t u : reported) {
    const uint32_t slot = restarted.SlotOf(u).value();
    EXPECT_TRUE(restarted.Seen(slot)) << "user " << u;
    // A restart can never double-count a restored user's report.
    EXPECT_EQ(restarted.Admit(slot), EpochAccumulator::Verdict::kDuplicate);
  }
  for (const uint32_t u : {2u, 62u, 66u, 126u}) {
    EXPECT_FALSE(restarted.Seen(restarted.SlotOf(u).value())) << "user " << u;
  }
  EXPECT_FALSE(restarted.SlotOf(3).has_value());
  EXPECT_EQ(restarted.Publish().value().counts, epoch.Publish().value().counts);
}

TEST(EpochAccumulatorTest, RestoreDedupRejectsMalformedWords) {
  const SpatialTaxonomy tax = SmallTaxonomy();
  std::vector<uint32_t> roster(60);
  std::iota(roster.begin(), roster.end(), 10u);  // users 10..69 of 70
  EpochAccumulator epoch(&tax, PsdaOptions(), 0, AdmissionConfig{});
  ASSERT_TRUE(SealUsers(tax, roster, 70, &epoch).ok());
  const EpochCheckpoint good = epoch.Snapshot();
  ASSERT_EQ(good.dedup_words.size(), 2u);  // 70 bits

  const auto restore = [&](const std::vector<uint64_t>& words) {
    EpochCheckpoint bad = good;
    bad.dedup_words = words;
    EpochAccumulator fresh(&tax, PsdaOptions(), 0, AdmissionConfig{});
    return fresh.Restore(bad, 70);
  };
  // Wrong word count for the cohort.
  EXPECT_EQ(restore({0xFFULL}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(restore({0, 0, 0}).code(), StatusCode::kFailedPrecondition);
  // A stray bit past cohort_size in the tail word (bit 84 > 69).
  EXPECT_EQ(restore({0, uint64_t{1} << 20}).code(),
            StatusCode::kFailedPrecondition);
  // A bit for a cohort member outside the roster (user 3).
  EXPECT_EQ(restore({uint64_t{1} << 3, 0}).code(),
            StatusCode::kFailedPrecondition);

  // Valid tail bits are accepted: bit 69 is the last roster member.
  EpochCheckpoint tail = good;
  tail.dedup_words = {0, uint64_t{1} << 5};
  EpochAccumulator fresh(&tax, PsdaOptions(), 0, AdmissionConfig{});
  ASSERT_TRUE(fresh.Restore(tail, 70).ok());
  EXPECT_TRUE(fresh.Seen(fresh.SlotOf(69).value()));
  EXPECT_EQ(fresh.restored(), 1u);
}

TEST(EpochAccumulatorTest, SealAndRestoreRefuseAMalformedRoster) {
  const SpatialTaxonomy tax = SmallTaxonomy();
  EpochAccumulator epoch(&tax, PsdaOptions(), 0, AdmissionConfig{});
  // Out of order, a duplicate, and an id outside the cohort.
  EXPECT_EQ(SealUsers(tax, {1, 0, 2}, 10, &epoch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SealUsers(tax, {0, 1, 1}, 10, &epoch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SealUsers(tax, {0, 1, 10}, 10, &epoch).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(SealUsers(tax, {0, 1, 2, 3}, 10, &epoch).ok());

  // Nothing is folded yet, so the snapshot has no dedup bit that could
  // trip over a bad roster: only the roster check stands in the way.
  const EpochCheckpoint good = epoch.Snapshot();
  const auto restore = [&](const std::vector<uint32_t>& roster) {
    EpochCheckpoint bad = good;
    bad.roster = roster;
    EpochAccumulator fresh(&tax, PsdaOptions(), 0, AdmissionConfig{});
    return fresh.Restore(bad, 10).code();
  };
  EXPECT_EQ(restore({1, 0, 2, 3}), StatusCode::kFailedPrecondition);
  EXPECT_EQ(restore({0, 0, 2, 3}), StatusCode::kFailedPrecondition);
  EXPECT_EQ(restore({0, 1, 2, 10}), StatusCode::kFailedPrecondition);
  EXPECT_EQ(restore(good.roster), StatusCode::kOk);
}

TEST(EpochAccumulatorTest, AppendedAssignmentsEqualTheSerializedMessage) {
  // 90 x 90 cells: the root's rows are 8,100 bits, more than one fill block
  // of AppendRowBytes and with a ragged tail (8100 % 64 = 36); the regions
  // one level above the leaves are narrow and ragged too.
  const UniformGrid grid =
      UniformGrid::Create(BoundingBox{0, 0, 90, 90}, 1, 1).value();
  const SpatialTaxonomy tax = SpatialTaxonomy::Build(grid, 4).value();
  ASSERT_EQ(tax.RegionSize(tax.root()) % 64, 36u);
  PsdaOptions psda;
  psda.enable_clustering = false;  // keep the root group a cluster of its own
  std::vector<uint32_t> users(400);
  std::iota(users.begin(), users.end(), 0u);
  std::vector<PrivacySpec> specs;
  for (const uint32_t u : users) {
    const auto cell = static_cast<CellId>((u * 37) % grid.num_cells());
    const NodeId narrow = tax.AncestorAbove(tax.LeafNodeOfCell(cell), 1);
    specs.push_back(PrivacySpec{u % 2 == 0 ? tax.root() : narrow, 1.0});
  }
  EpochAccumulator epoch(&tax, psda, 0, AdmissionConfig{});
  ASSERT_TRUE(epoch.Seal(users, std::move(specs), 400).ok());

  auto& registry = obs::MetricsRegistry::Global();
  registry.set_enabled(true);
  const obs::Counter* rows =
      registry.GetCounter("sign_matrix.rows_materialized");
  std::set<uint64_t> widths;
  for (uint32_t slot = 0; slot < users.size(); ++slot) {
    const RowAssignmentMsg expected = epoch.Assignment(slot);
    widths.insert(expected.row_bits.size());
    std::vector<uint8_t> appended = {0xAB};  // appends after what is there
    const uint64_t before = rows->Value();
    epoch.AppendAssignment(slot, &appended);
    EXPECT_EQ(rows->Value(), before + 1) << "slot " << slot;
    const std::vector<uint8_t> serialized = expected.Serialize();
    ASSERT_EQ(appended.size(), serialized.size() + 1) << "slot " << slot;
    EXPECT_EQ(appended[0], 0xAB);
    EXPECT_TRUE(std::equal(serialized.begin(), serialized.end(),
                           appended.begin() + 1))
        << "slot " << slot;
  }
  registry.set_enabled(false);
  EXPECT_TRUE(widths.count(8100));
  EXPECT_GE(widths.size(), 2u);
}

TEST(EpochAccumulatorTest, ShedReportsAreBookedAgainstTheirCluster) {
  const SpatialTaxonomy tax = SmallTaxonomy();
  AdmissionConfig config;
  config.max_queue_depth = 4;
  config.service_per_arrival = 0.0;  // everything past the depth sheds
  PsdaOptions psda;
  psda.enable_clustering = false;  // one cluster per group
  std::vector<uint32_t> users(50);
  std::iota(users.begin(), users.end(), 0u);
  EpochAccumulator epoch(&tax, psda, 0, config);
  ASSERT_TRUE(SealUsers(tax, users, 50, &epoch).ok());
  ASSERT_GE(epoch.num_clusters(), 2u);

  uint64_t admitted = 0;
  std::map<NodeId, uint64_t> shed_by_region;
  for (uint32_t slot = 0; slot < 20; ++slot) {
    if (epoch.Admit(slot) == EpochAccumulator::Verdict::kAccepted) {
      ++admitted;
      epoch.Stage(slot, true);
    } else {
      ++shed_by_region[epoch.Assignment(slot).region];
    }
    // A shed slot is Seen, so a second copy is a duplicate, not a re-admit.
    EXPECT_EQ(epoch.Admit(slot), EpochAccumulator::Verdict::kDuplicate);
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, 20u);
  EXPECT_EQ(epoch.admission().shed(), 20u - admitted);
  uint64_t cluster_shed = 0;
  for (size_t c = 0; c < epoch.num_clusters(); ++c) {
    EXPECT_EQ(epoch.cluster(c).n_shed(),
              shed_by_region[epoch.cluster(c).region()]);
    cluster_shed += epoch.cluster(c).n_shed();
  }
  EXPECT_EQ(cluster_shed, 20u - admitted);
}

}  // namespace
}  // namespace pldp
