#include "protocol/accumulator.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/error_model.h"
#include "core/user_group.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pldp {
namespace {

obs::Counter* IngestAcceptedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("ingest.accepted");
  return counter;
}

obs::Counter* IngestDuplicateCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("ingest.duplicates");
  return counter;
}

obs::Counter* IngestShedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("ingest.shed");
  return counter;
}

}  // namespace

bool AdmissionController::Admit() {
  if (!config_.enabled()) {
    ++admitted_;
    return true;
  }
  // Drain the service capacity freed since the last arrival, then decide
  // whether the queue can take one more report.
  backlog_ = std::max(0.0, backlog_ - config_.service_per_arrival);
  const double projected = backlog_ + 1.0;
  const bool depth_exceeded =
      config_.max_queue_depth > 0 &&
      projected > static_cast<double>(config_.max_queue_depth);
  const bool deadline_exceeded =
      config_.deadline_budget_ms > 0.0 &&
      projected * config_.per_report_service_ms > config_.deadline_budget_ms;
  if (depth_exceeded || deadline_exceeded) {
    ++shed_;
    return false;
  }
  backlog_ = projected;
  ++admitted_;
  return true;
}

StatusOr<ClusterAccumulator> ClusterAccumulator::Create(
    uint32_t cluster_index, NodeId region, uint64_t tau_size,
    uint64_t n_expected, const PcepParams& params) {
  PLDP_ASSIGN_OR_RETURN(PcepServer pcep,
                        PcepServer::Create(tau_size, n_expected, params));
  return ClusterAccumulator(cluster_index, region, n_expected,
                            std::move(pcep));
}

void ClusterAccumulator::IngestReport(uint64_t row, double value,
                                      double varsigma_term) {
  pcep_.Accumulate(row, value);
  ++n_responded_;
  varsigma_responded_ += varsigma_term;
}

ClusterAccumulatorState ClusterAccumulator::Snapshot() const {
  ClusterAccumulatorState state;
  state.cluster_index = cluster_index_;
  state.region = region_;
  state.tau_size = pcep_.tau_size();
  state.n_expected = n_expected_;
  state.m = pcep_.m();
  state.num_reports = pcep_.num_reports();
  state.n_responded = n_responded_;
  state.n_shed = n_shed_;
  state.varsigma_responded = varsigma_responded_;
  state.touched_rows = pcep_.touched_rows();
  state.touched_values.reserve(state.touched_rows.size());
  const std::vector<double>& z = pcep_.accumulator();
  for (const uint64_t row : state.touched_rows) {
    state.touched_values.push_back(z[row]);
  }
  return state;
}

Status ClusterAccumulator::Restore(const ClusterAccumulatorState& state) {
  if (state.cluster_index != cluster_index_ || state.region != region_) {
    return Status::InvalidArgument("cluster snapshot identity mismatch");
  }
  if (state.tau_size != pcep_.tau_size() || state.m != pcep_.m() ||
      state.n_expected != n_expected_) {
    return Status::InvalidArgument(
        "cluster snapshot dimensions do not match this configuration");
  }
  if (state.touched_rows.size() != state.touched_values.size()) {
    return Status::InvalidArgument("cluster snapshot row/value length skew");
  }
  if (state.n_responded > state.num_reports ||
      (state.num_reports > 0 && state.touched_rows.empty())) {
    return Status::InvalidArgument("cluster snapshot counter inconsistency");
  }
  if (!std::isfinite(state.varsigma_responded) ||
      state.varsigma_responded < 0.0) {
    return Status::InvalidArgument("cluster snapshot varsigma not finite");
  }
  for (const double value : state.touched_values) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("cluster snapshot accumulator not "
                                     "finite");
    }
  }
  std::vector<double> z(pcep_.m(), 0.0);
  for (size_t i = 0; i < state.touched_rows.size(); ++i) {
    const uint64_t row = state.touched_rows[i];
    if (row >= z.size()) {
      return Status::InvalidArgument("cluster snapshot row out of range");
    }
    z[row] = state.touched_values[i];
  }
  PLDP_RETURN_IF_ERROR(
      pcep_.RestoreState(z, state.touched_rows, state.num_reports));
  n_responded_ = state.n_responded;
  n_shed_ = state.n_shed;
  varsigma_responded_ = state.varsigma_responded;
  return Status::OK();
}

EpochAccumulator::EpochAccumulator(const SpatialTaxonomy* taxonomy,
                                   const PsdaOptions& psda, uint64_t epoch,
                                   const AdmissionConfig& admission)
    : taxonomy_(taxonomy), psda_(psda), epoch_(epoch), admission_(admission) {}

Status EpochAccumulator::AcceptSpec(const PrivacySpec& spec) const {
  PLDP_RETURN_IF_ERROR(ValidatePrivacySpec(*taxonomy_, spec));
  if (!std::isfinite(CEpsilon(spec.epsilon))) {
    return Status::InvalidArgument("epsilon has no finite c_eps");
  }
  return Status::OK();
}

Status EpochAccumulator::Seal(std::vector<uint32_t> roster,
                              std::vector<PrivacySpec> specs,
                              uint64_t cohort_size) {
  if (roster.empty() || roster.size() != specs.size()) {
    return Status::InvalidArgument(
        "roster must be non-empty and index-aligned with its specs");
  }
  for (size_t k = 0; k < roster.size(); ++k) {
    if (roster[k] >= cohort_size || (k > 0 && roster[k] <= roster[k - 1])) {
      return Status::InvalidArgument(
          "roster user " + std::to_string(roster[k]) + " at position " +
          std::to_string(k) +
          " breaks a strictly ascending roster inside the cohort of " +
          std::to_string(cohort_size));
    }
  }
  cohort_size_ = cohort_size;
  roster_ = std::move(roster);
  specs_ = std::move(specs);
  PLDP_ASSIGN_OR_RETURN(groups_, GroupSpecsBySafeRegion(*taxonomy_, specs_));
  PLDP_ASSIGN_OR_RETURN(plan_, PlanEpoch(*taxonomy_, groups_, psda_));

  clusters_.clear();
  clusters_.reserve(plan_.clusters.size());
  slots_.assign(roster_.size(), Slot{});
  restored_ = staged_ = folded_ = 0;
  for (size_t c = 0; c < plan_.clusters.size(); ++c) {
    const ClusterPlan& cluster = plan_.clusters[c];
    PLDP_ASSIGN_OR_RETURN(
        ClusterAccumulator accumulator,
        ClusterAccumulator::Create(
            static_cast<uint32_t>(c), plan_.clustering.clusters[c].top_region,
            cluster.cells.size(), cluster.n, cluster.params));
    // Every slot draws its row, whether or not its user ever reports, so
    // each cluster's assignment stream is the same for any arrival order and
    // replays identically after a restore.
    Rng row_rng(PcepSeeds(cluster.params.seed).row_assignment);
    for (const uint32_t g : plan_.clustering.clusters[c].groups) {
      for (const uint32_t slot : groups_[g].members) {
        slots_[slot].cluster = static_cast<uint32_t>(c);
        slots_[slot].row = accumulator.pcep().AssignRow(&row_rng);
      }
    }
    clusters_.push_back(std::move(accumulator));
  }
  return Status::OK();
}

Status EpochAccumulator::Restore(const EpochCheckpoint& checkpoint,
                                 uint64_t cohort_size) {
  // A snapshot that does not describe exactly this configuration would
  // replay into mismatched clusters and silently publish garbage.
  if (checkpoint.epoch != epoch_) {
    return Status::FailedPrecondition(
        "checkpoint is for epoch " + std::to_string(checkpoint.epoch) +
        ", not epoch " + std::to_string(epoch_));
  }
  if (checkpoint.psda_seed != psda_.seed) {
    return Status::FailedPrecondition(
        "checkpoint was taken under a different protocol seed");
  }
  if (checkpoint.beta != psda_.beta) {
    return Status::FailedPrecondition(
        "checkpoint was taken under a different confidence level beta");
  }
  if (checkpoint.cohort_size != cohort_size) {
    return Status::FailedPrecondition(
        "checkpoint cohort size " + std::to_string(checkpoint.cohort_size) +
        " does not match the cohort of " + std::to_string(cohort_size));
  }
  for (const PrivacySpec& spec : checkpoint.specs) {
    const Status accepted = AcceptSpec(spec);
    if (!accepted.ok()) {
      return Status::FailedPrecondition("checkpoint spec refused: " +
                                        accepted.message());
    }
  }
  const Status sealed = Seal(checkpoint.roster, checkpoint.specs, cohort_size);
  if (!sealed.ok()) {
    return Status::FailedPrecondition("checkpoint does not seal: " +
                                      sealed.message());
  }
  if (checkpoint.clusters.size() != clusters_.size()) {
    return Status::FailedPrecondition(
        "checkpoint has " + std::to_string(checkpoint.clusters.size()) +
        " clusters, this configuration builds " +
        std::to_string(clusters_.size()));
  }
  for (size_t c = 0; c < clusters_.size(); ++c) {
    PLDP_RETURN_IF_ERROR(clusters_[c].Restore(checkpoint.clusters[c]));
  }
  if (checkpoint.dedup_words.size() != (cohort_size + 63) / 64) {
    return Status::FailedPrecondition(
        "checkpoint dedup word count does not match the cohort");
  }
  for (size_t w = 0; w < checkpoint.dedup_words.size(); ++w) {
    for (uint64_t word = checkpoint.dedup_words[w]; word != 0;
         word &= word - 1) {
      const uint64_t user =
          w * 64 + static_cast<uint64_t>(__builtin_ctzll(word));
      const std::optional<uint32_t> slot = SlotOf(user);
      if (!slot.has_value()) {
        return Status::FailedPrecondition(
            "checkpoint dedup bit set for user " + std::to_string(user) +
            " outside the roster");
      }
      slots_[*slot].state = SlotState::kRestored;
      ++restored_;
    }
  }
  return Status::OK();
}

EpochCheckpoint EpochAccumulator::Snapshot() const {
  EpochCheckpoint snapshot;
  snapshot.epoch = epoch_;
  snapshot.psda_seed = psda_.seed;
  snapshot.beta = psda_.beta;
  snapshot.cohort_size = cohort_size_;
  snapshot.specs = specs_;
  snapshot.roster = roster_;
  snapshot.dedup_words.assign((cohort_size_ + 63) / 64, 0);
  for (size_t k = 0; k < slots_.size(); ++k) {
    if (slots_[k].state == SlotState::kFolded ||
        slots_[k].state == SlotState::kRestored) {
      snapshot.dedup_words[roster_[k] / 64] |= uint64_t{1}
                                               << (roster_[k] % 64);
    }
  }
  snapshot.ingested = restored_ + folded_;
  snapshot.clusters.reserve(clusters_.size());
  for (const ClusterAccumulator& cluster : clusters_) {
    snapshot.clusters.push_back(cluster.Snapshot());
  }
  return snapshot;
}

std::optional<uint32_t> EpochAccumulator::SlotOf(uint64_t user) const {
  const auto it = std::lower_bound(roster_.begin(), roster_.end(), user);
  if (it == roster_.end() || *it != user) return std::nullopt;
  return static_cast<uint32_t>(it - roster_.begin());
}

void EpochAccumulator::AppendAssignment(uint32_t slot,
                                        std::vector<uint8_t>* out) const {
  const Slot& s = slots_[slot];
  const PcepServer& pcep = clusters_[s.cluster].pcep();
  AppendRowAssignmentHeader(out, clusters_[s.cluster].region(), pcep.m(),
                            s.row, pcep.sign_matrix().width());
  pcep.sign_matrix().AppendRowBytes(s.row, out);
}

RowAssignmentMsg EpochAccumulator::Assignment(uint32_t slot) const {
  const Slot& s = slots_[slot];
  const PcepServer& pcep = clusters_[s.cluster].pcep();
  RowAssignmentMsg msg;
  msg.region = clusters_[s.cluster].region();
  msg.m = pcep.m();
  msg.row_index = s.row;
  msg.row_bits = pcep.sign_matrix().Row(s.row);
  return msg;
}

bool EpochAccumulator::Seen(uint32_t slot) const {
  return slots_[slot].state != SlotState::kNone;
}

EpochAccumulator::Verdict EpochAccumulator::Admit(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.state != SlotState::kNone) {
    IngestDuplicateCounter()->Increment();
    return Verdict::kDuplicate;
  }
  if (!admission_.Admit()) {
    clusters_[s.cluster].RecordShed();
    s.state = SlotState::kShed;
    IngestShedCounter()->Increment();
    return Verdict::kShed;
  }
  return Verdict::kAccepted;
}

void EpochAccumulator::Stage(uint32_t slot, bool positive) {
  Slot& s = slots_[slot];
  PLDP_CHECK(s.state == SlotState::kNone) << "slot " << slot << " is Seen";
  s.state = SlotState::kStaged;
  s.positive = positive;
  ++staged_;
  IngestAcceptedCounter()->Increment();
}

void EpochAccumulator::Fold() {
  if (staged_ == 0) return;
  PLDP_SPAN("ingest.fold");
  // Every slot belongs to exactly one cluster, so clusters fold in parallel
  // with no shared writes; within a cluster the fold is serial in canonical
  // order, which keeps the sums independent of arrival order and thread
  // count.
  ThreadPool::Global().ParallelFor(
      0, clusters_.size(), ClusterFanOutChunks(psda_),
      [this](unsigned, size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          ClusterAccumulator& cluster = clusters_[c];
          const double sqrt_m =
              std::sqrt(static_cast<double>(cluster.pcep().m()));
          for (const uint32_t g : plan_.clustering.clusters[c].groups) {
            for (const uint32_t slot : groups_[g].members) {
              Slot& s = slots_[slot];
              if (s.state != SlotState::kStaged) continue;
              const double epsilon = specs_[slot].epsilon;
              const double magnitude = CEpsilon(epsilon) * sqrt_m;
              cluster.IngestReport(s.row, s.positive ? magnitude : -magnitude,
                                   PrivacyFactorTerm(epsilon));
              s.state = SlotState::kFolded;
            }
          }
        }
      });
  folded_ += staged_;
  staged_ = 0;
}

StatusOr<PsdaResult> EpochAccumulator::Publish() {
  Fold();
  std::vector<ClusterTally> tallies(clusters_.size());
  {
    PLDP_SPAN("ingest.decode");
    // Estimate() is serial per cluster, so the decode fans out over
    // clusters; PublishEpoch merges in cluster order.
    ThreadPool::Global().ParallelFor(
        0, clusters_.size(), ClusterFanOutChunks(psda_),
        [this, &tallies](unsigned, size_t begin, size_t end) {
          for (size_t c = begin; c < end; ++c) {
            if (clusters_[c].n_responded() > 0) {
              tallies[c].estimate = clusters_[c].Estimate();
            }
          }
        });
  }
  for (size_t c = 0; c < clusters_.size(); ++c) {
    tallies[c].n_responded = clusters_[c].n_responded();
    tallies[c].n_shed = clusters_[c].n_shed();
    tallies[c].varsigma_responded = clusters_[c].varsigma_responded();
  }
  PLDP_ASSIGN_OR_RETURN(
      PsdaResult result,
      PublishEpoch(*taxonomy_, groups_, plan_, tallies, cohort_size_,
                   psda_.enforce_consistency));
  result.clustering = plan_.clustering;
  return result;
}

}  // namespace pldp
