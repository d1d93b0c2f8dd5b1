#include "net/epoch_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pldp {
namespace net {

namespace {

/// The refusal of any call that needs `epoch_` while a seal runs.
Status SealRunning() {
  return Status::FailedPrecondition("a seal is running");
}

}  // namespace

EpochEngine::EpochEngine(const SpatialTaxonomy* taxonomy,
                         EpochEngineOptions options)
    : options_(std::move(options)),
      epoch_(taxonomy, options_.psda, options_.epoch, options_.admission) {}

EpochEngine::Phase EpochEngine::phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_;
}

SpecOutcome EpochEngine::RegisterSpec(uint64_t user_id,
                                      const SpecUploadMsg& msg) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* accepted = registry.GetCounter("net.specs_accepted");
  static obs::Counter* duplicate = registry.GetCounter("net.specs_duplicate");
  static obs::Counter* invalid = registry.GetCounter("net.specs_invalid");
  static obs::Counter* wrong_phase =
      registry.GetCounter("net.wrong_phase_frames");

  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ != Phase::kCollectingSpecs) {
    ++stats_.wrong_phase_frames;
    wrong_phase->Increment();
    return SpecOutcome::kWrongPhase;
  }
  const PrivacySpec spec{msg.safe_region, msg.epsilon};
  if (!epoch_.AcceptSpec(spec).ok()) {
    ++stats_.specs_invalid;
    invalid->Increment();
    return SpecOutcome::kInvalid;
  }
  if (!pending_specs_.emplace(user_id, spec).second) {
    ++stats_.specs_duplicate;
    duplicate->Increment();
    return SpecOutcome::kDuplicate;
  }
  ++stats_.specs_accepted;
  accepted->Increment();
  return SpecOutcome::kAccepted;
}

Status EpochEngine::SealSpecs(uint64_t cohort_size) {
  PLDP_SPAN("net.seal_specs");
  std::unordered_map<uint64_t, PrivacySpec> specs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (phase_ == Phase::kSealing) return SealRunning();
    if (phase_ != Phase::kCollectingSpecs) {
      return Status::FailedPrecondition("spec phase is already sealed");
    }
    if (pending_specs_.empty()) {
      return Status::FailedPrecondition(
          "cannot seal an epoch with no registered specs");
    }
    if (cohort_size < pending_specs_.size()) {
      return Status::InvalidArgument(
          "cohort size " + std::to_string(cohort_size) + " is below the " +
          std::to_string(pending_specs_.size()) + " registered specs");
    }
    specs.swap(pending_specs_);
    spec_responders_ = specs.size();
    sealed_from_ = phase_;
    phase_ = Phase::kSealing;
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kPhase,
                                         "phase.sealing", specs.size(),
                                         cohort_size);
  }
  const Status sealed = SealRoster(specs, cohort_size);

  std::lock_guard<std::mutex> lock(mu_);
  if (!sealed.ok()) {
    pending_specs_ = std::move(specs);
    phase_ = Phase::kCollectingSpecs;
    return sealed;
  }
  num_clusters_ = epoch_.num_clusters();
  cohort_size_ = cohort_size;
  phase_ = Phase::kCollectingReports;

  auto& registry = obs::MetricsRegistry::Global();
  static obs::Gauge* clusters = registry.GetGauge("net.clusters");
  static obs::Gauge* responders = registry.GetGauge("net.spec_responders");
  clusters->Set(static_cast<double>(num_clusters_));
  responders->Set(static_cast<double>(spec_responders_));
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kPhase,
                                       "phase.collecting_reports",
                                       spec_responders_, cohort_size);
  return Status::OK();
}

Status EpochEngine::SealRoster(
    const std::unordered_map<uint64_t, PrivacySpec>& specs,
    uint64_t cohort_size) {
  std::vector<uint32_t> roster;
  roster.reserve(specs.size());
  for (const auto& entry : specs) {
    // EpochCheckpoint rosters are 32-bit user indices; refusing wider ids at
    // the seal keeps every later snapshot loadable.
    if (entry.first > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("registered user id " +
                                     std::to_string(entry.first) +
                                     " does not fit a 32-bit roster");
    }
    roster.push_back(static_cast<uint32_t>(entry.first));
  }
  // Canonical roster order: ascending user id. When every cohort member
  // registers, this is exactly the client-index order the in-process spec
  // phase produces, which is what makes the transcripts comparable.
  std::sort(roster.begin(), roster.end());
  std::vector<PrivacySpec> sorted;
  sorted.reserve(roster.size());
  for (const uint32_t id : roster) sorted.push_back(specs.at(id));
  return epoch_.Seal(std::move(roster), std::move(sorted), cohort_size);
}

StatusOr<uint32_t> EpochEngine::SealedSlotLocked(uint64_t user_id) const {
  if (phase_ == Phase::kSealing) return SealRunning();
  if (phase_ == Phase::kCollectingSpecs) {
    return Status::FailedPrecondition(
        "row assignments exist only after seal_specs");
  }
  const std::optional<uint32_t> slot = epoch_.SlotOf(user_id);
  if (!slot.has_value()) {
    return Status::NotFound("user " + std::to_string(user_id) +
                            " is not in the sealed roster");
  }
  return *slot;
}

StatusOr<RowAssignmentMsg> EpochEngine::Assignment(uint64_t user_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  PLDP_ASSIGN_OR_RETURN(const uint32_t slot, SealedSlotLocked(user_id));
  return epoch_.Assignment(slot);
}

Status EpochEngine::AppendAssignment(uint64_t user_id,
                                     std::vector<uint8_t>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  PLDP_ASSIGN_OR_RETURN(const uint32_t slot, SealedSlotLocked(user_id));
  epoch_.AppendAssignment(slot, out);
  return Status::OK();
}

ReportOutcome EpochEngine::SubmitReport(uint64_t user_id,
                                        const ReportMsg& msg) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* staged = registry.GetCounter("net.reports_staged");
  static obs::Counter* duplicates =
      registry.GetCounter("net.reports_duplicate");
  static obs::Counter* shed = registry.GetCounter("net.reports_shed");
  static obs::Counter* late = registry.GetCounter("net.late_frames");
  static obs::Counter* unknown =
      registry.GetCounter("net.unknown_user_frames");
  static obs::Counter* wrong_phase =
      registry.GetCounter("net.wrong_phase_frames");

  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == Phase::kCollectingSpecs ||
      (phase_ == Phase::kSealing &&
       sealed_from_ == Phase::kCollectingSpecs)) {
    ++stats_.wrong_phase_frames;
    wrong_phase->Increment();
    return ReportOutcome::kWrongPhase;
  }
  if (phase_ != Phase::kCollectingReports) {
    // Late frame: the epoch seal has begun, so this user is a non-responder
    // at decode and the n/n_resp rescale compensates them. Counting (never
    // folding) the frame keeps the published estimate unbiased.
    ++stats_.late_frames;
    late->Increment();
    return ReportOutcome::kLate;
  }
  const std::optional<uint32_t> slot = epoch_.SlotOf(user_id);
  if (!slot.has_value()) {
    ++stats_.unknown_user_frames;
    unknown->Increment();
    return ReportOutcome::kUnknownUser;
  }
  switch (epoch_.Admit(*slot)) {
    case EpochAccumulator::Verdict::kDuplicate:
      ++stats_.reports_duplicate;
      duplicates->Increment();
      return ReportOutcome::kDuplicate;
    case EpochAccumulator::Verdict::kShed:
      ++stats_.reports_shed;
      shed->Increment();
      obs::FlightRecorder::Global().Record(obs::FlightEventType::kShed,
                                           "report.shed", user_id);
      return ReportOutcome::kShed;
    case EpochAccumulator::Verdict::kAccepted:
      break;
  }
  epoch_.Stage(*slot, msg.positive);
  ++stats_.reports_staged;
  staged->Increment();
  return ReportOutcome::kAccepted;
}

Status EpochEngine::SealEpoch() {
  PLDP_SPAN("net.seal_epoch");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (phase_ == Phase::kSealing) return SealRunning();
    if (phase_ == Phase::kCollectingSpecs) {
      return Status::FailedPrecondition("seal_epoch before seal_specs");
    }
    if (phase_ == Phase::kPublished) {
      return Status::OK();  // idempotent: a retried seal is not an error
    }
    sealed_from_ = phase_;
    phase_ = Phase::kSealing;
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kPhase,
                                         "phase.sealing",
                                         stats_.reports_staged,
                                         cohort_size_);
  }

  // The final snapshot makes the fully folded epoch durable before decode,
  // mirroring the in-process epoch teardown: a crash between fold and
  // publish recovers with zero report loss.
  const bool checkpointing = options_.checkpoint.enabled();
  const Status saved = checkpointing ? FoldAndSave() : Status::OK();
  StatusOr<PsdaResult> result =
      saved.ok() ? epoch_.Publish() : StatusOr<PsdaResult>(saved);

  std::lock_guard<std::mutex> lock(mu_);
  stats_.reports_folded = epoch_.folded();
  if (checkpointing && saved.ok()) NoteCheckpointLocked();
  if (!result.ok()) {
    phase_ = Phase::kCollectingReports;
    return result.status();
  }
  published_ = std::move(result->counts);
  cluster_response_ = std::move(result->cluster_response);
  phase_ = Phase::kPublished;

  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* epochs = registry.GetCounter("net.epochs_published");
  static obs::Gauge* cells = registry.GetGauge("net.published_cells");
  epochs->Increment();
  cells->Set(static_cast<double>(published_.size()));
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kPhase,
                                       "phase.published", published_.size(),
                                       stats_.reports_folded);
  return Status::OK();
}

Status EpochEngine::Checkpoint() {
  PLDP_SPAN("net.checkpoint");
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "checkpointing is disabled (no directory configured)");
  }
  if (phase_ == Phase::kSealing) return SealRunning();
  if (phase_ == Phase::kCollectingSpecs) {
    return Status::FailedPrecondition(
        "nothing to checkpoint before the spec seal");
  }
  const Status saved = FoldAndSave();
  stats_.reports_folded = epoch_.folded();
  if (saved.ok()) NoteCheckpointLocked();
  return saved;
}

Status EpochEngine::FoldAndSave() {
  epoch_.Fold();
  CheckpointStore store(options_.checkpoint.dir, options_.checkpoint.keep);
  return store.Save(epoch_.Snapshot());
}

void EpochEngine::NoteCheckpointLocked() {
  ++stats_.checkpoints_written;
  static obs::Counter* checkpoints =
      obs::MetricsRegistry::Global().GetCounter("net.checkpoints");
  checkpoints->Increment();
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kCheckpoint, "checkpoint.write",
      epoch_.restored() + epoch_.folded(), stats_.checkpoints_written);
}

Status EpochEngine::RestoreLatest() {
  PLDP_SPAN("net.restore");
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "checkpointing is disabled (no directory configured)");
  }
  if (phase_ != Phase::kCollectingSpecs || !pending_specs_.empty()) {
    return Status::FailedPrecondition(
        "restore needs a fresh engine with no registered specs");
  }
  CheckpointStore store(options_.checkpoint.dir, options_.checkpoint.keep);
  PLDP_ASSIGN_OR_RETURN(const EpochCheckpoint checkpoint,
                        store.RestoreLatest());
  // The daemon has no cohort of its own before the seal: it resumes the
  // snapshot's.
  PLDP_RETURN_IF_ERROR(epoch_.Restore(checkpoint, checkpoint.cohort_size));
  stats_.restored_reports = epoch_.restored();
  num_clusters_ = epoch_.num_clusters();
  spec_responders_ = epoch_.roster().size();
  cohort_size_ = epoch_.cohort_size();
  phase_ = Phase::kCollectingReports;

  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* restores = registry.GetCounter("net.restores");
  static obs::Counter* restored_reports =
      registry.GetCounter("net.restored_reports");
  restores->Increment();
  restored_reports->Increment(epoch_.restored());
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kPhase,
                                       "phase.restored", epoch_.restored());
  return Status::OK();
}

const std::vector<double>& EpochEngine::published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

const std::vector<ClusterResponseStats>& EpochEngine::cluster_response()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return cluster_response_;
}

NetEpochStats EpochEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t EpochEngine::num_clusters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_clusters_;
}

uint64_t EpochEngine::spec_responders() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_ == Phase::kCollectingSpecs ? pending_specs_.size()
                                           : spec_responders_;
}

uint64_t EpochEngine::cohort_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cohort_size_;
}

EpochEngine::StatusView EpochEngine::StatusSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatusView view;
  view.phase = phase_;
  view.stats = stats_;
  view.num_clusters = num_clusters_;
  view.spec_responders = phase_ == Phase::kCollectingSpecs
                             ? pending_specs_.size()
                             : spec_responders_;
  view.cohort_size = cohort_size_;
  view.published_cells = published_.size();
  return view;
}

}  // namespace net
}  // namespace pldp
