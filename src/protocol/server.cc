#include "protocol/server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/messages.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace pldp {

bool operator==(const ProtocolStats& a, const ProtocolStats& b) {
  return a.bytes_to_clients == b.bytes_to_clients &&
         a.bytes_to_server == b.bytes_to_server &&
         a.messages_to_clients == b.messages_to_clients &&
         a.messages_to_server == b.messages_to_server &&
         a.dropped_clients == b.dropped_clients && a.retries == b.retries &&
         a.dropped_messages == b.dropped_messages &&
         a.timeouts == b.timeouts &&
         a.crashed_deliveries == b.crashed_deliveries &&
         a.corrupt_parses == b.corrupt_parses &&
         a.refused_assignments == b.refused_assignments &&
         a.duplicate_reports == b.duplicate_reports &&
         a.shed_reports == b.shed_reports &&
         a.restored_reports == b.restored_reports &&
         a.spec_responders == b.spec_responders &&
         a.simulated_latency_ms == b.simulated_latency_ms &&
         a.recovery_ms == b.recovery_ms &&
         a.global_rescale == b.global_rescale &&
         a.cluster_response == b.cluster_response;
}

namespace {

/// Books a lost message (drop, timeout, or mid-delivery crash) into the stats.
void CountLoss(const Delivery& delivery, ProtocolStats* stats) {
  if (delivery.outcome == DeliveryOutcome::kDropped) {
    ++stats->dropped_messages;
  } else if (delivery.outcome == DeliveryOutcome::kTimedOut) {
    ++stats->timeouts;
  } else if (delivery.outcome == DeliveryOutcome::kCrashed) {
    ++stats->crashed_deliveries;
  }
}

}  // namespace

void PublishProtocolStats(const ProtocolStats& stats) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* runs = registry.GetCounter("protocol.collect_runs");
  static obs::Counter* bytes_down =
      registry.GetCounter("protocol.bytes_to_clients");
  static obs::Counter* bytes_up =
      registry.GetCounter("protocol.bytes_to_server");
  static obs::Counter* msgs_down =
      registry.GetCounter("protocol.messages_to_clients");
  static obs::Counter* msgs_up =
      registry.GetCounter("protocol.messages_to_server");
  static obs::Counter* dropped_clients =
      registry.GetCounter("protocol.dropped_clients");
  static obs::Counter* retries = registry.GetCounter("protocol.retries");
  static obs::Counter* dropped_messages =
      registry.GetCounter("protocol.dropped_messages");
  static obs::Counter* timeouts = registry.GetCounter("protocol.timeouts");
  static obs::Counter* crashed =
      registry.GetCounter("protocol.crashed_deliveries");
  static obs::Counter* corrupt_parses =
      registry.GetCounter("protocol.corrupt_parses");
  static obs::Counter* refused =
      registry.GetCounter("protocol.refused_assignments");
  static obs::Counter* duplicates =
      registry.GetCounter("protocol.duplicate_reports");
  static obs::Counter* shed = registry.GetCounter("protocol.shed_reports");
  static obs::Counter* restored =
      registry.GetCounter("protocol.restored_reports");
  static obs::Counter* spec_responders =
      registry.GetCounter("protocol.spec_responders");
  static obs::Counter* cluster_rounds =
      registry.GetCounter("protocol.cluster_rounds");
  static obs::Counter* responders = registry.GetCounter("protocol.responders");
  static obs::Counter* cluster_shed =
      registry.GetCounter("protocol.cluster_shed");
  static obs::Gauge* latency =
      registry.GetGauge("protocol.simulated_latency_ms");
  static obs::Gauge* recovery = registry.GetGauge("protocol.recovery_ms");
  static obs::Gauge* rescale = registry.GetGauge("protocol.global_rescale");
  static obs::Histogram* response_rate = registry.GetHistogram(
      "protocol.cluster_response_rate",
      {0.25, 0.5, 0.75, 0.9, 0.99, 1.0});
  static obs::Histogram* shed_fraction = registry.GetHistogram(
      "protocol.cluster_shed_fraction",
      {0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0});

  runs->Increment();
  bytes_down->Increment(stats.bytes_to_clients);
  bytes_up->Increment(stats.bytes_to_server);
  msgs_down->Increment(stats.messages_to_clients);
  msgs_up->Increment(stats.messages_to_server);
  dropped_clients->Increment(stats.dropped_clients);
  retries->Increment(stats.retries);
  dropped_messages->Increment(stats.dropped_messages);
  timeouts->Increment(stats.timeouts);
  crashed->Increment(stats.crashed_deliveries);
  corrupt_parses->Increment(stats.corrupt_parses);
  refused->Increment(stats.refused_assignments);
  duplicates->Increment(stats.duplicate_reports);
  shed->Increment(stats.shed_reports);
  restored->Increment(stats.restored_reports);
  spec_responders->Increment(stats.spec_responders);
  cluster_rounds->Increment(stats.cluster_response.size());
  latency->Add(stats.simulated_latency_ms);
  recovery->Set(stats.recovery_ms);
  rescale->Set(stats.global_rescale);
  for (const ClusterResponseStats& cluster : stats.cluster_response) {
    responders->Increment(cluster.n_responded);
    cluster_shed->Increment(cluster.n_shed);
    response_rate->Observe(cluster.response_rate);
    shed_fraction->Observe(
        cluster.n_expected == 0
            ? 0.0
            : static_cast<double>(cluster.n_shed) /
                  static_cast<double>(cluster.n_expected));
  }
}

StatusOr<PsdaResult> AggregationServer::Collect(
    std::vector<DeviceClient>* clients, ProtocolStats* stats) const {
  return RunEpoch(clients, EpochRunOptions(), stats);
}

StatusOr<PsdaResult> AggregationServer::RunEpoch(
    std::vector<DeviceClient>* clients, const EpochRunOptions& run,
    ProtocolStats* stats) const {
  return Execute(clients, run, /*restored=*/nullptr, /*restore_ms=*/0.0,
                 stats);
}

StatusOr<PsdaResult> AggregationServer::ResumeEpoch(
    std::vector<DeviceClient>* clients, const EpochRunOptions& run,
    ProtocolStats* stats) const {
  PLDP_CHECK(clients != nullptr);
  if (!run.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "ResumeEpoch needs a checkpoint directory to restore from");
  }
  Stopwatch timer;
  CheckpointStore store(run.checkpoint.dir, run.checkpoint.keep);
  PLDP_ASSIGN_OR_RETURN(const EpochCheckpoint checkpoint,
                        store.RestoreLatest());
  const double restore_ms = timer.ElapsedSeconds() * 1000.0;
  return Execute(clients, run, &checkpoint, restore_ms, stats);
}

StatusOr<PsdaResult> AggregationServer::Execute(
    std::vector<DeviceClient>* clients, const EpochRunOptions& run,
    const EpochCheckpoint* restored, double restore_ms,
    ProtocolStats* stats) const {
  PLDP_CHECK(clients != nullptr);
  if (clients->empty()) {
    return Status::InvalidArgument("protocol needs at least one client");
  }
  PLDP_SPAN("protocol.collect");
  // Phase spans: emplaced at a phase's start, reset at its end (early error
  // returns end whatever phase is open via the optional's destructor).
  std::optional<obs::ScopedSpan> phase_span;
  ProtocolStats local_stats;
  Stopwatch timer;

  FaultyChannel channel(fault_spec_);
  // On the reliable path the retry machinery must not change a single byte of
  // the transcript, so the budget collapses to one attempt.
  const uint32_t max_attempts =
      channel.active() ? std::max<uint32_t>(1, retry_policy_.max_attempts) : 1;
  Rng backoff_rng(SplitMix64(options_.seed ^ 0x7E57BACC0FF5A17ULL));
  const auto charge_backoff = [&](uint32_t attempt) {
    ++local_stats.retries;
    local_stats.simulated_latency_ms += JitteredBackoffMs(
        retry_policy_.base_backoff_ms, retry_policy_.backoff_multiplier,
        attempt, retry_policy_.jitter, &backoff_rng);
  };

  EpochAccumulator epoch(taxonomy_, options_, run.epoch, run.admission);
  if (restored != nullptr) {
    // On a resume the spec phase is skipped entirely: the roster is part of
    // the snapshot, and the plan is a deterministic function of it, so the
    // recovered run rebuilds the exact cluster layout the crashed run was
    // accumulating into.
    PLDP_RETURN_IF_ERROR(epoch.Restore(*restored, clients->size()));
    local_stats.restored_reports = epoch.restored();
    local_stats.recovery_ms = restore_ms;
  } else {
    // Algorithm 4, lines 1-3: collect the public specifications. Under fault
    // injection an upload can be lost or mangled; the server re-polls up to
    // the retry budget and excludes the client from the run when it is
    // exhausted (utility loss only; the client simply did not participate).
    phase_span.emplace("protocol.spec_phase");
    std::vector<PrivacySpec> specs;
    std::vector<uint32_t> roster;  // specs[k] came from (*clients)[roster[k]]
    specs.reserve(clients->size());
    roster.reserve(clients->size());
    for (uint32_t i = 0; i < clients->size(); ++i) {
      const DeviceClient& client = (*clients)[i];
      bool registered = false;
      for (uint32_t attempt = 0; attempt < max_attempts && !registered;
           ++attempt) {
        if (attempt > 0) charge_backoff(attempt);
        Delivery up = channel.Transfer(client.UploadSpec());
        local_stats.simulated_latency_ms += up.latency_ms;
        if (!up.delivered()) {
          CountLoss(up, &local_stats);
          continue;
        }
        // A duplicated registration is idempotent: both copies are accounted,
        // the first one is parsed.
        for (int copy = 0; copy < up.copies(); ++copy) {
          local_stats.bytes_to_server += up.bytes.size();
          ++local_stats.messages_to_server;
        }
        const StatusOr<SpecUploadMsg> msg = SpecUploadMsg::Parse(up.bytes);
        if (!msg.ok()) {
          ++local_stats.corrupt_parses;
          continue;
        }
        const PrivacySpec spec{msg->safe_region, msg->epsilon};
        // A corrupted upload can still parse; a spec the acceptance rule
        // refuses is treated exactly like a parse failure.
        if (!epoch.AcceptSpec(spec).ok()) {
          ++local_stats.corrupt_parses;
          continue;
        }
        specs.push_back(spec);
        roster.push_back(i);
        registered = true;
      }
      if (!registered) {
        ++local_stats.dropped_clients;
        PLDP_LOG(Warning) << "client " << i
                          << " dropped during spec collection after "
                          << max_attempts << " attempt(s)";
      }
    }
    phase_span.reset();
    if (specs.empty()) {
      return Status::DeadlineExceeded(
          "every client dropped out during spec collection");
    }
    // Lines 4-5: group by safe region, cluster the groups, and plan one
    // PCEP per cluster.
    PLDP_RETURN_IF_ERROR(
        epoch.Seal(std::move(roster), std::move(specs), clients->size()));
  }
  local_stats.spec_responders = epoch.roster().size();

  // Durable snapshots: write-to-temp + atomic rename, numbered files, pruned
  // past the retention limit. Everything staged is folded first, so the
  // snapshot holds every report accepted so far.
  std::optional<CheckpointStore> store;
  if (run.checkpoint.enabled()) {
    store.emplace(run.checkpoint.dir, run.checkpoint.keep);
  }
  const auto save_snapshot = [&]() -> Status {
    epoch.Fold();
    return store->Save(epoch.Snapshot());
  };

  // Lines 6-9: one message-level PCEP per cluster. The walk is the canonical
  // order, so staging here and folding at each checkpoint and at publish
  // adds every cluster's reports in the order they arrive.
  phase_span.emplace("protocol.pcep_phase");
  const std::vector<Cluster>& clusters = epoch.plan().clustering.clusters;
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (const uint32_t g : clusters[c].groups) {
      for (const uint32_t slot : epoch.groups()[g].members) {
        if (epoch.Seen(slot)) {
          continue;  // restored from the checkpoint; never re-exchanged
        }
        // Admission control: refuse the report before any exchange when the
        // virtual ingest queue is saturated. A shed report is graceful
        // degradation — the cluster's rescaling treats it exactly like a
        // dropout, so accuracy degrades per the Theorem 4.5 error model
        // instead of the server falling over.
        if (epoch.Admit(slot) == EpochAccumulator::Verdict::kShed) {
          ++local_stats.shed_reports;
          continue;
        }
        const uint32_t user_index = epoch.roster()[slot];
        DeviceClient& client = (*clients)[user_index];
        std::vector<uint8_t> down_bytes;
        epoch.AppendAssignment(slot, &down_bytes);

        bool accumulated = false;
        bool refused = false;
        for (uint32_t attempt = 0;
             attempt < max_attempts && !accumulated && !refused; ++attempt) {
          if (attempt > 0) charge_backoff(attempt);
          Delivery down = channel.Transfer(down_bytes);
          local_stats.simulated_latency_ms += down.latency_ms;
          if (!down.delivered()) {
            CountLoss(down, &local_stats);
            continue;
          }
          // A duplicated downlink reaches the device twice; it answers the
          // second copy from its cached report (never a second perturbation).
          for (int copy = 0; copy < down.copies() && !refused; ++copy) {
            local_stats.bytes_to_clients += down.bytes.size();
            ++local_stats.messages_to_clients;
            StatusOr<std::vector<uint8_t>> reply =
                client.HandleRowAssignment(down.bytes);
            if (!reply.ok()) {
              if (reply.status().code() == StatusCode::kFailedPrecondition &&
                  !down.corrupted && !down.truncated) {
                // The device refused the very bytes the server sent, so the
                // refusal is deterministic: identical bytes can never
                // succeed, and retrying would only burn budget. A refusal of
                // a *mangled* copy proves nothing - the clean retransmission
                // may well be accepted - so that case falls through to the
                // retry path below.
                ++local_stats.refused_assignments;
                refused = true;
                break;
              }
              // Mangled assignment rejected by the device's validation.
              ++local_stats.corrupt_parses;
              continue;
            }
            Delivery up = channel.Transfer(std::move(reply).value());
            local_stats.simulated_latency_ms += up.latency_ms;
            if (!up.delivered()) {
              CountLoss(up, &local_stats);
              continue;
            }
            for (int up_copy = 0; up_copy < up.copies(); ++up_copy) {
              local_stats.bytes_to_server += up.bytes.size();
              ++local_stats.messages_to_server;
              const StatusOr<ReportMsg> report = ReportMsg::Parse(up.bytes);
              if (!report.ok()) {
                ++local_stats.corrupt_parses;
                continue;
              }
              if (accumulated) {
                // Dedup by (user, row): this user's report is already staged.
                ++local_stats.duplicate_reports;
                continue;
              }
              epoch.Stage(slot, report->positive);
              accumulated = true;
            }
          }
        }
        if (!accumulated) {
          ++local_stats.dropped_clients;
          PLDP_LOG(Warning)
              << "client " << user_index << " dropped during PCEP of cluster "
              << c << (refused ? " (refused assignment)"
                              : " (transport failure after retries)");
          continue;
        }
        // Chaos hook first, cadence second: when a kill point coincides with
        // the snapshot cadence the crash wins, so the report at the kill
        // point is never already durable — the most adversarial recovery.
        if (run.crash_after_ingests > 0 &&
            epoch.total_ingested() >= run.crash_after_ingests) {
          phase_span.reset();
          if (stats != nullptr) *stats = local_stats;
          return Status::Aborted(
              "injected crash after " +
              std::to_string(epoch.total_ingested()) + " ingested reports");
        }
        if (store.has_value() && run.checkpoint.every_n_reports > 0 &&
            epoch.total_ingested() % run.checkpoint.every_n_reports == 0) {
          PLDP_RETURN_IF_ERROR(save_snapshot());
        }
      }
    }
  }
  phase_span.reset();

  // The final snapshot makes the fully ingested epoch durable before decode:
  // a crash between ingest and publish recovers with zero re-exchanges.
  if (store.has_value()) {
    PLDP_RETURN_IF_ERROR(save_snapshot());
  }

  // Decode every cluster, combine, and enforce consistency (line 10).
  phase_span.emplace("protocol.decode_phase");
  PLDP_ASSIGN_OR_RETURN(PsdaResult result, epoch.Publish());
  phase_span.reset();
  local_stats.global_rescale = result.global_rescale;
  local_stats.cluster_response = result.cluster_response;

  result.server_seconds = timer.ElapsedSeconds();
  PublishProtocolStats(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return result;
}

}  // namespace pldp
