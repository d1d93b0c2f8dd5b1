#include "cli/cli.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <iomanip>
#include <memory>
#include <thread>

#include "baselines/uniform_grid.h"
#include "core/psda.h"
#include "data/loader.h"
#include "data/spec_assignment.h"
#include "data/synthetic.h"
#include "eval/accuracy.h"
#include "eval/chaos.h"
#include "eval/degradation.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "geo/taxonomy.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/epoch_engine.h"
#include "net/server.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "util/csv.h"

namespace pldp {
namespace {

StatusOr<double> FlagDouble(const std::string& flag, const std::string& value) {
  const StatusOr<double> parsed = ParseDouble(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument(flag + ": " + parsed.status().message());
  }
  return parsed.value();
}

Status ParseCsvDoubles(const std::string& flag, const std::string& value,
                       size_t count, double* out) {
  const std::vector<std::string> fields = SplitCsvLine(value);
  if (fields.size() != count) {
    return Status::InvalidArgument(flag + ": expected " +
                                   std::to_string(count) + " comma-separated "
                                   "values");
  }
  for (size_t i = 0; i < count; ++i) {
    PLDP_ASSIGN_OR_RETURN(out[i], FlagDouble(flag, fields[i]));
  }
  return Status::OK();
}

StatusOr<std::vector<UserRecord>> BuildCohort(const CliOptions& options,
                                              const SpatialTaxonomy& taxonomy,
                                              const std::vector<CellId>& cells) {
  SafeRegionDistribution safe_regions;
  EpsilonDistribution epsilons;
  if (options.setting == "S1E1") {
    safe_regions = SafeRegionsS1();
    epsilons = EpsilonsE1();
  } else if (options.setting == "S1E2") {
    safe_regions = SafeRegionsS1();
    epsilons = EpsilonsE2();
  } else if (options.setting == "S2E1") {
    safe_regions = SafeRegionsS2();
    epsilons = EpsilonsE1();
  } else if (options.setting == "S2E2") {
    safe_regions = SafeRegionsS2();
    epsilons = EpsilonsE2();
  } else {
    return Status::InvalidArgument("unknown --setting: " + options.setting);
  }
  return AssignSpecs(taxonomy, cells, safe_regions, epsilons,
                     options.seed ^ 0x5E771265);
}

StatusOr<std::vector<double>> RunNamedScheme(const CliOptions& options,
                                             const SpatialTaxonomy& taxonomy,
                                             const std::vector<UserRecord>& users) {
  if (options.scheme == "ug") {
    UniformGridBaselineOptions ug;
    ug.beta = options.beta;
    ug.seed = options.seed;
    return RunUniformGridBaseline(taxonomy, users, ug);
  }
  Scheme scheme = Scheme::kPsda;
  if (options.scheme == "psda") {
    scheme = Scheme::kPsda;
  } else if (options.scheme == "kdtree") {
    scheme = Scheme::kKdTree;
  } else if (options.scheme == "cloak") {
    scheme = Scheme::kCloak;
  } else if (options.scheme == "sr") {
    scheme = Scheme::kSr;
  } else {
    return Status::InvalidArgument("unknown --scheme: " + options.scheme);
  }
  return RunScheme(scheme, taxonomy, users, options.beta, options.seed);
}

StatusOr<Dataset> LoadCliDataset(const CliOptions& options) {
  Dataset dataset;
  if (!options.input_csv.empty()) {
    PLDP_ASSIGN_OR_RETURN(dataset.points, LoadPointsCsv(options.input_csv));
    dataset.name = options.input_csv;
    dataset.domain = BoundingBox{options.domain[0], options.domain[1],
                                 options.domain[2], options.domain[3]};
    if (!dataset.domain.IsValid()) {
      return Status::InvalidArgument(
          "--input requires a valid --domain min_lon,min_lat,max_lon,max_lat");
    }
    dataset.cell_width = options.cell_width;
    dataset.cell_height = options.cell_height;
  } else if (!options.dataset.empty()) {
    PLDP_ASSIGN_OR_RETURN(
        dataset, GenerateByName(options.dataset, options.scale, options.seed));
  } else {
    return Status::InvalidArgument(options.command +
                                   " needs --dataset or --input");
  }
  return dataset;
}

Status RunCommand(const CliOptions& options, std::ostream& out) {
  PLDP_ASSIGN_OR_RETURN(Dataset dataset, LoadCliDataset(options));
  PLDP_ASSIGN_OR_RETURN(UniformGrid grid, dataset.MakeGrid());
  PLDP_ASSIGN_OR_RETURN(SpatialTaxonomy taxonomy,
                        SpatialTaxonomy::Build(grid, 4));
  const std::vector<CellId> cells = dataset.ToCells(grid);
  const std::vector<double> truth = dataset.TrueHistogram(grid);
  PLDP_ASSIGN_OR_RETURN(std::vector<UserRecord> users,
                        BuildCohort(options, taxonomy, cells));

  out << "dataset: " << dataset.name << " (" << dataset.num_users()
      << " users, " << grid.num_cells() << " cells)\n";
  out << "scheme: " << options.scheme << ", setting: " << options.setting
      << ", beta: " << options.beta << ", seed: " << options.seed << "\n";

  // When collection is on, estimate quality is scored against the taxonomy
  // and published as accuracy.* metrics so run reports (and the benchdiff
  // trajectory) track utility alongside latency. PSDA runs directly so the
  // clustering is available for the per-cluster KL and Theorem 4.5 checks.
  const bool score_accuracy = obs::MetricsRegistry::Global().enabled();
  std::vector<double> counts;
  if (options.scheme == "psda") {
    PsdaOptions psda_options;
    psda_options.beta = options.beta;
    psda_options.seed = options.seed;
    psda_options.num_threads = options.threads;
    PLDP_ASSIGN_OR_RETURN(PsdaResult result,
                          RunPsda(taxonomy, users, psda_options));
    if (score_accuracy) {
      PLDP_ASSIGN_OR_RETURN(
          const AccuracySummary accuracy,
          ComputePsdaAccuracy(taxonomy, truth, result, options.beta));
      PublishAccuracy(accuracy);
    }
    counts = std::move(result.counts);
  } else {
    PLDP_ASSIGN_OR_RETURN(counts, RunNamedScheme(options, taxonomy, users));
    if (score_accuracy) {
      PLDP_ASSIGN_OR_RETURN(const AccuracySummary accuracy,
                            ComputeAccuracy(taxonomy, truth, counts));
      PublishAccuracy(accuracy);
    }
  }

  PLDP_ASSIGN_OR_RETURN(const double mae, MaxAbsoluteError(truth, counts));
  PLDP_ASSIGN_OR_RETURN(const double kl, KlDivergence(truth, counts));
  out << std::fixed << std::setprecision(4);
  out << "max absolute error: " << mae << "\n";
  out << "KL divergence:      " << kl << "\n";

  if (!options.output_csv.empty()) {
    PLDP_RETURN_IF_ERROR(WriteCountsCsv(options.output_csv, grid, counts));
    out << "estimate written to " << options.output_csv << "\n";
  }
  if (!options.truth_output_csv.empty()) {
    PLDP_RETURN_IF_ERROR(
        WriteCountsCsv(options.truth_output_csv, grid, truth));
    out << "truth written to " << options.truth_output_csv << "\n";
  }
  return Status::OK();
}

Status RunDegradeCommand(const CliOptions& options, std::ostream& out) {
  PLDP_ASSIGN_OR_RETURN(Dataset dataset, LoadCliDataset(options));
  PLDP_ASSIGN_OR_RETURN(UniformGrid grid, dataset.MakeGrid());
  PLDP_ASSIGN_OR_RETURN(SpatialTaxonomy taxonomy,
                        SpatialTaxonomy::Build(grid, 4));
  const std::vector<CellId> cells = dataset.ToCells(grid);
  PLDP_ASSIGN_OR_RETURN(std::vector<UserRecord> users,
                        BuildCohort(options, taxonomy, cells));

  DegradationOptions sweep;
  sweep.dropout_rates =
      UniformDropoutGrid(options.dropout_max, options.dropout_steps);
  sweep.runs_per_rate = options.runs;
  sweep.seed = options.seed;
  sweep.psda.beta = options.beta;
  sweep.retry.max_attempts = options.retries;

  out << "dataset: " << dataset.name << " (" << dataset.num_users()
      << " users, " << grid.num_cells() << " cells)\n";
  out << "degradation sweep: dropout 0.." << options.dropout_max << " in "
      << options.dropout_steps << " steps, " << options.runs
      << " run(s) per rate, " << options.retries << " attempt(s) per message\n";

  PLDP_ASSIGN_OR_RETURN(const std::vector<DegradationPoint> points,
                        RunDegradationSweep(taxonomy, users, sweep));

  out << std::fixed << std::setprecision(4);
  out << "   dropout    mean MAE    mean rel err    response    retries\n";
  for (size_t i = 0; i < points.size();) {
    const double rate = points[i].dropout_rate;
    double mae = 0.0, rel = 0.0, resp = 0.0;
    uint64_t retries = 0;
    size_t count = 0;
    for (; i < points.size() && points[i].dropout_rate == rate; ++i, ++count) {
      mae += points[i].mean_abs_error;
      rel += points[i].mean_rel_error;
      resp += points[i].response_rate;
      retries += points[i].retries;
    }
    const double denom = static_cast<double>(count);
    out << "    " << rate << "    " << mae / denom << "      " << rel / denom
        << "        " << resp / denom << "    " << retries / count << "\n";
  }

  if (!options.output_csv.empty()) {
    PLDP_RETURN_IF_ERROR(WriteDegradationCsv(options.output_csv, points));
    out << "degradation sweep written to " << options.output_csv << "\n";
  }
  return Status::OK();
}

Status RunChaosCommand(const CliOptions& options, std::ostream& out) {
  PLDP_ASSIGN_OR_RETURN(Dataset dataset, LoadCliDataset(options));
  PLDP_ASSIGN_OR_RETURN(UniformGrid grid, dataset.MakeGrid());
  PLDP_ASSIGN_OR_RETURN(SpatialTaxonomy taxonomy,
                        SpatialTaxonomy::Build(grid, 4));
  const std::vector<CellId> cells = dataset.ToCells(grid);
  PLDP_ASSIGN_OR_RETURN(std::vector<UserRecord> users,
                        BuildCohort(options, taxonomy, cells));

  ChaosOptions chaos;
  chaos.epochs = options.epochs;
  chaos.seed = options.seed;
  chaos.psda.beta = options.beta;
  chaos.retry.max_attempts = options.retries;
  chaos.faults.crash_probability = options.crash_prob;
  chaos.checkpoint_dir = options.ckpt_dir;
  chaos.checkpoint_every = options.ckpt_every;
  if (options.shed > 0.0) {
    // Overload model: the server frees only (1 - shed) reports' worth of
    // capacity per arrival behind a bounded queue, so ~shed of the load is
    // refused and compensated through n_resp rescaling.
    chaos.admission.max_queue_depth = 64;
    chaos.admission.service_per_arrival = 1.0 - options.shed;
  }

  out << "dataset: " << dataset.name << " (" << dataset.num_users()
      << " users, " << grid.num_cells() << " cells)\n";
  out << "chaos sweep: " << options.epochs << " epoch(s), checkpoint every "
      << options.ckpt_every << " report(s) into " << options.ckpt_dir
      << ", crash-prob " << options.crash_prob << ", shed " << options.shed
      << "\n";

  PLDP_ASSIGN_OR_RETURN(const std::vector<ChaosEpochResult> results,
                        RunChaosSweep(taxonomy, users, chaos));

  out << std::fixed << std::setprecision(4);
  out << "   epoch    kill@    restored    recovery ms    shed    "
         "max |diff|    verdict\n";
  uint32_t identical = 0, within = 0;
  for (const ChaosEpochResult& r : results) {
    out << "    " << r.epoch << "    " << r.crash_after << "    "
        << r.restored_reports << (r.restarted_from_scratch ? " (restart)" : "")
        << "    " << r.recovery_ms << "    " << r.shed_reports << "    "
        << r.max_abs_diff << "    "
        << (r.identical ? "bit-identical"
                        : r.within_bound ? "within bound" : "OUT OF BOUND")
        << "\n";
    identical += r.identical ? 1 : 0;
    within += r.within_bound ? 1 : 0;
  }
  out << identical << "/" << results.size() << " epoch(s) bit-identical, "
      << within << "/" << results.size() << " within the Theorem 4.5 "
      << "envelope\n";
  if (within != results.size()) {
    return Status::Internal(
        "chaos recovery produced estimates outside the error envelope");
  }

  if (!options.output_csv.empty()) {
    PLDP_RETURN_IF_ERROR(WriteChaosCsv(options.output_csv, results));
    out << "chaos sweep written to " << options.output_csv << "\n";
  }
  return Status::OK();
}

// Describes the run for the observability manifest: every flag that shaped
// the computation, in the order the usage text lists them.
obs::RunManifest BuildCliManifest(const CliOptions& options) {
  obs::RunManifest manifest;
  manifest.tool = "pldp_cli";
  manifest.command = options.command;
  if (!options.input_csv.empty()) {
    manifest.AddParam("input", options.input_csv);
  } else {
    manifest.AddParam("dataset", options.dataset);
    manifest.AddParam("scale", options.scale);
  }
  manifest.AddParam("scheme", options.scheme);
  manifest.AddParam("setting", options.setting);
  manifest.AddParam("beta", options.beta);
  manifest.AddParam("seed", options.seed);
  manifest.AddParam("threads", static_cast<uint64_t>(options.threads));
  if (options.command == "degrade") {
    manifest.AddParam("dropout_max", options.dropout_max);
    manifest.AddParam("dropout_steps",
                      static_cast<uint64_t>(options.dropout_steps));
    manifest.AddParam("runs", static_cast<uint64_t>(options.runs));
    manifest.AddParam("retries", static_cast<uint64_t>(options.retries));
  }
  if (options.command == "chaos") {
    manifest.AddParam("epochs", static_cast<uint64_t>(options.epochs));
    manifest.AddParam("ckpt_every", options.ckpt_every);
    manifest.AddParam("crash_prob", options.crash_prob);
    manifest.AddParam("shed", options.shed);
    manifest.AddParam("retries", static_cast<uint64_t>(options.retries));
  }
  if (options.command == "serve") {
    manifest.AddParam("bind", options.bind);
    manifest.AddParam("port", static_cast<uint64_t>(options.port));
    manifest.AddParam("io_threads", static_cast<uint64_t>(options.io_threads));
    manifest.AddParam("epoch", options.epoch);
    manifest.AddParam("shed", options.shed);
    if (options.admin_port_set) {
      manifest.AddParam("admin_port", static_cast<uint64_t>(options.admin_port));
    }
    if (!options.flight_out.empty()) {
      manifest.AddParam("flight_out", options.flight_out);
      manifest.AddParam("flight_events", options.flight_events);
    }
  }
  return manifest;
}

bool HasSuffix(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Writes the collection accumulated since EnableCollection; the path suffix
// picks the exporter: .csv flat metric dump, .prom Prometheus text
// exposition, .trace.json Chrome trace_event JSON, anything else the full
// pldp.run_report/1 JSON.
Status WriteCliMetrics(const CliOptions& options, std::ostream& out) {
  const std::string& path = options.metrics_out;
  Status status = Status::OK();
  if (HasSuffix(path, ".csv")) {
    status =
        obs::WriteMetricsCsv(path, obs::MetricsRegistry::Global().Snapshot());
  } else if (HasSuffix(path, ".prom")) {
    status = obs::WritePrometheusTextFile(
        path, obs::MetricsRegistry::Global().Snapshot());
  } else if (HasSuffix(path, ".trace.json")) {
    status = obs::WriteChromeTraceFile(path);
  } else {
    status = obs::WriteRunReportJson(path, BuildCliManifest(options));
  }
  if (status.ok()) out << "metrics written to " << path << "\n";
  return status;
}

/// A handler may run on any thread while the serve loop reads its flag on
/// another, so the flags are atomics; lock-free ones are async-signal-safe.
static_assert(std::atomic<bool>::is_always_lock_free);

/// Set by the SIGTERM/SIGINT handler while `serve` runs; the serve loop
/// polls it (the handler only stores a flag).
std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int) { g_serve_stop.store(true); }

/// Set by the SIGUSR1 handler; the serve loop performs the actual flight
/// recorder dump (file I/O never happens in the handler).
std::atomic<bool> g_serve_dump{false};

void HandleDumpSignal(int) { g_serve_dump.store(true); }

Status RunServeCommand(const CliOptions& options, std::ostream& out) {
  PLDP_ASSIGN_OR_RETURN(Dataset dataset, LoadCliDataset(options));
  PLDP_ASSIGN_OR_RETURN(UniformGrid grid, dataset.MakeGrid());
  PLDP_ASSIGN_OR_RETURN(SpatialTaxonomy taxonomy,
                        SpatialTaxonomy::Build(grid, 4));

  net::EpochEngineOptions engine_options;
  engine_options.psda.beta = options.beta;
  engine_options.psda.seed = options.seed;
  engine_options.psda.num_threads = options.threads;
  engine_options.epoch = options.epoch;
  if (options.ckpt_dir_set) {
    engine_options.checkpoint.dir = options.ckpt_dir;
  }
  if (options.shed > 0.0) {
    engine_options.admission.max_queue_depth = 64;
    engine_options.admission.service_per_arrival = 1.0 - options.shed;
  }
  net::EpochEngine engine(&taxonomy, engine_options);
  if (options.resume) {
    PLDP_RETURN_IF_ERROR(engine.RestoreLatest());
    out << "resumed epoch " << options.epoch << " from " << options.ckpt_dir
        << " (" << engine.stats().restored_reports
        << " reports restored)\n";
  }

  // The flight recorder must be live before the first connection so the
  // earliest frames land in the ring; the ring is sized up front and never
  // reallocated while the I/O threads record into it.
  auto& recorder = obs::FlightRecorder::Global();
  const bool flight_enabled = !options.flight_out.empty();
  if (flight_enabled) {
    recorder.Enable(static_cast<size_t>(options.flight_events));
    out << "flight recorder enabled: " << recorder.capacity()
        << " event ring, dumping to " << options.flight_out << "\n";
  }

  // Handlers go in before the listening banner: anything scripting the
  // daemon keys on that line, and may signal immediately after seeing it.
  g_serve_stop.store(false);
  g_serve_dump.store(false);
  void (*prev_term)(int) = std::signal(SIGTERM, HandleServeSignal);
  void (*prev_int)(int) = std::signal(SIGINT, HandleServeSignal);
  void (*prev_usr1)(int) = std::signal(SIGUSR1, HandleDumpSignal);
  const auto restore_signals = [&] {
    std::signal(SIGTERM, prev_term);
    std::signal(SIGINT, prev_int);
    std::signal(SIGUSR1, prev_usr1);
  };

  net::NetServerOptions server_options;
  server_options.bind_address = options.bind;
  server_options.port = static_cast<uint16_t>(options.port);
  server_options.backlog = static_cast<int>(options.backlog);
  server_options.io_threads = options.io_threads;
  net::NetServer server(&engine, server_options);
  const Status server_started = server.Start();
  if (!server_started.ok()) {
    restore_signals();
    return server_started;
  }
  // Scripts scrape this line for the (possibly kernel-assigned) port.
  out << "pldp daemon listening on " << options.bind << ":" << server.port()
      << " (" << net::ResolveIoThreads(server_options.io_threads)
      << " io threads, " << grid.num_cells() << " cells)\n";
  out.flush();

  // The admin endpoint serves the live registry and the same status snapshot
  // the kStatsResponse frame carries; it runs on its own listener + thread so
  // a scrape never competes with data-plane epoll work.
  std::unique_ptr<net::AdminServer> admin;
  if (options.admin_port_set) {
    net::AdminServerOptions admin_options;
    admin_options.bind_address = options.bind;
    admin_options.port = static_cast<uint16_t>(options.admin_port);
    admin = std::make_unique<net::AdminServer>(
        admin_options,
        [&server] { return net::RenderStatusJson(server.ServiceStats()); });
    const Status admin_started = admin->Start();
    if (!admin_started.ok()) {
      server.Stop();
      restore_signals();
      return admin_started;
    }
    // Same scrapeable shape as the daemon line above.
    out << "admin endpoint listening on " << options.bind << ":"
        << admin->port() << "\n";
    out.flush();
  }

  const auto dump_flight = [&](const char* why) {
    if (!flight_enabled) return;
    const Status dumped = recorder.DumpChromeTrace(options.flight_out);
    if (dumped.ok()) {
      out << "flight recorder dump (" << why << "): " << options.flight_out
          << " (" << recorder.recorded() << " recorded, "
          << recorder.overwritten() << " overwritten)\n";
      out.flush();
    } else {
      out << "flight recorder dump failed: " << dumped.ToString() << "\n";
    }
  };

  while (!g_serve_stop.load()) {
    if (options.serve_once &&
        engine.phase() == net::EpochEngine::Phase::kPublished) {
      // The client that sealed still has to fetch the estimates: stay up
      // until they were sent once, or until no client is left to ask.
      const net::NetServerStats sockets = server.stats();
      if (sockets.estimates_sent > 0 ||
          sockets.connections_closed == sockets.connections_accepted) {
        break;
      }
    }
    if (g_serve_dump.exchange(false)) {
      dump_flight("SIGUSR1");
    }
    if (recorder.ConsumeDumpRequest()) {
      // A recording site (decoder poison) asked for a dump; the serve loop
      // does the file I/O so the hot path never blocks on disk.
      dump_flight("poison");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const bool interrupted = g_serve_stop.load();
  restore_signals();
  if (admin) admin->Stop();
  server.Stop();
  dump_flight("shutdown");

  const net::NetServerStats socket_stats = server.stats();
  const net::NetEpochStats epoch_stats = engine.stats();
  out << "connections: " << socket_stats.connections_accepted << " accepted, "
      << socket_stats.frame_errors << " protocol errors\n";
  out << "frames: " << socket_stats.frames_received << " in / "
      << socket_stats.frames_sent << " out (" << socket_stats.bytes_received
      << " / " << socket_stats.bytes_sent << " bytes)\n";
  out << "reports: " << epoch_stats.reports_staged << " staged, "
      << epoch_stats.reports_duplicate << " duplicate, "
      << epoch_stats.reports_shed << " shed, " << epoch_stats.late_frames
      << " late\n";

  if (interrupted &&
      engine.phase() == net::EpochEngine::Phase::kCollectingReports &&
      engine_options.checkpoint.enabled()) {
    // Graceful SIGTERM mid-epoch: flush a durable snapshot so a --resume
    // restart picks up without re-collecting the staged reports.
    PLDP_RETURN_IF_ERROR(engine.Checkpoint());
    out << "checkpoint flushed to " << options.ckpt_dir << "\n";
  }
  if (engine.phase() == net::EpochEngine::Phase::kPublished) {
    out << "epoch published: " << engine.published().size() << " cells\n";
    if (!options.output_csv.empty()) {
      PLDP_RETURN_IF_ERROR(
          WriteCountsCsv(options.output_csv, grid, engine.published()));
      out << "estimate written to " << options.output_csv << "\n";
    }
  }
  return Status::OK();
}

const char* StatPhaseName(uint8_t phase) {
  switch (phase) {
    case 0:
      return "collecting specs";
    case 1:
      return "collecting reports";
    case 2:
      return "published";
    case 3:
      return "sealing";
  }
  return "unknown";
}

/// Renders one status frame as the single-screen `pldp_cli stat` view.
/// `reports_per_sec` < 0 means "no previous sample to difference against".
void RenderStatScreen(std::ostream& out, const std::string& target,
                      const net::StatsBody& stats, double reports_per_sec) {
  out << "pldp daemon " << target << " — " << StatPhaseName(stats.phase)
      << (stats.draining ? " (draining)" : "") << ", up "
      << stats.uptime_ms / 1000 << "." << std::setw(1)
      << (stats.uptime_ms % 1000) / 100 << "s\n";
  out << "  epoch    cohort " << stats.cohort_size << ", responders "
      << stats.spec_responders << ", clusters " << stats.num_clusters
      << ", published cells " << stats.published_cells << "\n";
  out << "  specs    " << stats.specs_accepted << " accepted, "
      << stats.specs_duplicate << " duplicate, " << stats.specs_invalid
      << " invalid\n";
  out << "  reports  " << stats.reports_staged << " staged, "
      << stats.reports_folded << " folded, " << stats.reports_shed
      << " shed, " << stats.reports_duplicate << " duplicate, "
      << stats.late_frames << " late";
  if (reports_per_sec >= 0.0) {
    out << "  (+" << static_cast<uint64_t>(reports_per_sec) << "/s)";
  }
  out << "\n";
  out << "  anomaly  " << stats.unknown_user_frames << " unknown-user, "
      << stats.wrong_phase_frames << " wrong-phase, " << stats.frame_errors
      << " protocol errors\n";
  out << "  durable  " << stats.checkpoints_written << " checkpoints, "
      << stats.restored_reports << " restored reports\n";
  out << "  sockets  " << stats.connections_accepted << " accepted / "
      << stats.connections_closed << " closed, " << stats.frames_received
      << " frames in / " << stats.frames_sent << " out, "
      << stats.bytes_received << " B in / " << stats.bytes_sent << " B out\n";
  out.flush();
}

Status RunStatCommand(const CliOptions& options, std::ostream& out) {
  if (options.connect.empty()) {
    return Status::InvalidArgument("stat needs --connect host:port");
  }
  const size_t colon = options.connect.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= options.connect.size()) {
    return Status::InvalidArgument("--connect wants host:port, got " +
                                   options.connect);
  }
  const std::string host = options.connect.substr(0, colon);
  PLDP_ASSIGN_OR_RETURN(const uint64_t port,
                        ParseUint64(options.connect.substr(colon + 1)));
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument("--connect port out of range");
  }

  net::NetClient client;
  PLDP_RETURN_IF_ERROR(client.Connect(host, static_cast<uint16_t>(port)));
  PLDP_ASSIGN_OR_RETURN(net::StatsBody stats, client.FetchStats());
  RenderStatScreen(out, options.connect, stats, -1.0);
  if (options.watch == 0) return Status::OK();

  // Watch mode: re-render every --watch seconds over the same connection,
  // differencing reports_staged into a live rate. Ctrl-C exits cleanly.
  g_serve_stop.store(false);
  void (*prev_int)(int) = std::signal(SIGINT, HandleServeSignal);
  uint64_t prev_staged = stats.reports_staged;
  Status status = Status::OK();
  while (!g_serve_stop.load()) {
    for (uint32_t waited = 0;
         waited < options.watch * 10u && !g_serve_stop.load(); ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_serve_stop.load()) break;
    const StatusOr<net::StatsBody> next = client.FetchStats();
    if (!next.ok()) {
      status = next.status();
      break;
    }
    const double rate =
        static_cast<double>(next->reports_staged - prev_staged) /
        static_cast<double>(options.watch);
    prev_staged = next->reports_staged;
    out << "\x1b[2J\x1b[H";  // clear + home: single-screen live view
    RenderStatScreen(out, options.connect, *next, rate);
  }
  std::signal(SIGINT, prev_int);
  return status;
}

}  // namespace

std::string CliUsage() {
  return "usage: pldp_cli <datasets|schemes|run|degrade|chaos|serve|stat> "
         "[flags]\n"
         "  run --dataset road --scheme psda --setting S2E2 --scale 0.05 \\\n"
         "      --output counts.csv\n"
         "  run --input points.csv --domain -125,25,-65,50 --cell 1,1 \\\n"
         "      --scheme psda --output counts.csv\n"
         "  degrade --dataset storage --scale 0.5 --dropout-max 0.5 \\\n"
         "      --dropout-steps 10 --runs 5 --output degradation.csv \\\n"
         "      --metrics-out run.json\n"
         "  chaos --dataset road --scale 0.02 --epochs 3 --ckpt-every 16 \\\n"
         "      --ckpt-dir chaos-ckpt --shed 0.1 --output chaos.csv\n"
         "  serve --dataset road --scale 0.05 --port 7787 --io-threads 2 \\\n"
         "      --ckpt-dir net-ckpt --once --output counts.csv \\\n"
         "      --admin-port 7788 --flight-out flight.json\n"
         "  stat --connect 127.0.0.1:7787 --watch 2\n";
}

StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("missing command\n" + CliUsage());
  }
  CliOptions options;
  options.command = args[0];
  if (options.command != "datasets" && options.command != "schemes" &&
      options.command != "run" && options.command != "degrade" &&
      options.command != "chaos" && options.command != "serve" &&
      options.command != "stat") {
    return Status::InvalidArgument("unknown command: " + options.command +
                                   "\n" + CliUsage());
  }
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return args[++i];
    };
    if (flag == "--dataset") {
      PLDP_ASSIGN_OR_RETURN(options.dataset, next());
    } else if (flag == "--input") {
      PLDP_ASSIGN_OR_RETURN(options.input_csv, next());
    } else if (flag == "--domain") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_RETURN_IF_ERROR(
          ParseCsvDoubles(flag, value, 4, options.domain));
    } else if (flag == "--cell") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      double wh[2];
      PLDP_RETURN_IF_ERROR(ParseCsvDoubles(flag, value, 2, wh));
      options.cell_width = wh[0];
      options.cell_height = wh[1];
    } else if (flag == "--scheme") {
      PLDP_ASSIGN_OR_RETURN(options.scheme, next());
    } else if (flag == "--setting") {
      PLDP_ASSIGN_OR_RETURN(options.setting, next());
    } else if (flag == "--scale") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.scale, FlagDouble(flag, value));
    } else if (flag == "--beta") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.beta, FlagDouble(flag, value));
    } else if (flag == "--seed") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.seed, ParseUint64(value));
    } else if (flag == "--threads") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t threads, ParseUint64(value));
      options.threads = static_cast<uint32_t>(threads);
    } else if (flag == "--output") {
      PLDP_ASSIGN_OR_RETURN(options.output_csv, next());
    } else if (flag == "--truth-output") {
      PLDP_ASSIGN_OR_RETURN(options.truth_output_csv, next());
    } else if (flag == "--metrics-out") {
      PLDP_ASSIGN_OR_RETURN(options.metrics_out, next());
    } else if (flag == "--dropout-max") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.dropout_max, FlagDouble(flag, value));
    } else if (flag == "--dropout-steps") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t steps, ParseUint64(value));
      options.dropout_steps = static_cast<uint32_t>(steps);
    } else if (flag == "--runs") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t runs, ParseUint64(value));
      options.runs = static_cast<uint32_t>(runs);
    } else if (flag == "--retries") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t retries, ParseUint64(value));
      options.retries = static_cast<uint32_t>(retries);
    } else if (flag == "--epochs") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t epochs, ParseUint64(value));
      options.epochs = static_cast<uint32_t>(epochs);
    } else if (flag == "--ckpt-dir") {
      PLDP_ASSIGN_OR_RETURN(options.ckpt_dir, next());
      options.ckpt_dir_set = true;
    } else if (flag == "--ckpt-every") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.ckpt_every, ParseUint64(value));
    } else if (flag == "--crash-prob") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.crash_prob, FlagDouble(flag, value));
    } else if (flag == "--shed") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.shed, FlagDouble(flag, value));
    } else if (flag == "--bind") {
      PLDP_ASSIGN_OR_RETURN(options.bind, next());
    } else if (flag == "--port") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t port, ParseUint64(value));
      if (port > 65535) {
        return Status::InvalidArgument("--port out of range");
      }
      options.port = static_cast<uint32_t>(port);
    } else if (flag == "--backlog") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t backlog, ParseUint64(value));
      options.backlog = static_cast<uint32_t>(backlog);
    } else if (flag == "--io-threads") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t io_threads, ParseUint64(value));
      options.io_threads = static_cast<uint32_t>(io_threads);
    } else if (flag == "--epoch") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.epoch, ParseUint64(value));
    } else if (flag == "--resume") {
      options.resume = true;
    } else if (flag == "--once") {
      options.serve_once = true;
    } else if (flag == "--admin-port") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t admin_port, ParseUint64(value));
      if (admin_port > 65535) {
        return Status::InvalidArgument("--admin-port out of range");
      }
      options.admin_port = static_cast<uint32_t>(admin_port);
      options.admin_port_set = true;
    } else if (flag == "--flight-out") {
      PLDP_ASSIGN_OR_RETURN(options.flight_out, next());
    } else if (flag == "--flight-events") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(options.flight_events, ParseUint64(value));
      if (options.flight_events == 0 ||
          options.flight_events > (uint64_t{1} << 24)) {
        return Status::InvalidArgument(
            "--flight-events wants 1..16777216 ring slots");
      }
    } else if (flag == "--connect") {
      PLDP_ASSIGN_OR_RETURN(options.connect, next());
    } else if (flag == "--watch") {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      PLDP_ASSIGN_OR_RETURN(const uint64_t watch, ParseUint64(value));
      if (watch > 3600) {
        return Status::InvalidArgument("--watch wants 0..3600 seconds");
      }
      options.watch = static_cast<uint32_t>(watch);
    } else {
      return Status::InvalidArgument("unknown flag: " + flag + "\n" +
                                     CliUsage());
    }
  }
  return options;
}

Status RunCli(const CliOptions& options, std::ostream& out) {
  if (options.command == "datasets") {
    out << "built-in synthetic datasets (Table I analogs):\n";
    for (const std::string& name : BenchmarkDatasetNames()) {
      const Dataset dataset = GenerateByName(name, 0.001, 1).value();
      out << "  " << name << "  domain " << dataset.domain.ToString()
          << "  cell " << dataset.cell_width << "x" << dataset.cell_height
          << "\n";
    }
    return Status::OK();
  }
  if (options.command == "schemes") {
    out << "schemes: psda kdtree cloak sr ug\n";
    return Status::OK();
  }
  const bool export_metrics = !options.metrics_out.empty();
  if (export_metrics) obs::EnableCollection();
  Status status;
  if (options.command == "degrade") {
    status = RunDegradeCommand(options, out);
  } else if (options.command == "chaos") {
    status = RunChaosCommand(options, out);
  } else if (options.command == "serve") {
    status = RunServeCommand(options, out);
  } else if (options.command == "stat") {
    status = RunStatCommand(options, out);
  } else {
    status = RunCommand(options, out);
  }
  PLDP_RETURN_IF_ERROR(status);
  if (export_metrics) PLDP_RETURN_IF_ERROR(WriteCliMetrics(options, out));
  return Status::OK();
}

}  // namespace pldp
