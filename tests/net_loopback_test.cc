// Loopback integration of the aggregation daemon: a real NetServer on
// 127.0.0.1 driven by real NetClient connections must publish estimates
// bit-identical to the in-process AggregationServer over the same cohort,
// reject corrupted streams by closing, keep answering while a seal runs,
// answer frames that arrive with a peer's FIN, survive peers that vanish, and
// — stopped mid-epoch the way the CLI's SIGTERM handler does — leave a
// checkpoint a fresh engine restores. The client half checks when NetClient's
// write buffer reaches the daemon.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/psda.h"
#include "data/spec_assignment.h"
#include "data/synthetic.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/epoch_engine.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
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

// Uploads specs for users [begin, end) over `conn` and, after the spec seal,
// replays the report round for the same slice.
void UploadSpecsOver(NetClient* conn, const Cohort& cohort, size_t begin,
                     size_t end) {
  for (size_t i = begin; i < end; ++i) {
    SpecUploadMsg msg;
    msg.safe_region = cohort.specs[i].safe_region;
    msg.epsilon = cohort.specs[i].epsilon;
    const auto accepted = conn->UploadSpec(i, msg);
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    EXPECT_TRUE(accepted.value()) << "user " << i;
  }
}

void ReportOver(NetClient* conn, std::vector<DeviceClient>* devices,
                size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const auto assignment = conn->FetchAssignment(i);
    ASSERT_TRUE(assignment.ok()) << assignment.status();
    const auto reply =
        (*devices)[i].HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok()) << reply.status();
    const ReportMsg report = ReportMsg::Parse(reply.value()).value();
    const auto outcome = conn->SubmitReport(i, report);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome.value(), ReportOutcome::kAccepted) << "user " << i;
  }
}

TEST(NetLoopbackTest, BitIdenticalToInProcessRun) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 400;
  const uint64_t seed = 42;
  const Cohort cohort = MakeCohort(tax, n, seed);

  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions engine_options;
  engine_options.psda = psda;
  EpochEngine engine(&tax, engine_options);

  NetServerOptions server_options;
  server_options.io_threads = 2;
  NetServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  ASSERT_GT(port, 0);

  // Three concurrent connections, each owning a contiguous user slice —
  // the smallest shape that still exercises cross-connection ingest.
  NetClient conns[3];
  const size_t bounds[4] = {0, n / 3, 2 * n / 3, n};
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(conns[c].Connect("127.0.0.1", port).ok());
    UploadSpecsOver(&conns[c], cohort, bounds[c], bounds[c + 1]);
  }

  const auto seal = conns[0].SealSpecs(n);
  ASSERT_TRUE(seal.ok()) << seal.status();
  EXPECT_EQ(seal->spec_responders, static_cast<uint64_t>(n));
  EXPECT_GT(seal->num_clusters, 0u);

  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  for (int c = 0; c < 3; ++c) {
    ReportOver(&conns[c], &devices, bounds[c], bounds[c + 1]);
  }

  const auto sealed = conns[1].SealEpoch();
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  EXPECT_EQ(sealed.value(), tax.grid().num_cells());

  const auto estimates = conns[2].FetchEstimates();
  ASSERT_TRUE(estimates.ok()) << estimates.status();
  server.Stop();

  auto clients = MakeClients(tax, cohort, seed);
  AggregationServer in_process(&tax, psda);
  const PsdaResult baseline = in_process.Collect(&clients, nullptr).value();
  ASSERT_EQ(estimates->size(), baseline.counts.size());
  for (size_t k = 0; k < baseline.counts.size(); ++k) {
    EXPECT_EQ((*estimates)[k], baseline.counts[k]) << "cell " << k;
  }

  const NetServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 3u);
  EXPECT_GT(stats.frames_received, static_cast<uint64_t>(2 * n));
  EXPECT_EQ(stats.frame_errors, 0u);
}

// The instrumentation-never-changes-results gate: with the flight recorder
// AND the metrics registry fully enabled (the timed ingest path, per-frame
// histograms, flight events on every frame), the daemon's published
// estimates must stay bit-identical to the uninstrumented in-process run.
TEST(NetLoopbackTest, BitIdenticalWithIntrospectionFullyEnabled) {
  auto& recorder = obs::FlightRecorder::Global();
  recorder.Enable(1024);
  obs::MetricsRegistry::Global().set_enabled(true);

  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 400;
  const uint64_t seed = 42;
  const Cohort cohort = MakeCohort(tax, n, seed);

  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions engine_options;
  engine_options.psda = psda;
  EpochEngine engine(&tax, engine_options);
  NetServerOptions server_options;
  server_options.io_threads = 2;
  NetServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  UploadSpecsOver(&conn, cohort, 0, n);
  ASSERT_TRUE(conn.SealSpecs(n).ok());
  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  ReportOver(&conn, &devices, 0, n);

  // Poll the control plane mid-epoch, exactly as `pldp_cli stat` would.
  const auto mid = conn.FetchStats();
  ASSERT_TRUE(mid.ok()) << mid.status();
  EXPECT_EQ(mid->phase, 1);  // collecting reports
  EXPECT_EQ(mid->reports_staged, static_cast<uint64_t>(n));

  ASSERT_TRUE(conn.SealEpoch().ok());
  const auto estimates = conn.FetchEstimates();
  ASSERT_TRUE(estimates.ok()) << estimates.status();
  server.Stop();

  obs::MetricsRegistry::Global().set_enabled(false);
  EXPECT_GT(recorder.recorded(), 0u);
  recorder.Disable();

  auto clients = MakeClients(tax, cohort, seed);
  AggregationServer in_process(&tax, psda);
  const PsdaResult baseline = in_process.Collect(&clients, nullptr).value();
  ASSERT_EQ(estimates->size(), baseline.counts.size());
  for (size_t k = 0; k < baseline.counts.size(); ++k) {
    EXPECT_EQ((*estimates)[k], baseline.counts[k]) << "cell " << k;
  }
}

/// The serve_checkin cohort: checkin at scale 0.1 with S2/E2 specs, 100k
/// users. Its spec seal clusters for long enough (about 0.14 s in an
/// optimized build) that a daemon sealing on its I/O thread answered no stats
/// frame until the seal ended.
struct CheckinCohort {
  SpatialTaxonomy taxonomy;
  std::vector<UserRecord> users;
};

CheckinCohort MakeCheckinCohort() {
  const Dataset dataset = GenerateByName("checkin", 0.1, 2016).value();
  const UniformGrid grid = dataset.MakeGrid().value();
  SpatialTaxonomy taxonomy = SpatialTaxonomy::Build(grid, 4).value();
  std::vector<UserRecord> users =
      AssignSpecs(taxonomy, dataset.ToCells(grid), SafeRegionsS2(),
                  EpsilonsE2(), 2016)
          .value();
  return {std::move(taxonomy), std::move(users)};
}

/// Registers every user's spec straight into the engine: these tests time
/// the seals, not the uploads.
void RegisterAll(EpochEngine* engine, const std::vector<UserRecord>& users) {
  for (uint64_t i = 0; i < users.size(); ++i) {
    SpecUploadMsg msg;
    msg.safe_region = users[i].spec.safe_region;
    msg.epsilon = users[i].spec.epsilon;
    ASSERT_EQ(engine->RegisterSpec(i, msg), SpecOutcome::kAccepted);
  }
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr uint8_t kSealingPhase =
    static_cast<uint8_t>(EpochEngine::Phase::kSealing);

TEST(NetLoopbackTest, StatsFrameIsConsistentAcrossTheEpoch) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 100;
  const Cohort cohort = MakeCohort(tax, n, 7);
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 7;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());

  // Fresh daemon: collecting specs, nothing counted yet.
  auto stats = conn.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->phase, 0);
  EXPECT_EQ(stats->draining, 0);
  EXPECT_EQ(stats->specs_accepted, 0u);
  EXPECT_EQ(stats->connections_accepted, 1u);

  UploadSpecsOver(&conn, cohort, 0, n);
  stats = conn.FetchStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->specs_accepted, static_cast<uint64_t>(n));
  EXPECT_EQ(stats->spec_responders, static_cast<uint64_t>(n));

  ASSERT_TRUE(conn.SealSpecs(n).ok());
  std::vector<DeviceClient> devices = MakeClients(tax, cohort, 7);
  ReportOver(&conn, &devices, 0, n / 2);
  stats = conn.FetchStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->phase, 1);
  EXPECT_EQ(stats->reports_staged, static_cast<uint64_t>(n / 2));
  EXPECT_EQ(stats->cohort_size, static_cast<uint64_t>(n));
  EXPECT_GT(stats->num_clusters, 0u);
  EXPECT_GT(stats->frames_received, static_cast<uint64_t>(n));
  EXPECT_GT(stats->uptime_ms + 1, 0u);  // monotone, may round to 0 early

  ReportOver(&conn, &devices, n / 2, n);
  ASSERT_TRUE(conn.SealEpoch().ok());
  stats = conn.FetchStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->phase, 2);
  EXPECT_EQ(stats->reports_folded, static_cast<uint64_t>(n));
  EXPECT_EQ(stats->published_cells,
            static_cast<uint64_t>(tax.grid().num_cells()));
  server.Stop();
}

TEST(NetLoopbackTest, DrainStopsNewConnectionsButFinishesExisting) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 13;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(conn.Drain().ok());
  EXPECT_TRUE(server.draining());

  // The draining flag is visible over the control plane...
  const auto stats = conn.FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->draining, 1);

  // ...the established connection still serves data frames...
  SpecUploadMsg msg;
  msg.safe_region = tax.root();
  msg.epsilon = 1.0;
  const auto accepted = conn.UploadSpec(0, msg);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_TRUE(accepted.value());

  // ...and a second Drain is an idempotent no-op.
  EXPECT_TRUE(conn.Drain().ok());
  server.Stop();
}

TEST(NetLoopbackTest, CorruptFrameClosesConnectionCleanly) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 9;
  EpochEngine engine(&tax, engine_options);
  NetServerOptions server_options;
  server_options.io_threads = 1;
  NetServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  NetClient bad;
  ASSERT_TRUE(bad.Connect("127.0.0.1", server.port()).ok());
  // A structurally complete frame whose payload bit was flipped: the CRC
  // cannot verify, so the server must close without interpreting a byte.
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kRowRequest, EncodeRowRequestBody(1));
  frame.back() ^= 0x04;
  ASSERT_TRUE(bad.SendRaw(frame).ok());
  const auto reply = bad.ReadAssignment();
  EXPECT_FALSE(reply.ok());

  // The engine saw nothing and a healthy connection still works.
  NetClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", server.port()).ok());
  SpecUploadMsg msg;
  msg.safe_region = tax.root();
  msg.epsilon = 1.0;
  const auto accepted = good.UploadSpec(0, msg);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_TRUE(accepted.value());

  server.Stop();
  EXPECT_GE(server.stats().frame_errors, 1u);
  EXPECT_EQ(engine.stats().unknown_user_frames, 0u);
}

TEST(NetLoopbackTest, ErrorFramesCarryStatusAcrossTheWire) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 11;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  // Estimates before any publish: the daemon answers kError with the
  // engine's FailedPrecondition, which the client surfaces as that Status.
  const auto estimates = conn.FetchEstimates();
  ASSERT_FALSE(estimates.ok());
  EXPECT_EQ(estimates.status().code(), StatusCode::kFailedPrecondition);

  // The connection survives an error frame (it is a reply, not a violation).
  SpecUploadMsg msg;
  msg.safe_region = tax.root();
  msg.epsilon = 0.5;
  const auto accepted = conn.UploadSpec(3, msg);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  server.Stop();
}

TEST(NetLoopbackTest, StopMidEpochLeavesRestorableCheckpoint) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 300;
  const uint64_t seed = 65;
  const Cohort cohort = MakeCohort(tax, n, seed);
  const std::string dir = ::testing::TempDir() + "/pldp_net_loopback_restore";

  PsdaOptions psda;
  psda.seed = seed;
  EpochEngineOptions engine_options;
  engine_options.psda = psda;
  engine_options.epoch = 2;
  engine_options.checkpoint.dir = dir;

  // First daemon: specs sealed, half the reports ingested, then the CLI's
  // SIGTERM sequence — Stop() the sockets, Checkpoint() the engine.
  {
    EpochEngine engine(&tax, engine_options);
    NetServer server(&engine, NetServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    NetClient conn;
    ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
    UploadSpecsOver(&conn, cohort, 0, n);
    ASSERT_TRUE(conn.SealSpecs(n).ok());
    std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
    ReportOver(&conn, &devices, 0, n / 2);
    server.Stop();
    ASSERT_TRUE(engine.Checkpoint().ok());
    EXPECT_EQ(engine.phase(), EpochEngine::Phase::kCollectingReports);
  }

  // Second daemon: restore, then finish the epoch over a fresh socket.
  EpochEngine engine(&tax, engine_options);
  ASSERT_TRUE(engine.RestoreLatest().ok());
  EXPECT_EQ(engine.phase(), EpochEngine::Phase::kCollectingReports);
  EXPECT_EQ(engine.stats().restored_reports, static_cast<uint64_t>(n / 2));

  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  ReportOver(&conn, &devices, n / 2, n);
  const auto sealed = conn.SealEpoch();
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  const auto estimates = conn.FetchEstimates();
  ASSERT_TRUE(estimates.ok()) << estimates.status();
  server.Stop();

  const double total =
      std::accumulate(estimates->begin(), estimates->end(), 0.0);
  EXPECT_NEAR(total, static_cast<double>(n), 1e-6);
}

// The gate for a daemon that never goes dark: while a checkin-sized
// SealSpecs runs, a second connection's stats frames answer within 50 ms,
// some of them with phase sealing, and so does /status on the admin
// endpoint.
TEST(NetLoopbackTest, StatsAndStatusAnswerDuringACheckinSizedSpecSeal) {
  const CheckinCohort cohort = MakeCheckinCohort();
  EpochEngineOptions engine_options;
  engine_options.psda.beta = 0.1;
  engine_options.psda.seed = 2016;
  EpochEngine engine(&cohort.taxonomy, engine_options);
  RegisterAll(&engine, cohort.users);
  NetServerOptions server_options;
  server_options.io_threads = 1;
  NetServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());
  AdminServer admin(AdminServerOptions{}, [&server] {
    return RenderStatusJson(server.ServiceStats());
  });
  ASSERT_TRUE(admin.Start().ok());

  NetClient sealer;
  NetClient probe;
  ASSERT_TRUE(sealer.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()).ok());
  std::atomic<bool> sealed{false};
  Status seal_status;
  std::thread seal([&] {
    seal_status = sealer.SealSpecs(cohort.users.size()).status();
    sealed.store(true, std::memory_order_release);
  });

  double max_ms = 0.0;
  int sealing_answers = 0;
  std::string status_phase;
  while (!sealed.load(std::memory_order_acquire)) {
    const auto sent = std::chrono::steady_clock::now();
    const auto stats = probe.FetchStats();
    if (!stats.ok()) {
      ADD_FAILURE() << stats.status();
      break;
    }
    max_ms = std::max(max_ms, MillisSince(sent));
    if (stats->phase == kSealingPhase) {
      ++sealing_answers;
      if (status_phase != "sealing") {
        const auto doc = HttpGet("127.0.0.1", admin.port(), "/status");
        const auto parsed = obs::ParseJson(doc.ok() ? doc->body : "");
        status_phase = parsed.ok() ? parsed->StringOr("phase", "") : "";
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  seal.join();
  ASSERT_TRUE(seal_status.ok()) << seal_status;
  EXPECT_GT(sealing_answers, 0);
  EXPECT_LE(max_ms, 50.0);
  EXPECT_EQ(status_phase, "sealing");
  admin.Stop();
  server.Stop();
}

// Frames from a second connection while a seal runs: spec uploads are
// refused, reports are refused as wrong-phase during the spec seal and late
// during the epoch seal, row requests and estimate fetches fail with
// FailedPrecondition, and stats and drain are answered.
TEST(NetLoopbackTest, SecondConnectionVerdictsWhileSealing) {
  const CheckinCohort cohort = MakeCheckinCohort();
  const uint64_t n = cohort.users.size();
  const std::string dir = ::testing::TempDir() + "/pldp_net_sealing_verdicts";
  std::filesystem::remove_all(dir);
  EpochEngineOptions engine_options;
  engine_options.psda.beta = 0.1;
  engine_options.psda.seed = 2016;
  // The final snapshot lengthens the epoch seal.
  engine_options.checkpoint.dir = dir;
  EpochEngine engine(&cohort.taxonomy, engine_options);
  RegisterAll(&engine, cohort.users);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient sealer;
  NetClient other;
  ASSERT_TRUE(sealer.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(other.Connect("127.0.0.1", server.port()).ok());

  // Runs `seal` on its own connection and probes `other` once it reports
  // sealing; the last stats frame proves every probe answered mid-seal.
  const auto probe_while = [&](const std::function<Status()>& seal,
                               ReportOutcome report_verdict) {
    std::atomic<bool> done{false};
    Status seal_status;
    std::thread sealing([&] {
      seal_status = seal();
      done.store(true, std::memory_order_release);
    });
    bool seen = false;
    while (!seen && !done.load(std::memory_order_acquire)) {
      const auto stats = other.FetchStats();
      seen = stats.ok() && stats->phase == kSealingPhase;
    }
    SpecUploadMsg msg;
    msg.safe_region = cohort.users[0].spec.safe_region;
    msg.epsilon = cohort.users[0].spec.epsilon;
    const auto spec = other.UploadSpec(n, msg);
    const auto report = other.SubmitReport(0, ReportMsg{});
    const auto row = other.FetchAssignment(0);
    const auto estimates = other.FetchEstimates();
    const Status drained = other.Drain();
    const auto stats = other.FetchStats();
    sealing.join();
    EXPECT_TRUE(seal_status.ok()) << seal_status;
    ASSERT_TRUE(seen) << "no stats frame reported sealing";
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(stats->phase, kSealingPhase)
        << "the seal ended before the probes were answered";
    ASSERT_TRUE(spec.ok()) << spec.status();
    EXPECT_FALSE(*spec);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(*report, report_verdict);
    EXPECT_EQ(row.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(estimates.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(drained.ok()) << drained;
  };

  probe_while([&] { return sealer.SealSpecs(n).status(); },
              ReportOutcome::kWrongPhase);
  for (uint64_t i = 0; i < n; ++i) {
    ReportMsg report;
    report.positive = i % 3 == 0;
    ASSERT_EQ(engine.SubmitReport(i, report), ReportOutcome::kAccepted);
  }
  probe_while([&] { return sealer.SealEpoch().status(); },
              ReportOutcome::kLate);
  EXPECT_EQ(engine.phase(), EpochEngine::Phase::kPublished);
  server.Stop();
  std::filesystem::remove_all(dir);
}

// With introspection on, each seal is timed once, on the seal thread, from
// its queueing to its ack: one sample in its ingest-latency histogram and
// one frame.ingest event per seal, after a phase.sealing event.
TEST(NetLoopbackTest, EachSealIsTimedOnce) {
  auto& recorder = obs::FlightRecorder::Global();
  recorder.Enable(4096);
  recorder.Reset();
  auto& registry = obs::MetricsRegistry::Global();
  registry.set_enabled(true);
  const auto histogram_count = [&registry](const char* name) {
    return registry.GetHistogram(name, obs::ExponentialBounds(0.001, 2.0, 18))
        ->Count();
  };
  const uint64_t specs_before =
      histogram_count("net.ingest_latency_seal_specs_ms");
  const uint64_t epoch_before =
      histogram_count("net.ingest_latency_seal_epoch_ms");

  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 100;
  const Cohort cohort = MakeCohort(tax, n, 19);
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 19;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  UploadSpecsOver(&conn, cohort, 0, n);
  ASSERT_TRUE(conn.SealSpecs(n).ok());
  ASSERT_TRUE(conn.SealEpoch().ok());
  server.Stop();
  registry.set_enabled(false);

  EXPECT_EQ(histogram_count("net.ingest_latency_seal_specs_ms"),
            specs_before + 1);
  EXPECT_EQ(histogram_count("net.ingest_latency_seal_epoch_ms"),
            epoch_before + 1);
  int sealing_events = 0;
  int seal_ingests = 0;
  for (const obs::FlightEvent& event : recorder.Snapshot()) {
    const std::string label = event.label;
    if (label == "phase.sealing") ++sealing_events;
    if (label == "frame.ingest" &&
        (event.a0 == static_cast<uint64_t>(FrameType::kSealSpecs) ||
         event.a0 == static_cast<uint64_t>(FrameType::kSealEpoch))) {
      ++seal_ingests;
    }
  }
  recorder.Disable();
  EXPECT_EQ(sealing_events, 2);
  EXPECT_EQ(seal_ingests, 2);
}

// A seal pauses only its own connection's later frames: row requests
// pipelined behind SealSpecs, some in the seal's own write and some after
// it, are answered after the seal's ack, with the sealed assignments.
TEST(NetLoopbackTest, RowRequestsPipelinedBehindSealSpecsFollowItsAck) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 300;
  const Cohort cohort = MakeCohort(tax, n, 17);
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 17;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  UploadSpecsOver(&conn, cohort, 0, n);

  std::vector<uint8_t> burst =
      EncodeFrame(FrameType::kSealSpecs, EncodeSealSpecsBody(n));
  for (size_t i = 0; i < n / 2; ++i) {
    const std::vector<uint8_t> frame =
        EncodeFrame(FrameType::kRowRequest, EncodeRowRequestBody(i));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(conn.SendRaw(burst).ok());
  for (size_t i = n / 2; i < n; ++i) {
    ASSERT_TRUE(conn.SendRowRequestNoWait(i).ok());
  }
  const auto ack = conn.ReadSealSpecsAck();
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->spec_responders, static_cast<uint64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    const auto assignment = conn.ReadAssignment();
    ASSERT_TRUE(assignment.ok()) << "user " << i << ": "
                                 << assignment.status();
    const auto expected = engine.Assignment(i);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(assignment->Serialize(), expected->Serialize()) << "user " << i;
  }
  server.Stop();
}

// Stop() right after a SealEpoch frame, without waiting for its ack: a seal
// in flight finishes and a queued one is dropped, so the engine ends
// published or still collecting reports, never sealing. Either way the CLI's
// SIGTERM sequence (Stop(), then Checkpoint() while collecting) leaves a
// snapshot a fresh engine restores.
TEST(NetLoopbackTest, StopRightAfterSealEpochNeverStrandsASeal) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  const size_t n = 300;
  const uint64_t seed = 66;
  const Cohort cohort = MakeCohort(tax, n, seed);
  const std::string dir = ::testing::TempDir() + "/pldp_net_stop_sealing";
  std::filesystem::remove_all(dir);
  EpochEngineOptions engine_options;
  engine_options.psda.seed = seed;
  engine_options.epoch = 3;
  engine_options.checkpoint.dir = dir;

  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  UploadSpecsOver(&conn, cohort, 0, n);
  ASSERT_TRUE(conn.SealSpecs(n).ok());
  std::vector<DeviceClient> devices = MakeClients(tax, cohort, seed);
  ReportOver(&conn, &devices, 0, n / 2);
  const uint64_t received = server.stats().frames_received;
  ASSERT_TRUE(conn.SendRaw(EncodeFrame(FrameType::kSealEpoch, {})).ok());
  for (int i = 0; i < 1000 && server.stats().frames_received == received;
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  server.Stop();

  const EpochEngine::Phase phase = engine.phase();
  EXPECT_TRUE(phase == EpochEngine::Phase::kCollectingReports ||
              phase == EpochEngine::Phase::kPublished)
      << static_cast<int>(phase);
  if (phase == EpochEngine::Phase::kCollectingReports) {
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  EpochEngine restored(&tax, engine_options);
  ASSERT_TRUE(restored.RestoreLatest().ok());
  EXPECT_EQ(restored.stats().restored_reports, static_cast<uint64_t>(n / 2));
  std::filesystem::remove_all(dir);
}

// A blocking IPv4 socket connected to the daemon, for peers NetClient will
// not imitate. Reads time out after 10 s so a missing reply fails the test
// rather than hanging it.
int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool SendAllRaw(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

SpecUploadMsg RootSpec(const SpatialTaxonomy& tax) {
  SpecUploadMsg msg;
  msg.safe_region = tax.root();
  msg.epsilon = 1.0;
  return msg;
}

// Polls `done` every millisecond for up to five seconds.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// A peer that writes its frames and its FIN back to back, then reads: every
// frame is dispatched and answered before the daemon closes. A daemon that
// closed on EOF before dispatching registered none of them.
TEST(NetLoopbackTest, FramesThatArriveWithTheFinAreAnswered) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 21;
  EpochEngine engine(&tax, engine_options);
  NetServerOptions server_options;
  server_options.io_threads = 1;
  NetServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRounds = 5;
  constexpr uint64_t kSpecs = 10;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<uint8_t> stream(kNetMagic, kNetMagic + kNetMagicLen);
    for (uint64_t i = 0; i < kSpecs; ++i) {
      const std::vector<uint8_t> frame =
          EncodeFrame(FrameType::kSpecUpload,
                      EncodeSpecUploadBody(round * kSpecs + i, RootSpec(tax)));
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    const int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAllRaw(fd, stream));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

    FrameDecoder replies(/*expect_magic=*/false);
    uint8_t buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      replies.Feed(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(n, 0) << "the daemon should close after its last reply";
    ::close(fd);
    uint64_t acks = 0;
    for (StatusOr<Frame> frame = replies.Next(); frame.ok();
         frame = replies.Next()) {
      EXPECT_EQ(frame->type, FrameType::kSpecAck);
      EXPECT_EQ(std::vector<uint8_t>(frame->body.begin(), frame->body.end()),
                std::vector<uint8_t>{1});
      ++acks;
    }
    EXPECT_EQ(acks, kSpecs) << "round " << round;
  }
  server.Stop();
  EXPECT_EQ(engine.stats().specs_accepted, kRounds * kSpecs);
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

// Sending on a connection the daemon closed returns an error every time; no
// SIGPIPE ends the process, which in these tests also hosts the daemon.
TEST(NetLoopbackTest, SendsAfterTheDaemonClosedFailWithoutSigpipe) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 22;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kRowRequest, EncodeRowRequestBody(1));
  frame.back() ^= 0x04;
  ASSERT_TRUE(conn.SendRaw(frame).ok());
  EXPECT_FALSE(conn.ReadAssignment().ok());
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_FALSE(conn.UploadSpec(i, RootSpec(tax)).ok()) << "send " << i;
  }
  server.Stop();
  EXPECT_EQ(engine.stats().specs_accepted, 0u);
}

// A peer that bursts spec frames and closes without reading its acks resets
// the connection, often while the daemon still reads the burst. The daemon
// answers what it read, gets EPIPE rather than SIGPIPE on the dead socket,
// drops the connection and serves the next one.
TEST(NetLoopbackTest, DaemonSurvivesAPeerThatClosesWithoutReading) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 23;
  EpochEngine engine(&tax, engine_options);
  NetServerOptions server_options;
  server_options.io_threads = 1;
  NetServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRounds = 3;
  constexpr uint64_t kBurst = 200000;
  std::vector<uint8_t> stream(kNetMagic, kNetMagic + kNetMagicLen);
  for (uint64_t i = 0; i < kBurst; ++i) {
    const std::vector<uint8_t> frame = EncodeFrame(
        FrameType::kSpecUpload, EncodeSpecUploadBody(i, RootSpec(tax)));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  for (int round = 0; round < kRounds; ++round) {
    const int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAllRaw(fd, stream));
    ::close(fd);

    NetClient next;
    ASSERT_TRUE(next.Connect("127.0.0.1", server.port()).ok());
    const auto stats = next.FetchStats();
    ASSERT_TRUE(stats.ok()) << "round " << round << ": " << stats.status();
    const auto accepted = next.UploadSpec(kBurst + round, RootSpec(tax));
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    EXPECT_TRUE(*accepted);
  }
  server.Stop();
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

// *NoWait frames stay in the client until a flush point: the daemon counts
// none of them until Flush(), then all of them.
TEST(NetLoopbackTest, NoWaitFramesWaitForAFlush) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 24;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  constexpr uint64_t kFrames = 10;
  for (uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(conn.SendSpecNoWait(i, RootSpec(tax)).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.stats().frames_received, 0u);

  ASSERT_TRUE(conn.Flush().ok());
  EXPECT_TRUE(
      WaitFor([&] { return server.stats().frames_received == kFrames; }))
      << server.stats().frames_received;
  for (uint64_t i = 0; i < kFrames; ++i) {
    const auto accepted = conn.ReadSpecAck();
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    EXPECT_TRUE(*accepted);
  }
  server.Stop();
}

// A buffer that reaches kIoChunk flushes itself: frames past one chunk reach
// the daemon with no read and no Flush().
TEST(NetLoopbackTest, NoWaitFramesPastOneChunkReachTheDaemonUnread) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 25;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  // Frames up to and including the one that fills the first chunk.
  uint64_t chunk_frames = 0;
  size_t bytes = 0;
  while (bytes < kIoChunk) {
    bytes += EncodeFrame(FrameType::kSpecUpload,
                         EncodeSpecUploadBody(chunk_frames, RootSpec(tax)))
                 .size();
    ++chunk_frames;
  }
  const uint64_t sent = chunk_frames + chunk_frames / 2;
  for (uint64_t i = 0; i < sent; ++i) {
    ASSERT_TRUE(conn.SendSpecNoWait(i, RootSpec(tax)).ok());
  }
  EXPECT_TRUE(WaitFor(
      [&] { return server.stats().frames_received >= chunk_frames; }))
      << server.stats().frames_received << " of " << chunk_frames;
  EXPECT_LT(server.stats().frames_received, sent);

  for (uint64_t i = 0; i < sent; ++i) {
    const auto accepted = conn.ReadSpecAck();
    ASSERT_TRUE(accepted.ok()) << accepted.status();
  }
  server.Stop();
  EXPECT_EQ(engine.stats().specs_accepted, sent);
}

// Close() flushes: specs that were only buffered are all registered.
TEST(NetLoopbackTest, CloseDeliversBufferedSpecs) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 26;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr uint64_t kSpecs = 100;
  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  for (uint64_t i = 0; i < kSpecs; ++i) {
    ASSERT_TRUE(conn.SendSpecNoWait(i, RootSpec(tax)).ok());
  }
  conn.Close();
  EXPECT_TRUE(
      WaitFor([&] { return engine.stats().specs_accepted == kSpecs; }))
      << engine.stats().specs_accepted;
  server.Stop();
}

// SendRaw's bytes land after the frames already buffered: a spec seal sent
// raw behind three buffered specs seals all three.
TEST(NetLoopbackTest, SendRawLandsAfterBufferedFrames) {
  const SpatialTaxonomy tax = MakeTaxonomy();
  EpochEngineOptions engine_options;
  engine_options.psda.seed = 27;
  EpochEngine engine(&tax, engine_options);
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.port()).ok());
  constexpr uint64_t kSpecs = 3;
  for (uint64_t i = 0; i < kSpecs; ++i) {
    ASSERT_TRUE(conn.SendSpecNoWait(i, RootSpec(tax)).ok());
  }
  ASSERT_TRUE(conn.SendRaw(EncodeFrame(FrameType::kSealSpecs,
                                       EncodeSealSpecsBody(kSpecs)))
                  .ok());
  for (uint64_t i = 0; i < kSpecs; ++i) {
    const auto accepted = conn.ReadSpecAck();
    ASSERT_TRUE(accepted.ok()) << "spec " << i << ": " << accepted.status();
    EXPECT_TRUE(*accepted);
  }
  const auto sealed = conn.ReadSealSpecsAck();
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  EXPECT_EQ(sealed->spec_responders, kSpecs);
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace pldp
