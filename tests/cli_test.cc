#include "cli/cli.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "geo/taxonomy.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/json_reader.h"
#include "protocol/client.h"
#include "protocol/messages.h"
#include "util/csv.h"
#include "util/random.h"

namespace pldp {
namespace {

/// An ostream the serve test can read from one thread while RunCli writes
/// from another (std::ostringstream is not thread-safe for that).
class SyncStream : public std::ostream {
 public:
  SyncStream() : std::ostream(&buf_) {}
  std::string str() const { return buf_.str(); }

 private:
  class Buf : public std::streambuf {
   public:
    std::string str() const {
      std::lock_guard<std::mutex> lock(mu_);
      return text_;
    }

   protected:
    int overflow(int c) override {
      if (c != EOF) {
        std::lock_guard<std::mutex> lock(mu_);
        text_.push_back(static_cast<char>(c));
      }
      return c;
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      std::lock_guard<std::mutex> lock(mu_);
      text_.append(s, static_cast<size_t>(n));
      return n;
    }

   private:
    mutable std::mutex mu_;
    std::string text_;
  };
  Buf buf_;
};

/// Scrapes "<marker> 127.0.0.1:<port>" out of the serve banner; 0 if absent.
uint16_t PortAfter(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return 0;
  const size_t line_end = text.find('\n', at);
  const size_t colon = text.rfind(':', line_end);
  if (colon == std::string::npos || colon < at) return 0;
  return static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
}

TEST(CliParseTest, RejectsEmptyAndUnknown) {
  EXPECT_FALSE(ParseCliArgs({}).ok());
  EXPECT_FALSE(ParseCliArgs({"frobnicate"}).ok());
  EXPECT_FALSE(ParseCliArgs({"run", "--bogus"}).ok());
  EXPECT_FALSE(ParseCliArgs({"run", "--dataset"}).ok());  // missing value
}

TEST(CliParseTest, ParsesRunFlags) {
  const CliOptions options =
      ParseCliArgs({"run", "--dataset", "road", "--scheme", "kdtree",
                    "--setting", "S1E2", "--scale", "0.01", "--beta", "0.2",
                    "--seed", "99", "--output", "/tmp/x.csv"})
          .value();
  EXPECT_EQ(options.command, "run");
  EXPECT_EQ(options.dataset, "road");
  EXPECT_EQ(options.scheme, "kdtree");
  EXPECT_EQ(options.setting, "S1E2");
  EXPECT_DOUBLE_EQ(options.scale, 0.01);
  EXPECT_DOUBLE_EQ(options.beta, 0.2);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.output_csv, "/tmp/x.csv");
}

TEST(CliParseTest, ParsesDomainAndCell) {
  const CliOptions options =
      ParseCliArgs({"run", "--input", "p.csv", "--domain", "-125,25,-65,50",
                    "--cell", "1,0.5"})
          .value();
  EXPECT_EQ(options.input_csv, "p.csv");
  EXPECT_DOUBLE_EQ(options.domain[0], -125);
  EXPECT_DOUBLE_EQ(options.domain[3], 50);
  EXPECT_DOUBLE_EQ(options.cell_width, 1.0);
  EXPECT_DOUBLE_EQ(options.cell_height, 0.5);
  EXPECT_FALSE(
      ParseCliArgs({"run", "--domain", "1,2,3"}).ok());  // wrong arity
  EXPECT_FALSE(ParseCliArgs({"run", "--cell", "a,b"}).ok());
}

TEST(CliRunTest, ListsDatasetsAndSchemes) {
  std::ostringstream out;
  CliOptions datasets;
  datasets.command = "datasets";
  ASSERT_TRUE(RunCli(datasets, out).ok());
  EXPECT_NE(out.str().find("road"), std::string::npos);
  EXPECT_NE(out.str().find("storage"), std::string::npos);

  std::ostringstream out2;
  CliOptions schemes;
  schemes.command = "schemes";
  ASSERT_TRUE(RunCli(schemes, out2).ok());
  EXPECT_NE(out2.str().find("psda"), std::string::npos);
  EXPECT_NE(out2.str().find("ug"), std::string::npos);
}

TEST(CliRunTest, EndToEndSyntheticRunWritesCsv) {
  const std::string output = ::testing::TempDir() + "/pldp_cli_counts.csv";
  const CliOptions options =
      ParseCliArgs({"run", "--dataset", "storage", "--scale", "0.5",
                    "--scheme", "psda", "--setting", "S2E2", "--output",
                    output})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  EXPECT_NE(out.str().find("KL divergence"), std::string::npos);

  const auto contents = ReadFileToString(output);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("cell,row,col"), std::string::npos);
  std::remove(output.c_str());
}

TEST(CliRunTest, DegradeSweepRunsAndWritesCsv) {
  const std::string output = ::testing::TempDir() + "/pldp_cli_degradation.csv";
  const CliOptions options =
      ParseCliArgs({"degrade", "--dataset", "storage", "--scale", "0.5",
                    "--dropout-max", "0.4", "--dropout-steps", "2", "--runs",
                    "2", "--output", output})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  EXPECT_NE(out.str().find("degradation sweep"), std::string::npos);
  EXPECT_NE(out.str().find("dropout"), std::string::npos);

  const auto contents = ReadFileToString(output);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("dropout_rate"), std::string::npos);
  std::remove(output.c_str());
}

TEST(CliParseTest, ParsesMetricsOut) {
  const CliOptions options =
      ParseCliArgs({"run", "--dataset", "road", "--metrics-out", "/tmp/r.json"})
          .value();
  EXPECT_EQ(options.metrics_out, "/tmp/r.json");
}

TEST(CliRunTest, MetricsOutWritesRunReport) {
  const std::string report = ::testing::TempDir() + "/pldp_cli_run.json";
  const CliOptions options =
      ParseCliArgs({"run", "--dataset", "storage", "--scale", "0.5",
                    "--metrics-out", report})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  EXPECT_NE(out.str().find("metrics written to"), std::string::npos);

  const auto contents = ReadFileToString(report);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("\"schema\":\"pldp.run_report/1\""),
            std::string::npos);
  EXPECT_NE(contents->find("\"tool\":\"pldp_cli\""), std::string::npos);
  EXPECT_NE(contents->find("\"command\":\"run\""), std::string::npos);
  EXPECT_NE(contents->find("\"dataset\":\"storage\""), std::string::npos);
  EXPECT_NE(contents->find("\"git_revision\""), std::string::npos);
  EXPECT_NE(contents->find("pcep.reports"), std::string::npos);
  EXPECT_NE(contents->find("psda.run"), std::string::npos);
  std::remove(report.c_str());
}

TEST(CliRunTest, MetricsOutPromSuffixWritesPrometheusText) {
  const std::string report = ::testing::TempDir() + "/pldp_cli_metrics.prom";
  const CliOptions options =
      ParseCliArgs({"run", "--dataset", "storage", "--scale", "0.5",
                    "--metrics-out", report})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();

  const auto contents = ReadFileToString(report);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("# TYPE pldp_pcep_reports_total counter"),
            std::string::npos);
  EXPECT_NE(contents->find("pldp_accuracy_kl "), std::string::npos)
      << "accuracy gauges must reach the exposition";
  std::remove(report.c_str());

  // The degrade path exercises the protocol layer, whose response-rate
  // histogram must render as cumulative buckets ending at +Inf.
  const std::string degrade_report =
      ::testing::TempDir() + "/pldp_cli_degrade.prom";
  const CliOptions degrade =
      ParseCliArgs({"degrade", "--dataset", "storage", "--scale", "0.5",
                    "--dropout-max", "0.2", "--dropout-steps", "1", "--runs",
                    "1", "--metrics-out", degrade_report})
          .value();
  std::ostringstream degrade_out;
  ASSERT_TRUE(RunCli(degrade, degrade_out).ok()) << degrade_out.str();
  const auto degrade_contents = ReadFileToString(degrade_report);
  ASSERT_TRUE(degrade_contents.ok());
  EXPECT_NE(degrade_contents->find("_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(degrade_contents->find("_approx_quantile{quantile=\"0.5\"}"),
            std::string::npos);
  std::remove(degrade_report.c_str());
}

TEST(CliRunTest, MetricsOutTraceSuffixWritesChromeTrace) {
  const std::string report =
      ::testing::TempDir() + "/pldp_cli_metrics.trace.json";
  const CliOptions options =
      ParseCliArgs({"run", "--dataset", "storage", "--scale", "0.5",
                    "--metrics-out", report})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();

  const auto contents = ReadFileToString(report);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(contents->find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(contents->find("\"name\":\"psda.run\""), std::string::npos);
  std::remove(report.c_str());
}

TEST(CliRunTest, MetricsOutCsvWritesFlatSnapshot) {
  const std::string report = ::testing::TempDir() + "/pldp_cli_metrics.csv";
  const CliOptions options =
      ParseCliArgs({"degrade", "--dataset", "storage", "--scale", "0.5",
                    "--dropout-max", "0.2", "--dropout-steps", "1", "--runs",
                    "1", "--metrics-out", report})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();

  const auto contents = ReadFileToString(report);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("kind,name,value"), std::string::npos);
  EXPECT_NE(contents->find("counter,degrade.points,"), std::string::npos);
  EXPECT_NE(contents->find("counter,protocol.collect_runs,"),
            std::string::npos);
  std::remove(report.c_str());
}

TEST(CliParseTest, ParsesChaosFlags) {
  const CliOptions options =
      ParseCliArgs({"chaos", "--dataset", "storage", "--scale", "0.5",
                    "--epochs", "5", "--ckpt-dir", "/tmp/ck", "--ckpt-every",
                    "8", "--crash-prob", "0.1", "--shed", "0.2", "--retries",
                    "4", "--output", "/tmp/chaos.csv"})
          .value();
  EXPECT_EQ(options.command, "chaos");
  EXPECT_EQ(options.epochs, 5u);
  EXPECT_EQ(options.ckpt_dir, "/tmp/ck");
  EXPECT_EQ(options.ckpt_every, 8u);
  EXPECT_DOUBLE_EQ(options.crash_prob, 0.1);
  EXPECT_DOUBLE_EQ(options.shed, 0.2);
  EXPECT_EQ(options.retries, 4u);
  EXPECT_EQ(options.output_csv, "/tmp/chaos.csv");
}

TEST(CliRunTest, ChaosRunOnCleanChannelReportsIdenticalRecovery) {
  const std::string ckpt_dir = ::testing::TempDir() + "/pldp_cli_chaos_ckpt";
  const std::string output = ::testing::TempDir() + "/pldp_cli_chaos.csv";
  const CliOptions options =
      ParseCliArgs({"chaos", "--dataset", "storage", "--scale", "0.5",
                    "--epochs", "2", "--ckpt-dir", ckpt_dir, "--ckpt-every",
                    "16", "--output", output})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  // Clean channel, no shedding: every epoch recovers bit-identical.
  EXPECT_NE(out.str().find("bit-identical"), std::string::npos);
  EXPECT_EQ(out.str().find("OUT OF BOUND"), std::string::npos) << out.str();

  const auto contents = ReadFileToString(output);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("crash_after"), std::string::npos);
  EXPECT_NE(contents->find("within_bound"), std::string::npos);
  std::remove(output.c_str());
  std::filesystem::remove_all(ckpt_dir);
}

TEST(CliRunTest, EndToEndCsvInputRun) {
  // Round-trip: write a tiny points file, aggregate it through the CLI.
  const std::string input = ::testing::TempDir() + "/pldp_cli_points.csv";
  std::string points;
  for (int i = 0; i < 200; ++i) {
    points += std::to_string(-120.0 + (i % 10)) + "," +
              std::to_string(30.0 + (i % 5)) + "\n";
  }
  ASSERT_TRUE(WriteStringToFile(input, points).ok());

  const CliOptions options =
      ParseCliArgs({"run", "--input", input, "--domain", "-121,29,-109,36",
                    "--cell", "1,1", "--scheme", "cloak"})
          .value();
  std::ostringstream out;
  ASSERT_TRUE(RunCli(options, out).ok()) << out.str();
  EXPECT_NE(out.str().find("200 users"), std::string::npos);
  std::remove(input.c_str());
}

TEST(CliRunTest, AllSchemesRunThroughCli) {
  for (const char* scheme : {"kdtree", "sr", "ug"}) {
    const CliOptions options =
        ParseCliArgs({"run", "--dataset", "storage", "--scale", "0.2",
                      "--scheme", scheme, "--setting", "S1E2"})
            .value();
    std::ostringstream out;
    EXPECT_TRUE(RunCli(options, out).ok()) << scheme << ": " << out.str();
    EXPECT_NE(out.str().find("KL divergence"), std::string::npos) << scheme;
  }
}

TEST(CliRunTest, RejectsInvalidCombinations) {
  std::ostringstream out;
  CliOptions no_input;
  no_input.command = "run";
  EXPECT_FALSE(RunCli(no_input, out).ok());

  CliOptions bad_scheme =
      ParseCliArgs({"run", "--dataset", "storage", "--scale", "0.1",
                    "--scheme", "magic"})
          .value();
  EXPECT_FALSE(RunCli(bad_scheme, out).ok());

  CliOptions bad_setting =
      ParseCliArgs({"run", "--dataset", "storage", "--scale", "0.1",
                    "--setting", "S9E9"})
          .value();
  EXPECT_FALSE(RunCli(bad_setting, out).ok());

  CliOptions missing_domain =
      ParseCliArgs({"run", "--input", "/nonexistent.csv"}).value();
  EXPECT_FALSE(RunCli(missing_domain, out).ok());
}

TEST(CliParseTest, ParsesServeIntrospectionFlags) {
  const CliOptions options =
      ParseCliArgs({"serve", "--dataset", "road", "--admin-port", "7788",
                    "--flight-out", "/tmp/flight.json", "--flight-events",
                    "1024"})
          .value();
  EXPECT_EQ(options.admin_port, 7788u);
  EXPECT_TRUE(options.admin_port_set);
  EXPECT_EQ(options.flight_out, "/tmp/flight.json");
  EXPECT_EQ(options.flight_events, 1024u);

  // The admin endpoint defaults to off, the ring to 65536 events.
  const CliOptions defaults =
      ParseCliArgs({"serve", "--dataset", "road"}).value();
  EXPECT_FALSE(defaults.admin_port_set);
  EXPECT_TRUE(defaults.flight_out.empty());
  EXPECT_EQ(defaults.flight_events, 65536u);

  EXPECT_FALSE(ParseCliArgs({"serve", "--admin-port", "70000"}).ok());
  EXPECT_FALSE(ParseCliArgs({"serve", "--flight-events", "0"}).ok());
}

TEST(CliParseTest, ParsesStatFlags) {
  const CliOptions options =
      ParseCliArgs({"stat", "--connect", "127.0.0.1:7787", "--watch", "2"})
          .value();
  EXPECT_EQ(options.command, "stat");
  EXPECT_EQ(options.connect, "127.0.0.1:7787");
  EXPECT_EQ(options.watch, 2u);

  EXPECT_FALSE(ParseCliArgs({"stat", "--watch", "4000"}).ok());

  // stat without a target, or with a malformed one, fails before connecting.
  std::ostringstream out;
  CliOptions no_target;
  no_target.command = "stat";
  EXPECT_FALSE(RunCli(no_target, out).ok());
  CliOptions bad_target;
  bad_target.command = "stat";
  bad_target.connect = "localhost";  // no port
  EXPECT_FALSE(RunCli(bad_target, out).ok());
  bad_target.connect = "localhost:0";
  EXPECT_FALSE(RunCli(bad_target, out).ok());
}

// End-to-end introspection pass over a real `serve --once` daemon: the live
// banner yields both ports, `stat` renders the control-frame view, the admin
// endpoint serves Prometheus text and status JSON mid-run, SIGUSR1 dumps the
// flight recorder, and the graceful exit honors --metrics-out (the serve
// regression this PR pins down) and writes the shutdown flight dump.
TEST(CliRunTest, ServeOnceIntrospectionEndToEnd) {
  const std::string prom = ::testing::TempDir() + "/pldp_cli_serve.prom";
  const std::string flight = ::testing::TempDir() + "/pldp_cli_flight.json";
  std::remove(prom.c_str());
  std::remove(flight.c_str());

  const CliOptions serve_options =
      ParseCliArgs({"serve", "--dataset", "storage", "--scale", "0.5",
                    "--port", "0", "--once", "--metrics-out", prom,
                    "--admin-port", "0", "--flight-out", flight,
                    "--flight-events", "4096"})
          .value();
  SyncStream serve_out;
  Status serve_status = Status::OK();
  std::thread daemon([&] { serve_status = RunCli(serve_options, serve_out); });

  uint16_t port = 0;
  uint16_t admin_port = 0;
  for (int i = 0; i < 1000 && (port == 0 || admin_port == 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::string text = serve_out.str();
    port = PortAfter(text, "pldp daemon listening on");
    admin_port = PortAfter(text, "admin endpoint listening on");
  }
  ASSERT_GT(port, 0) << serve_out.str();
  ASSERT_GT(admin_port, 0) << serve_out.str();

  // `stat` against the fresh daemon: phase is collecting specs.
  {
    const CliOptions stat_options =
        ParseCliArgs({"stat", "--connect",
                      "127.0.0.1:" + std::to_string(port)})
            .value();
    std::ostringstream stat_out;
    ASSERT_TRUE(RunCli(stat_options, stat_out).ok()) << stat_out.str();
    EXPECT_NE(stat_out.str().find("collecting specs"), std::string::npos)
        << stat_out.str();
    EXPECT_NE(stat_out.str().find("sockets"), std::string::npos);
  }

  // Drive one epoch over the daemon's own taxonomy derivation.
  const Dataset dataset = GenerateByName("storage", 0.5, 2016).value();
  const UniformGrid grid = dataset.MakeGrid().value();
  const SpatialTaxonomy tax = SpatialTaxonomy::Build(grid, 4).value();
  const size_t n = 24;
  net::NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", port).ok());
  for (size_t i = 0; i < n; ++i) {
    SpecUploadMsg msg;
    msg.safe_region = tax.root();
    msg.epsilon = 1.0;
    const auto accepted = conn.UploadSpec(i, msg);
    ASSERT_TRUE(accepted.ok()) << accepted.status();
  }
  ASSERT_TRUE(conn.SealSpecs(n).ok());

  // Mid-epoch: SIGUSR1 must produce a flight dump without stopping ingest.
  ASSERT_EQ(std::raise(SIGUSR1), 0);
  for (int i = 0; i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (serve_out.str().find("flight recorder dump (SIGUSR1)") !=
        std::string::npos) {
      break;
    }
  }
  EXPECT_NE(serve_out.str().find("flight recorder dump (SIGUSR1)"),
            std::string::npos)
      << serve_out.str();

  // Mid-epoch admin scrape: live metric families + parseable status JSON.
  const auto metrics = net::HttpGet("127.0.0.1", admin_port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("pldp_net_specs_accepted_total"),
            std::string::npos);
  const auto status_doc = net::HttpGet("127.0.0.1", admin_port, "/status");
  ASSERT_TRUE(status_doc.ok());
  const auto parsed = obs::ParseJson(status_doc->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->StringOr("schema", ""), "pldp.status/1");
  const obs::JsonValue* epoch = parsed->Find("epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->NumberOr("specs_accepted", -1), static_cast<double>(n));

  for (size_t i = 0; i < n; ++i) {
    const auto assignment = conn.FetchAssignment(i);
    ASSERT_TRUE(assignment.ok()) << assignment.status();
    DeviceClient device(&tax, static_cast<CellId>(i % grid.num_cells()),
                        PrivacySpec{tax.root(), 1.0},
                        SplitMix64(2016 ^ (i + 1)));
    const auto reply = device.HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok());
    const auto outcome =
        conn.SubmitReport(i, ReportMsg::Parse(reply.value()).value());
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  ASSERT_TRUE(conn.SealEpoch().ok());
  const auto estimates = conn.FetchEstimates();
  ASSERT_TRUE(estimates.ok()) << estimates.status();

  daemon.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
  const std::string text = serve_out.str();
  EXPECT_NE(text.find("epoch published"), std::string::npos) << text;
  EXPECT_NE(text.find("flight recorder dump (shutdown)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("metrics written to"), std::string::npos) << text;

  // --metrics-out survived the serve path: the snapshot carries the daemon's
  // own metric families in Prometheus text form.
  const auto prom_text = ReadFileToString(prom);
  ASSERT_TRUE(prom_text.ok());
  EXPECT_NE(prom_text->find("pldp_net_reports_staged_total"),
            std::string::npos);
  EXPECT_NE(prom_text->find("pldp_net_ingest_latency_report_ms_count"),
            std::string::npos);

  // The shutdown flight dump is a loadable Chrome trace with real events.
  const auto flight_text = ReadFileToString(flight);
  ASSERT_TRUE(flight_text.ok());
  const auto flight_doc = obs::ParseJson(*flight_text);
  ASSERT_TRUE(flight_doc.ok()) << flight_doc.status();
  EXPECT_GT(flight_doc->NumberOr("pldp_flight_recorded", 0), 0.0);
  ASSERT_NE(flight_doc->Find("traceEvents"), nullptr);
  EXPECT_GT(flight_doc->Find("traceEvents")->array_items().size(), 1u);

  std::remove(prom.c_str());
  std::remove(flight.c_str());
}

// `serve --once` stays up until the estimates were fetched: a client that
// waits 30 ms (a modest WAN round trip) between its SealEpoch ack and the
// fetch still gets them. No admin port is set, so nothing else holds the
// daemon up on its way out.
TEST(CliRunTest, ServeOnceWaitsForTheEstimateFetch) {
  const CliOptions serve_options =
      ParseCliArgs({"serve", "--dataset", "storage", "--scale", "0.5",
                    "--port", "0", "--once"})
          .value();
  SyncStream serve_out;
  Status serve_status = Status::OK();
  std::thread daemon([&] { serve_status = RunCli(serve_options, serve_out); });
  uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    port = PortAfter(serve_out.str(), "pldp daemon listening on");
  }
  ASSERT_GT(port, 0) << serve_out.str();

  const Dataset dataset = GenerateByName("storage", 0.5, 2016).value();
  const UniformGrid grid = dataset.MakeGrid().value();
  const SpatialTaxonomy tax = SpatialTaxonomy::Build(grid, 4).value();
  const size_t n = 24;
  net::NetClient conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", port).ok());
  for (size_t i = 0; i < n; ++i) {
    SpecUploadMsg msg;
    msg.safe_region = tax.root();
    msg.epsilon = 1.0;
    ASSERT_TRUE(conn.UploadSpec(i, msg).ok());
  }
  ASSERT_TRUE(conn.SealSpecs(n).ok());
  for (size_t i = 0; i < n; ++i) {
    const auto assignment = conn.FetchAssignment(i);
    ASSERT_TRUE(assignment.ok()) << assignment.status();
    DeviceClient device(&tax, static_cast<CellId>(i % grid.num_cells()),
                        PrivacySpec{tax.root(), 1.0},
                        SplitMix64(2016 ^ (i + 1)));
    const auto reply = device.HandleRowAssignment(assignment->Serialize());
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(
        conn.SubmitReport(i, ReportMsg::Parse(reply.value()).value()).ok());
  }
  ASSERT_TRUE(conn.SealEpoch().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto estimates = conn.FetchEstimates();
  EXPECT_TRUE(estimates.ok()) << estimates.status();

  daemon.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
  EXPECT_NE(serve_out.str().find("epoch published"), std::string::npos)
      << serve_out.str();
}

}  // namespace
}  // namespace pldp
