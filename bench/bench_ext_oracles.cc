// Extension: head-to-head of LDP frequency oracles.
//
// The paper builds PCEP on the Bassily-Smith oracle [3] and argues in its
// related-work section that RAPPOR [8] and the extremal randomized-response
// mechanisms [14] give worse utility on realistic universes. This bench
// quantifies that choice: (1) standalone oracle MAE across domain sizes and
// epsilons, (2) end-to-end PSDA with each oracle plugged into Algorithm 4.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/frequency_oracle.h"
#include "core/psda.h"
#include "eval/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace pldp;
using namespace pldp::bench;

/// EstimateCounts calls per run of a backend-matrix case.
constexpr int kTimedCalls = 5;

std::vector<PcepUser> SkewedUsers(int n, int width, double epsilon,
                                  std::vector<double>* truth, uint64_t seed) {
  Rng rng(seed);
  truth->assign(width, 0.0);
  std::vector<PcepUser> users;
  users.reserve(n);
  for (int i = 0; i < n; ++i) {
    const auto item = static_cast<uint32_t>(
        static_cast<uint32_t>(width * std::pow(rng.NextDouble(), 3.0)) %
        width);
    users.push_back({item, epsilon});
    (*truth)[item] += 1.0;
  }
  return users;
}

}  // namespace

int main() {
  BenchReport report("ext_oracles");
  const BenchProfile profile = GetBenchProfile();
  PrintProfileBanner("Extension: frequency-oracle comparison", profile);

  const PcepOracle pcep;
  const KrrOracle krr;
  const RapporOracle rappor;
  const FrequencyOracle* oracles[] = {&pcep, &krr, &rappor};

  std::printf("(1) standalone oracle MAE, n = 100k skewed users\n");
  std::printf("%8s %6s %12s %12s %12s\n", "|domain|", "eps", "PCEP", "kRR",
              "RAPPOR");
  for (const int width : {16, 256, 4096}) {
    for (const double eps : {0.5, 1.0}) {
      std::vector<double> truth;
      const auto users = SkewedUsers(100000, width, eps, &truth, 42);
      std::printf("%8d %6.2f", width, eps);
      for (const FrequencyOracle* oracle : oracles) {
        const std::string case_name = "standalone/width_" +
                                      std::to_string(width) + "/eps_" +
                                      std::to_string(eps) + "/" +
                                      oracle->Name();
        double mae = 0.0;
        for (int run = 0; run < profile.runs; ++run) {
          Stopwatch timer;
          const auto counts =
              oracle->EstimateCounts(users, width, 0.1, 100 + run);
          report.AddSample(case_name, timer.ElapsedSeconds());
          PLDP_CHECK(counts.ok()) << counts.status();
          const auto err = MaxAbsoluteError(truth, counts.value());
          mae += err.value();
        }
        report.AddCaseStat(case_name, "mae", mae / profile.runs);
        std::printf(" %12.1f", mae / profile.runs);
      }
      std::printf("\n");
    }
  }

  std::printf("\n(2) PSDA end-to-end with each oracle (landmark, S2/E2)\n");
  const auto setup =
      PrepareExperiment("landmark", DatasetScale(profile, "landmark"), 2016);
  PLDP_CHECK(setup.ok()) << setup.status();
  const auto users = AssignSpecs(setup->taxonomy, setup->cells,
                                 SafeRegionsS2(), EpsilonsE2(), 77);
  PLDP_CHECK(users.ok()) << users.status();
  std::printf("%10s %12s %12s\n", "oracle", "KL", "MAE");
  for (const FrequencyOracle* oracle : oracles) {
    const std::string case_name = "psda_end_to_end/" + oracle->Name();
    double kl = 0.0, mae = 0.0;
    for (int run = 0; run < profile.runs; ++run) {
      PsdaOptions options;
      options.seed = 9000 + run;
      Stopwatch timer;
      const auto result =
          RunPsdaWithOracle(setup->taxonomy, users.value(), options, *oracle);
      report.AddSample(case_name, timer.ElapsedSeconds());
      PLDP_CHECK(result.ok()) << result.status();
      kl += KlDivergence(setup->true_histogram, result->counts).value();
      mae += MaxAbsoluteError(setup->true_histogram, result->counts).value();
    }
    report.AddCaseStat(case_name, "kl", kl / profile.runs);
    report.AddCaseStat(case_name, "mae", mae / profile.runs);
    std::printf("%10s %12.4f %12.1f\n", oracle->Name().c_str(),
                kl / profile.runs, mae / profile.runs);
  }
  std::printf("\n(PCEP should dominate as the domain grows - the paper's "
              "rationale for building on [3].)\n");

  // (3) The backend matrix: accuracy x communication x decode CPU for the
  // four pluggable backends, published as its own BENCH_oracle_matrix.json
  // so pldp_benchdiff gates the accuracy column (mae, lower-is-better) and
  // the cost columns (bytes_per_report / decode_cpu_ms, lower-is-better)
  // exactly like the perf stats. crossover_m is informational: the smallest
  // measured |domain| where HR's one-FWHT decode undercuts PCEP's decode.
  std::printf("\n(3) backend matrix, n = 10k skewed users, eps = 1\n");
  BenchReport matrix("oracle_matrix");
  matrix.AddParam("users", 10000);
  matrix.AddParam("epsilon", 1.0);
  const OlhOracle olh;
  const OueOracle oue;
  const HadamardOracle hr;
  const FrequencyOracle* matrix_oracles[] = {&pcep, &olh, &oue, &hr};
  std::map<int, std::map<std::string, double>> decode_seconds_by_width;
  std::printf("%8s %8s %12s %14s %14s %14s\n", "|domain|", "oracle", "mae",
              "bytes/report", "decode_ms", "encode_ms");
  for (const int width : {256, 4096, 65536}) {
    std::vector<double> truth;
    const auto matrix_users = SkewedUsers(10000, width, 1.0, &truth, 4242);
    for (const FrequencyOracle* oracle : matrix_oracles) {
      const std::string case_name =
          "width_" + std::to_string(width) + "/" + oracle->Name();
      double mae = 0.0, decode = 0.0, encode = 0.0, bytes = 0.0;
      for (int run = 0; run < profile.runs; ++run) {
        // One call per run would let a single stall decide a gated stat (it
        // once flipped crossover_m), so each run's times are the median of
        // kTimedCalls calls at its seed; the seed fixes the counts, and mae
        // comes from the first call.
        std::vector<double> wall, decode_s, encode_s;
        for (int call = 0; call < kTimedCalls; ++call) {
          OracleRunStats stats;
          Stopwatch timer;
          const auto counts = oracle->EstimateCounts(matrix_users, width, 0.1,
                                                     500 + run, &stats);
          wall.push_back(timer.ElapsedSeconds());
          PLDP_CHECK(counts.ok()) << counts.status();
          if (call == 0) mae += MaxAbsoluteError(truth, counts.value()).value();
          decode_s.push_back(stats.decode_seconds);
          encode_s.push_back(stats.encode_seconds);
          bytes = stats.bytes_per_report;
        }
        matrix.AddSample(case_name, Median(wall));
        decode += Median(decode_s);
        encode += Median(encode_s);
      }
      mae /= profile.runs;
      decode /= profile.runs;
      encode /= profile.runs;
      matrix.AddCaseStat(case_name, "mae", mae);
      matrix.AddCaseStat(case_name, "bytes_per_report", bytes);
      matrix.AddCaseStat(case_name, "decode_cpu_ms", decode * 1e3);
      matrix.AddCaseStat(case_name, "encode_cpu_ms", encode * 1e3);
      decode_seconds_by_width[width][oracle->Name()] = decode;
      std::printf("%8d %8s %12.1f %14.3f %14.3f %14.3f\n", width,
                  oracle->Name().c_str(), mae, bytes, decode * 1e3,
                  encode * 1e3);
    }
  }
  // The crossover case carries HR's decode time at the largest domain as its
  // sample so the case is well-formed; crossover_m = 0 means HR never won a
  // measured width.
  double crossover_m = 0.0;
  for (const auto& [width, per_oracle] : decode_seconds_by_width) {
    if (per_oracle.at("HR") < per_oracle.at("PCEP")) {
      crossover_m = static_cast<double>(width);
      break;
    }
  }
  matrix.AddSample("hr_vs_pcep", decode_seconds_by_width[65536]["HR"]);
  matrix.AddCaseStat("hr_vs_pcep", "crossover_m", crossover_m);
  std::printf("\nHR decode undercuts PCEP decode from |domain| = %.0f on "
              "(0 = never measured).\n", crossover_m);
  const Status matrix_written = matrix.Write();
  PLDP_CHECK(matrix_written.ok()) << matrix_written.ToString();

  const Status written = report.Write();
  PLDP_CHECK(written.ok()) << written.ToString();
  return 0;
}
