// Micro-benchmarks for the PCEP building blocks (Section IV-A complexity):
// O(1) client-side perturbation, row generation, and the server-side decode.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/local_randomizer.h"
#include "core/pcep.h"
#include "core/pcep_decode.h"
#include "core/pcep_encode.h"
#include "core/sign_matrix.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace pldp {
namespace {

void BM_LocalRandomize(benchmark::State& state) {
  Rng rng(1);
  const double epsilon = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LocalRandomize(true, 1 << 20, epsilon, &rng).value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalRandomize)->Arg(25)->Arg(100);

void BM_SignMatrixRowWord(benchmark::State& state) {
  const SignMatrix matrix(7, 1 << 20, 4096);
  uint64_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.RowWord(row, row & 63));
    ++row;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SignMatrixRowWord);

void BM_SignMatrixRow(benchmark::State& state) {
  const uint64_t width = state.range(0);
  const SignMatrix matrix(7, 1 << 20, width);
  uint64_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.Row(row++));
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_SignMatrixRow)->Arg(64)->Arg(1024)->Arg(16384);

void BM_PcepClientPath(benchmark::State& state) {
  // The full on-device work: pick own bit from the row, randomize it.
  const uint64_t width = state.range(0);
  const SignMatrix matrix(7, 1 << 16, width);
  const BitVector row = matrix.Row(42);
  Rng rng(3);
  uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LocalRandomizeRow(row, index++ % width, 1 << 16, 1.0, &rng).value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PcepClientPath)->Arg(64)->Arg(4096);

/// Decode-rate counters: rows/s over the touched-row stream and the
/// effective GB/s of count updates (8 bytes per decoded cell). Both are
/// named *throughput so pldp_benchdiff treats them as higher-is-better.
void SetDecodeThroughput(benchmark::State& state, const PcepServer& server) {
  const auto rows = static_cast<double>(server.num_touched_rows());
  const double cells = rows * static_cast<double>(server.tau_size());
  state.counters["decode_rows_throughput"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * rows,
      benchmark::Counter::kIsRate);
  state.counters["decode_gb_throughput"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * cells * 8.0 / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_PcepServerDecode(benchmark::State& state) {
  const uint64_t n = state.range(0);
  const uint64_t tau = state.range(1);
  PcepParams params;
  PcepServer server = PcepServer::Create(tau, n, params).value();
  Rng rng(5);
  for (uint64_t i = 0; i < n; ++i) {
    server.Accumulate(server.AssignRow(&rng), rng.Bernoulli(0.5) ? 3.0 : -3.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["m"] = static_cast<double>(server.m());
  SetDecodeThroughput(state, server);
}
BENCHMARK(BM_PcepServerDecode)
    ->Args({1000, 64})
    ->Args({10000, 64})
    ->Args({10000, 1024})
    ->Args({50000, 4096})
    ->Args({50000, 16384});

/// Per-kernel decode cases at the reference configuration (n=50k,
/// |tau|=16384), forced through the PLDP_DECODE_KERNEL override so the full
/// Estimate path (gather, scratch, counters) is what gets measured — the
/// same A/B a benchdiff driver runs with the env set externally. The cases
/// are named decode_scalar / decode_avx2 in BENCH_micro_pcep.json so
/// pldp_benchdiff gates both kernels' decode_rows_throughput /
/// decode_gb_throughput independently.
const PcepServer& SharedDecodeServer() {
  static const PcepServer* server = [] {
    const uint64_t n = 50000;
    const uint64_t tau = 16384;
    PcepParams params;
    auto* loaded = new PcepServer(PcepServer::Create(tau, n, params).value());
    Rng rng(5);
    for (uint64_t i = 0; i < n; ++i) {
      loaded->Accumulate(loaded->AssignRow(&rng),
                         rng.Bernoulli(0.5) ? 3.0 : -3.0);
    }
    return loaded;
  }();
  return *server;
}

/// Seconds per Estimate() of the scalar case, stashed so the avx2 case
/// (registered and therefore run afterwards) can record the measured
/// scalar-vs-SIMD ratio as its speedup_vs_scalar stat.
double g_scalar_decode_seconds = 0.0;

void RunDecodeKernelCase(benchmark::State& state, DecodeKernel kernel) {
  if (!DecodeKernelAvailable(kernel)) {
    state.SkipWithError("kernel unavailable on this host/build");
    return;
  }
  setenv("PLDP_DECODE_KERNEL", DecodeKernelName(kernel), 1);
  ResetDecodeKernelForTesting();
  const PcepServer& server = SharedDecodeServer();
  Stopwatch timer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Estimate());
  }
  const double seconds_per_iter =
      timer.ElapsedSeconds() / static_cast<double>(state.iterations());
  unsetenv("PLDP_DECODE_KERNEL");
  ResetDecodeKernelForTesting();

  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(server.num_touched_rows()));
  SetDecodeThroughput(state, server);
  if (kernel == DecodeKernel::kScalar) {
    g_scalar_decode_seconds = seconds_per_iter;
  } else if (g_scalar_decode_seconds > 0.0 && seconds_per_iter > 0.0) {
    state.counters["speedup_vs_scalar"] =
        g_scalar_decode_seconds / seconds_per_iter;
  }
}

void BM_PcepDecodeScalar(benchmark::State& state) {
  RunDecodeKernelCase(state, DecodeKernel::kScalar);
}
BENCHMARK(BM_PcepDecodeScalar)->Name("decode_scalar");

void BM_PcepDecodeAvx2(benchmark::State& state) {
  RunDecodeKernelCase(state, DecodeKernel::kAvx2);
}
BENCHMARK(BM_PcepDecodeAvx2)->Name("decode_avx2");

/// Shared input for the forced-kernel encode cases: the reference
/// configuration (n=50k users, |tau|=16384, m=2^16) with mixed epsilons, the
/// same shape RunPcepCollection feeds EncodeUserRange per chunk.
struct EncodeFixture {
  uint64_t m = 1 << 16;
  SignMatrix matrix{7, 1 << 16, 16384};
  SeedSchedule schedule{11, PcepSeeds::kClientSeedStride};
  std::vector<PcepUser> users;
  std::vector<uint64_t> rows;
  std::vector<double> out;
};

EncodeFixture& SharedEncodeFixture() {
  static EncodeFixture* fixture = [] {
    auto* f = new EncodeFixture;
    const uint64_t n = 50000;
    const uint64_t tau = 16384;
    Rng rng(5);
    f->users.reserve(n);
    f->rows.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      f->users.push_back({static_cast<uint32_t>(rng.NextUint64(tau)),
                          rng.Bernoulli(0.5) ? 0.25 : 1.0});
      f->rows.push_back(rng.NextUint64(f->m));
    }
    f->out.assign(n, 0.0);
    return f;
  }();
  return *fixture;
}

/// Seconds per EncodeUserRange of the scalar case, stashed so the avx2 case
/// can record the measured scalar-vs-SIMD ratio as speedup_vs_scalar.
double g_scalar_encode_seconds = 0.0;

/// Per-kernel encode cases forced through PLDP_ENCODE_KERNEL, measuring the
/// full EncodeUserRange path. encode_scalar runs the sequential reference
/// (real SignAt + LocalRandomize per user, exp() included); encode_avx2
/// runs the batched closed-form SIMD path — so speedup_vs_scalar is the
/// speedup of batched SIMD encode over the sequential path it replaced.
/// Named encode_scalar / encode_avx2 in BENCH_micro_pcep.json;
/// encode_users_per_sec is the stat the benchdiff gate classifies
/// (higher-is-better via the per_sec token).
void RunEncodeKernelCase(benchmark::State& state, EncodeKernel kernel) {
  if (!EncodeKernelAvailable(kernel)) {
    state.SkipWithError("kernel unavailable on this host/build");
    return;
  }
  setenv("PLDP_ENCODE_KERNEL", EncodeKernelName(kernel), 1);
  ResetEncodeKernelForTesting();
  EncodeFixture& fixture = SharedEncodeFixture();
  Stopwatch timer;
  for (auto _ : state) {
    const Status status = EncodeUserRange(
        fixture.matrix, fixture.m, fixture.schedule, fixture.users.data(),
        fixture.rows.data(), 0, fixture.users.size(), nullptr,
        fixture.out.data());
    if (!status.ok()) {
      state.SkipWithError(status.message().c_str());
      break;
    }
    benchmark::DoNotOptimize(fixture.out.data());
    benchmark::ClobberMemory();
  }
  const double seconds_per_iter =
      timer.ElapsedSeconds() / static_cast<double>(state.iterations());
  unsetenv("PLDP_ENCODE_KERNEL");
  ResetEncodeKernelForTesting();

  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.users.size()));
  state.counters["encode_users_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(fixture.users.size()),
      benchmark::Counter::kIsRate);
  if (kernel == EncodeKernel::kScalar) {
    g_scalar_encode_seconds = seconds_per_iter;
  } else if (g_scalar_encode_seconds > 0.0 && seconds_per_iter > 0.0) {
    state.counters["speedup_vs_scalar"] =
        g_scalar_encode_seconds / seconds_per_iter;
  }
}

void BM_PcepEncodeScalar(benchmark::State& state) {
  RunEncodeKernelCase(state, EncodeKernel::kScalar);
}
BENCHMARK(BM_PcepEncodeScalar)->Name("encode_scalar");

void BM_PcepEncodeAvx2(benchmark::State& state) {
  RunEncodeKernelCase(state, EncodeKernel::kAvx2);
}
BENCHMARK(BM_PcepEncodeAvx2)->Name("encode_avx2");

void BM_PcepServerDecodeParallel(benchmark::State& state) {
  const uint64_t n = 50000;
  const uint64_t tau = 16384;
  PcepParams params;
  PcepServer server = PcepServer::Create(tau, n, params).value();
  Rng rng(5);
  for (uint64_t i = 0; i < n; ++i) {
    server.Accumulate(server.AssignRow(&rng), rng.Bernoulli(0.5) ? 3.0 : -3.0);
  }
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.EstimateParallel(threads));
  }
  state.SetItemsProcessed(state.iterations() * n);
  SetDecodeThroughput(state, server);
}
BENCHMARK(BM_PcepServerDecodeParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_RunPcepEndToEnd(benchmark::State& state) {
  const uint64_t n = state.range(0);
  const uint64_t tau = state.range(1);
  std::vector<PcepUser> users;
  users.reserve(n);
  Rng rng(9);
  for (uint64_t i = 0; i < n; ++i) {
    users.push_back({static_cast<uint32_t>(rng.NextUint64(tau)), 1.0});
  }
  PcepParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPcep(users, tau, params).value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RunPcepEndToEnd)->Args({10000, 64})->Args({50000, 1024});

}  // namespace
}  // namespace pldp
