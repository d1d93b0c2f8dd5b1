/// Hadamard response (HR) frequency-oracle backend — the large-domain
/// specialist of the backend matrix. Protocol (class comment in
/// core/frequency_oracle.h):
///
///   client u:  draw j_u uniform in [0, K), K = PadToPowerOfTwo(width);
///              s = H[j_u, v_u] = (-1)^popcount(j_u & v_u);
///              report s unchanged with probability p_u = e^eps/(e^eps+1),
///              flipped otherwise  (log2(K) + 1 bits uplink).
///   server:    a[j_u] += report / (2*p_u - 1);   counts = Fwht(a).
///
/// Unbiasedness: E[report | j_u] = (2p_u - 1) * H[j_u, v_u], and for a
/// uniform row  E_j[H[v, j] * H[j, v_u]] = 1[v = v_u]  (Hadamard rows are
/// orthogonal, K columns cancel in pairs), so each user contributes exactly
/// its indicator in expectation. The per-user weight 1/(2p_u - 1) makes the
/// personalization per-report — no epsilon grouping, ONE transform per
/// cohort — and the whole decode is O(n + K log K) through the FWHT
/// (core/fwht.h), which is the crossover against PCEP's per-report decode at
/// large |tau|.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/frequency_oracle.h"
#include "core/fwht.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace pldp {

StatusOr<std::vector<double>> HadamardOracle::EstimateCounts(
    const std::vector<PcepUser>& users, uint64_t width, double beta,
    uint64_t seed, OracleRunStats* stats) const {
  (void)beta;  // HR has no tunable confidence parameter.
  PLDP_RETURN_IF_ERROR(internal_oracle::ValidateOracleUsers(users, width));
  static obs::Counter* reports_counter =
      obs::MetricsRegistry::Global().GetCounter("oracle.reports");
  reports_counter->Increment(users.size());
  if (width == 1) {
    // Degenerate domain: the report is vacuous, the count is public.
    if (stats != nullptr) *stats = OracleRunStats{};
    return std::vector<double>{static_cast<double>(users.size())};
  }
  const uint64_t k = PadToPowerOfTwo(width);
  double index_bits = 0.0;
  while ((uint64_t{1} << static_cast<int>(index_bits)) < k) index_bits += 1.0;

  // Encode: one row draw + one binary randomized response per user.
  const auto encode_start = std::chrono::steady_clock::now();
  Rng rng(SplitMix64(seed ^ 0x485244));  // "HRD"
  std::vector<uint64_t> rows(users.size());
  std::vector<double> sent(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    const uint64_t j = rng.NextUint64(k);
    const double truth =
        __builtin_popcountll(j & users[i].location_index) % 2 == 0 ? 1.0
                                                                   : -1.0;
    const double e = std::exp(users[i].epsilon);
    const double keep = e / (e + 1.0);
    rows[i] = j;
    sent[i] = rng.Bernoulli(keep) ? truth : -truth;
  }
  const double encode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    encode_start)
          .count();

  // Decode: weighted accumulate, then one fast Walsh-Hadamard transform.
  const auto decode_start = std::chrono::steady_clock::now();
  std::vector<double> accumulator(k, 0.0);
  for (size_t i = 0; i < users.size(); ++i) {
    const double e = std::exp(users[i].epsilon);
    const double keep = e / (e + 1.0);
    accumulator[rows[i]] += sent[i] / (2.0 * keep - 1.0);
  }
  Fwht(accumulator.data(), k);
  // Indices [width, K) are padding; no user holds them, their estimates are
  // pure noise, and the caller contract is a width-long vector.
  std::vector<double> counts(accumulator.begin(), accumulator.begin() + width);
  const double decode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    decode_start)
          .count();
  static obs::Gauge* decode_gauge =
      obs::MetricsRegistry::Global().GetGauge("oracle.decode_seconds");
  decode_gauge->Add(decode_seconds);
  if (stats != nullptr) {
    stats->bytes_per_report = (index_bits + 1.0) / 8.0;
    stats->encode_seconds = encode_seconds;
    stats->decode_seconds = decode_seconds;
  }
  return counts;
}

}  // namespace pldp
