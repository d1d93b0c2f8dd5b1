#include "core/frequency_oracle.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace pldp {

namespace internal_oracle {

Status ValidateOracleUsers(const std::vector<PcepUser>& users,
                           uint64_t width) {
  if (users.empty()) {
    return Status::InvalidArgument("oracle needs at least one user");
  }
  if (width == 0) {
    return Status::InvalidArgument("oracle needs a non-empty domain");
  }
  for (const PcepUser& user : users) {
    if (user.location_index >= width) {
      return Status::InvalidArgument("user item outside the domain");
    }
    if (!(user.epsilon > 0.0) || !std::isfinite(user.epsilon)) {
      return Status::InvalidArgument("user epsilon must be positive");
    }
  }
  return Status::OK();
}

}  // namespace internal_oracle

namespace {

using internal_oracle::ValidateOracleUsers;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

StatusOr<std::vector<double>> PcepOracle::EstimateCounts(
    const std::vector<PcepUser>& users, uint64_t width, double beta,
    uint64_t seed, OracleRunStats* stats) const {
  PcepParams params;
  params.beta = beta;
  params.seed = seed;
  params.max_reduced_dimension = max_reduced_dimension_;
  const auto encode_start = std::chrono::steady_clock::now();
  PLDP_ASSIGN_OR_RETURN(const PcepServer server,
                        RunPcepCollection(users, width, params));
  const double encode_seconds = SecondsSince(encode_start);
  // Decode on the shared pool. Called from inside a pool chunk (RunPsda's
  // per-cluster fan-out), EstimateParallel is the serial Estimate(), so
  // PSDA's bits never depend on the pool size. A top-level call decodes in
  // pool-size shards: deterministic for a fixed size, never dependent on
  // scheduling, and PLDP_THREADS=1 reproduces the serial decode exactly.
  const auto decode_start = std::chrono::steady_clock::now();
  StatusOr<std::vector<double>> counts =
      server.EstimateParallel(ThreadPool::Global().num_threads());
  if (stats != nullptr) {
    // One +-1 bit uplink per report; the row assignment is downlink.
    stats->bytes_per_report = 1.0 / 8.0;
    stats->encode_seconds = encode_seconds;
    stats->decode_seconds = SecondsSince(decode_start);
  }
  return counts;
}

StatusOr<std::vector<double>> KrrOracle::EstimateCounts(
    const std::vector<PcepUser>& users, uint64_t width, double beta,
    uint64_t seed, OracleRunStats* stats) const {
  (void)beta;  // kRR has no tunable confidence parameter.
  PLDP_RETURN_IF_ERROR(ValidateOracleUsers(users, width));
  if (stats != nullptr) {
    // The report is one index out of width: ceil(log2(width)) bits.
    double bits = 0.0;
    while ((uint64_t{1} << static_cast<int>(bits)) < width) bits += 1.0;
    stats->bytes_per_report = bits / 8.0;
  }
  if (width == 1) {
    // Degenerate domain: the report is vacuous, the count is public.
    return std::vector<double>{static_cast<double>(users.size())};
  }
  const double k = static_cast<double>(width);

  // Personalized epsilons debias per distinct epsilon value: for users at
  // epsilon e, E[reports of item v] = n_e*q_e + c_e(v)*(p_e - q_e) with
  // p_e = e^eps/(e^eps+k-1), q_e = 1/(e^eps+k-1).
  const auto encode_start = std::chrono::steady_clock::now();
  std::map<double, std::vector<double>> reports_by_eps;
  std::map<double, uint64_t> n_by_eps;
  Rng rng(SplitMix64(seed ^ 0x6B5252));
  for (const PcepUser& user : users) {
    const double e = std::exp(user.epsilon);
    const double keep_probability = e / (e + k - 1.0);
    uint64_t reported = user.location_index;
    if (!rng.Bernoulli(keep_probability)) {
      // Uniform over the other k-1 items.
      const uint64_t other = rng.NextUint64(width - 1);
      reported = other < user.location_index ? other : other + 1;
    }
    auto [it, inserted] =
        reports_by_eps.try_emplace(user.epsilon, std::vector<double>());
    if (inserted) it->second.assign(width, 0.0);
    it->second[reported] += 1.0;
    ++n_by_eps[user.epsilon];
  }
  const double encode_seconds = SecondsSince(encode_start);

  const auto decode_start = std::chrono::steady_clock::now();
  std::vector<double> counts(width, 0.0);
  for (const auto& [epsilon, reports] : reports_by_eps) {
    const double e = std::exp(epsilon);
    const double p = e / (e + k - 1.0);
    const double q = 1.0 / (e + k - 1.0);
    const auto n = static_cast<double>(n_by_eps[epsilon]);
    for (uint64_t v = 0; v < width; ++v) {
      counts[v] += (reports[v] - n * q) / (p - q);
    }
  }
  if (stats != nullptr) {
    stats->encode_seconds = encode_seconds;
    stats->decode_seconds = SecondsSince(decode_start);
  }
  return counts;
}

StatusOr<std::vector<double>> RapporOracle::EstimateCounts(
    const std::vector<PcepUser>& users, uint64_t width, double beta,
    uint64_t seed, OracleRunStats* stats) const {
  (void)beta;
  PLDP_RETURN_IF_ERROR(ValidateOracleUsers(users, width));
  if (num_bloom_bits_ == 0 || num_hashes_ == 0) {
    return Status::InvalidArgument("RAPPOR needs bloom bits and hashes");
  }
  const uint32_t bits = num_bloom_bits_;
  const uint32_t hashes = num_hashes_;

  // Shared, public hash functions: item v sets bit Hash(seed, h, v) % bits.
  const uint64_t hash_seed = SplitMix64(seed ^ 0x4AB0B0);
  auto bloom_bit = [&](uint64_t item, uint32_t h) {
    return static_cast<uint32_t>(
        SplitMix64(hash_seed ^ (item * 0x9E3779B97F4A7C15ULL + h + 1)) % bits);
  };

  // Per distinct epsilon: per-bit report counts.
  const auto encode_start = std::chrono::steady_clock::now();
  std::map<double, std::vector<double>> ones_by_eps;
  std::map<double, uint64_t> n_by_eps;
  Rng rng(SplitMix64(seed ^ 0x4AB0B1));
  std::vector<uint8_t> filter(bits);
  for (const PcepUser& user : users) {
    std::fill(filter.begin(), filter.end(), 0);
    for (uint32_t h = 0; h < hashes; ++h) {
      filter[bloom_bit(user.location_index, h)] = 1;
    }
    // Binary randomized response per bit at budget eps/(2*hashes): keep the
    // true bit with probability e'/(e'+1).
    const double e_bit = std::exp(user.epsilon / (2.0 * hashes));
    const double keep = e_bit / (e_bit + 1.0);
    auto [it, inserted] =
        ones_by_eps.try_emplace(user.epsilon, std::vector<double>());
    if (inserted) it->second.assign(bits, 0.0);
    std::vector<double>& ones = it->second;
    for (uint32_t j = 0; j < bits; ++j) {
      const bool truth = filter[j] != 0;
      const bool reported = rng.Bernoulli(keep) ? truth : !truth;
      if (reported) ones[j] += 1.0;
    }
    ++n_by_eps[user.epsilon];
  }
  const double encode_seconds = SecondsSince(encode_start);

  // Debias each bit position per epsilon: E[ones_j] = t_j*keep +
  // (n - t_j)*(1 - keep) where t_j is the true number of users whose filter
  // sets bit j.
  const auto decode_start = std::chrono::steady_clock::now();
  std::vector<double> bit_counts(bits, 0.0);
  for (const auto& [epsilon, ones] : ones_by_eps) {
    const double e_bit = std::exp(epsilon / (2.0 * hashes));
    const double keep = e_bit / (e_bit + 1.0);
    const auto n = static_cast<double>(n_by_eps[epsilon]);
    for (uint32_t j = 0; j < bits; ++j) {
      bit_counts[j] += (ones[j] - n * (1.0 - keep)) / (2.0 * keep - 1.0);
    }
  }

  // Score an item by the mean of its bit positions (no regression; Bloom
  // collisions bias this upward - see the class comment).
  std::vector<double> counts(width, 0.0);
  for (uint64_t v = 0; v < width; ++v) {
    double total = 0.0;
    for (uint32_t h = 0; h < hashes; ++h) {
      total += bit_counts[bloom_bit(v, h)];
    }
    counts[v] = total / hashes;
  }
  if (stats != nullptr) {
    stats->bytes_per_report = static_cast<double>(bits) / 8.0;
    stats->encode_seconds = encode_seconds;
    stats->decode_seconds = SecondsSince(decode_start);
  }
  return counts;
}

std::unique_ptr<FrequencyOracle> MakeOracle(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "pcep") return std::make_unique<PcepOracle>();
  if (lower == "krr") return std::make_unique<KrrOracle>();
  if (lower == "rappor") return std::make_unique<RapporOracle>();
  if (lower == "olh") return std::make_unique<OlhOracle>();
  if (lower == "oue") return std::make_unique<OueOracle>();
  if (lower == "hr" || lower == "hadamard") {
    return std::make_unique<HadamardOracle>();
  }
  return nullptr;
}

}  // namespace pldp
