#include "util/cpu.h"

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>

#include "util/logging.h"

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#define PLDP_CPU_X86 1
#include <cpuid.h>
#endif

namespace pldp {
namespace {

#ifdef PLDP_CPU_X86

/// XCR0 via xgetbv: which register state the OS saves/restores. Encoded as a
/// raw byte sequence so it assembles without -mxsave.
uint64_t ReadXcr0() {
  uint32_t eax = 0;
  uint32_t edx = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

CpuFeatures DetectX86() {
  CpuFeatures features;
  uint32_t eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return features;
  const bool osxsave = (ecx >> 27) & 1;
  const bool avx = (ecx >> 28) & 1;
  const bool fma = (ecx >> 12) & 1;
  if (!osxsave || !avx) return features;  // AVX state not saved by the OS

  const bool ymm_enabled = (ReadXcr0() & 0x6) == 0x6;  // XMM + YMM state
  if (!ymm_enabled) return features;

  uint32_t ebx7 = 0, ecx7 = 0, edx7 = 0;
  uint32_t eax7 = 0;
  if (!__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) return features;
  features.avx2 = (ebx7 >> 5) & 1;
  features.fma = fma;
  return features;
}

#endif  // PLDP_CPU_X86

CpuFeatures Detect() {
#ifdef PLDP_CPU_X86
  return DetectX86();
#else
  return CpuFeatures{};
#endif
}

void AppendFeature(std::string* out, const char* name, bool present) {
  if (!present) return;
  if (!out->empty()) out->push_back(',');
  out->append(name);
}

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

std::string CpuFeaturesSummary() {
  const CpuFeatures& f = GetCpuFeatures();
  std::string out;
  AppendFeature(&out, "avx2", f.avx2);
  AppendFeature(&out, "fma", f.fma);
  return out.empty() ? "none" : out;
}

namespace {

/// NUMA node count from sysfs: the number of node<N> directories. 0 when the
/// hierarchy is absent (non-Linux, or kernels without NUMA).
unsigned CountNumaNodes() {
#if defined(__linux__)
  DIR* dir = opendir("/sys/devices/system/node");
  if (dir == nullptr) return 0;
  unsigned nodes = 0;
  while (const dirent* entry = readdir(dir)) {
    const char* name = entry->d_name;
    if (name[0] == 'n' && name[1] == 'o' && name[2] == 'd' &&
        name[3] == 'e' && std::isdigit(static_cast<unsigned char>(name[4]))) {
      ++nodes;
    }
  }
  closedir(dir);
  return nodes;
#else
  return 0;
#endif
}

unsigned OnlineCpuCount() {
#if defined(__linux__)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
#else
  return 1;
#endif
}

CpuTopology DetectTopology() {
  CpuTopology topology;
  if (const char* env = std::getenv("PLDP_TOPOLOGY_GROUPS");
      env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      topology.num_groups =
          static_cast<unsigned>(parsed > 256 ? 256 : parsed);
      topology.source = "env";
      return topology;
    }
    PLDP_LOG(Warning) << "ignoring invalid PLDP_TOPOLOGY_GROUPS \"" << env
                      << "\" (expected a positive integer)";
  }
  const unsigned nodes = CountNumaNodes();
  if (nodes >= 1) {
    topology.num_groups = nodes;
    topology.source = "numa";
    return topology;
  }
  // No NUMA information: approximate cache domains as one group per 8 online
  // cores, so large machines still split accumulator fan-out into a few
  // locality-sized shards.
  topology.num_groups = (OnlineCpuCount() + 7) / 8;
  if (topology.num_groups == 0) topology.num_groups = 1;
  topology.source = "cache";
  return topology;
}

/// Cached topology, swappable by ResetCpuTopologyForTesting. A plain static
/// would pin the first env reading for the process lifetime, which the
/// topology tests need to undo.
std::atomic<const CpuTopology*> g_topology{nullptr};

}  // namespace

const CpuTopology& GetCpuTopology() {
  const CpuTopology* cached = g_topology.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  static CpuTopology slots[2];
  static std::atomic<int> next_slot{0};
  CpuTopology detected = DetectTopology();
  CpuTopology* slot = &slots[next_slot.fetch_add(1) & 1];
  *slot = detected;
  g_topology.store(slot, std::memory_order_release);
  return *slot;
}

void ResetCpuTopologyForTesting() {
  g_topology.store(nullptr, std::memory_order_release);
}

unsigned TopologyAlignedChunks(unsigned base_chunks) {
  if (base_chunks == 0) return 0;
  const unsigned groups = GetCpuTopology().num_groups;
  if (groups <= 1) return base_chunks;
  const unsigned remainder = base_chunks % groups;
  return remainder == 0 ? base_chunks : base_chunks + (groups - remainder);
}

}  // namespace pldp
