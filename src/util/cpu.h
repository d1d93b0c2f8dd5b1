#ifndef PLDP_UTIL_CPU_H_
#define PLDP_UTIL_CPU_H_

#include <string>

namespace pldp {

/// Instruction-set extensions detected at runtime via cpuid. On non-x86
/// targets every field is false, so dispatch code falls back to the portable
/// scalar kernels without any platform ifdefs at the call site.
///
/// The AVX fields are only reported true when the OS has enabled the
/// corresponding register state (OSXSAVE + XCR0), so a true `avx2` means the
/// instructions are actually safe to execute, not merely that the silicon
/// has them.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// The host's features, detected once on first call and cached.
const CpuFeatures& GetCpuFeatures();

/// Comma-separated list of the detected features ("avx2,fma"); "none" when
/// nothing relevant is available. For selection logs.
std::string CpuFeaturesSummary();

/// Processor topology used to shard fan-out work so accumulator partials are
/// touched (and thus allocated) near the cores that fill them. `num_groups`
/// is the NUMA node count when /sys exposes one, else a cache-domain
/// approximation derived from the core count. Always >= 1.
struct CpuTopology {
  unsigned num_groups = 1;
  /// "numa" when read from /sys/devices/system/node, "cache" for the
  /// core-count approximation, "env" when PLDP_TOPOLOGY_GROUPS forced it.
  const char* source = "cache";
};

/// The host topology, detected once and cached. PLDP_TOPOLOGY_GROUPS
/// overrides the group count (clamped to [1, 256]) for tests and A/B runs.
const CpuTopology& GetCpuTopology();

/// Drops the cached topology so the next GetCpuTopology() re-reads the
/// environment. Test-only; not thread-safe against concurrent readers.
void ResetCpuTopologyForTesting();

/// Rounds `base_chunks` (>= 1 assumed meaningful; 0 is returned unchanged)
/// up to a multiple of the topology group count so ordered-chunk fan-outs
/// split evenly across NUMA nodes / cache domains. Chunk counts only affect
/// scheduling, never results: every ParallelFor caller in this tree is
/// bit-identical for any chunk count (see docs/performance.md).
unsigned TopologyAlignedChunks(unsigned base_chunks);

}  // namespace pldp

#endif  // PLDP_UTIL_CPU_H_
