// The daemon's wire path costs no heap allocation per frame (docs/service.md,
// "Allocation budget"). This binary replaces the global operator new with a
// counting one and drives a loopback daemon through one epoch of pipelined
// traffic, counting every allocation of the client and the daemon together
// from the first spec to the last report ack. The budget leaves room for the
// two that remain per user: the daemon's pending-spec hash node and the
// BitVector a client-side RowAssignmentMsg owns.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/epoch_engine.h"
#include "net/server.h"
#include "util/random.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Every variant a non-aligned new or delete expression can reach is
// replaced, so each block is malloc'ed and free'd by the same pair (what
// the sanitizers check). Aligned ones keep the runtime's own pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace pldp {
namespace net {
namespace {

constexpr size_t kUsers = 20000;
constexpr size_t kWindow = 64;
constexpr double kBudgetPerUser = 4.0;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(NetAllocTest, CounterSeesAllocations) {
  // Guards the guard: without the replacement above linked in, every count
  // below would read zero and the budget would hold vacuously.
  const uint64_t before = Allocations();
  std::vector<int>* heap = new std::vector<int>(16);
  delete heap;
  EXPECT_GE(Allocations() - before, 2u);
}

TEST(NetAllocTest, PipelinedEpochStaysWithinTheBudget) {
  const UniformGrid grid =
      UniformGrid::Create(BoundingBox{0, 0, 32, 32}, 1, 1).value();
  const SpatialTaxonomy tax = SpatialTaxonomy::Build(grid, 4).value();
  std::vector<SpecUploadMsg> specs(kUsers);
  Rng rng(2016);
  for (SpecUploadMsg& spec : specs) {
    const auto cell = static_cast<CellId>(rng.NextUint64(grid.num_cells()));
    const auto levels = static_cast<uint32_t>(rng.NextUint64(4));
    spec.safe_region = tax.AncestorAbove(tax.LeafNodeOfCell(cell), levels);
    spec.epsilon = rng.NextUint64(2) == 0 ? 0.5 : 1.0;
  }

  EpochEngineOptions engine_options;
  engine_options.psda.seed = 2016;
  EpochEngine engine(&tax, engine_options);
  NetServerOptions server_options;
  server_options.io_threads = 1;
  NetServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Spec upload: a window of specs in flight, acks read in send order.
  const uint64_t start = Allocations();
  size_t outstanding = 0;
  for (size_t user = 0; user < kUsers; ++user) {
    ASSERT_TRUE(client.SendSpecNoWait(user, specs[user]).ok());
    if (++outstanding == kWindow) {
      for (; outstanding > 0; --outstanding) {
        const StatusOr<bool> accepted = client.ReadSpecAck();
        ASSERT_TRUE(accepted.ok() && *accepted) << accepted.status();
      }
    }
  }
  for (; outstanding > 0; --outstanding) {
    const StatusOr<bool> accepted = client.ReadSpecAck();
    ASSERT_TRUE(accepted.ok() && *accepted) << accepted.status();
  }
  const uint64_t after_specs = Allocations();

  const StatusOr<SealSpecsAckBody> sealed = client.SealSpecs(kUsers);
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  ASSERT_EQ(sealed->spec_responders, kUsers);
  const uint64_t after_seal = Allocations();

  // Report phase: a window of row requests, then the previous window's
  // report acks, the assignments, and a window of reports.
  size_t pending_acks = 0;
  const auto drain_acks = [&] {
    for (; pending_acks > 0; --pending_acks) {
      const StatusOr<ReportOutcome> outcome = client.ReadReportAck();
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      ASSERT_EQ(*outcome, ReportOutcome::kAccepted);
    }
  };
  std::vector<uint8_t> signs;
  signs.reserve(kWindow);
  for (size_t base = 0; base < kUsers; base += kWindow) {
    const size_t end = std::min(base + kWindow, kUsers);
    for (size_t user = base; user < end; ++user) {
      ASSERT_TRUE(client.SendRowRequestNoWait(user).ok());
    }
    drain_acks();
    signs.clear();
    for (size_t user = base; user < end; ++user) {
      const StatusOr<RowAssignmentMsg> assignment = client.ReadAssignment();
      ASSERT_TRUE(assignment.ok()) << assignment.status();
      ASSERT_EQ(assignment->row_bits.size(),
                tax.RegionSize(assignment->region));
      const BitVector& row = assignment->row_bits;
      signs.push_back(row.Get(user % row.size()) ? 1 : 0);
    }
    for (size_t user = base; user < end; ++user) {
      ReportMsg report;
      report.positive = signs[user - base] == 1;
      ASSERT_TRUE(client.SendReportNoWait(user, report).ok());
      ++pending_acks;
    }
  }
  drain_acks();
  const uint64_t after_reports = Allocations();

  const StatusOr<uint64_t> cells = client.SealEpoch();
  ASSERT_TRUE(cells.ok()) << cells.status();
  EXPECT_EQ(*cells, grid.num_cells());
  EXPECT_EQ(engine.stats().reports_staged, kUsers);
  client.Close();
  server.Stop();

  const auto per_user = [](uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(kUsers);
  };
  const double total = per_user(after_reports - start);
  std::printf(
      "allocations per user-epoch: spec upload %.2f, seal_specs %.2f, "
      "report phase %.2f, total %.2f\n",
      per_user(after_specs - start), per_user(after_seal - after_specs),
      per_user(after_reports - after_seal), total);
  EXPECT_LE(total, kBudgetPerUser);
}

}  // namespace
}  // namespace net
}  // namespace pldp
