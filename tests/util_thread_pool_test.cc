#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace pldp {
namespace {

/// Runs a ParallelFor and records every (chunk, begin, end) triple it saw.
std::vector<std::tuple<unsigned, size_t, size_t>> RecordChunks(
    ThreadPool& pool, size_t begin, size_t end, unsigned num_chunks) {
  std::mutex mu;
  std::vector<std::tuple<unsigned, size_t, size_t>> chunks;
  pool.ParallelFor(begin, end, num_chunks,
                   [&](unsigned chunk, size_t chunk_begin, size_t chunk_end) {
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.emplace_back(chunk, chunk_begin, chunk_end);
                   });
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

TEST(ThreadPoolTest, ChunksPartitionTheRangeExactly) {
  ThreadPool pool(4);
  for (const auto& [begin, end, num_chunks] :
       std::vector<std::tuple<size_t, size_t, unsigned>>{
           {0, 100, 4}, {7, 19, 3}, {0, 5, 8}, {0, 1, 1}, {3, 1000, 7}}) {
    const auto chunks = RecordChunks(pool, begin, end, num_chunks);
    // Non-empty chunks only, ascending, covering [begin, end) exactly.
    size_t cursor = begin;
    for (const auto& [chunk, chunk_begin, chunk_end] : chunks) {
      EXPECT_EQ(chunk_begin, cursor);
      EXPECT_LT(chunk_begin, chunk_end);
      // The documented boundary formula.
      const size_t size = end - begin;
      EXPECT_EQ(chunk_begin, begin + size * chunk / num_chunks);
      EXPECT_EQ(chunk_end, begin + size * (chunk + 1) / num_chunks);
      cursor = chunk_end;
    }
    EXPECT_EQ(cursor, end);
  }
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfPoolSize) {
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  const auto a = RecordChunks(one, 11, 977, 5);
  const auto b = RecordChunks(two, 11, 977, 5);
  const auto c = RecordChunks(eight, 11, 977, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ThreadPoolTest, EveryElementVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kSize = 10000;
  std::vector<std::atomic<int>> visits(kSize);
  pool.ParallelFor(0, kSize, 16, [&](unsigned, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kSize; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, EmptyRangeNeverCallsBody) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, 4, [&](unsigned, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, 10, 4, [&](unsigned, size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithSameChunks) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::tuple<unsigned, size_t, size_t>> nested;
  pool.ParallelFor(0, 2, 2, [&](unsigned, size_t begin, size_t end) {
    EXPECT_TRUE(pool.InWorker());
    const std::thread::id outer_thread = std::this_thread::get_id();
    for (size_t c = begin; c < end; ++c) {
      pool.ParallelFor(
          10, 30, 3, [&](unsigned chunk, size_t chunk_begin, size_t chunk_end) {
            // Nested chunks stay on the issuing worker thread.
            EXPECT_EQ(std::this_thread::get_id(), outer_thread);
            std::lock_guard<std::mutex> lock(mu);
            nested.emplace_back(chunk, chunk_begin, chunk_end);
          });
    }
  });
  std::sort(nested.begin(), nested.end());
  // Two nested calls, each covering [10, 30) in 3 chunks.
  ThreadPool reference(1);
  auto expected = RecordChunks(reference, 10, 30, 3);
  auto doubled = expected;
  doubled.insert(doubled.end(), expected.begin(), expected.end());
  std::sort(doubled.begin(), doubled.end());
  EXPECT_EQ(nested, doubled);
}

TEST(ThreadPoolTest, ConcurrentIssuersShareThePool) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  std::vector<std::thread> issuers;
  issuers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    issuers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        pool.ParallelFor(0, 64, 8, [&](unsigned, size_t begin, size_t end) {
          total.fetch_add(end - begin, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : issuers) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 64u);
}

/// The CPUs the calling thread may run on: what the pool falls back to.
unsigned AffinityCount() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&allowed));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

TEST(ThreadPoolTest, ConfiguredThreadCountHonorsEnvOverride) {
  ::setenv("PLDP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 3u);
  ::setenv("PLDP_THREADS", "100000", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 256u);
  // Unparsable / non-positive values fall back to the affinity mask.
  const unsigned fallback = AffinityCount();
  ::setenv("PLDP_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), fallback);
  ::setenv("PLDP_THREADS", "garbage", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), fallback);
  ::unsetenv("PLDP_THREADS");
  EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), fallback);
}

TEST(ThreadPoolTest, ConfiguredThreadCountFollowsTheAffinityMask) {
  // A process pinned to one CPU gets a one-thread pool, whatever the
  // machine's CPU count: wider, its workers would queue behind each other.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const char* env = std::getenv("PLDP_THREADS");
  const std::string saved_env = env != nullptr ? env : "";
  ::unsetenv("PLDP_THREADS");
  const unsigned pinned = ThreadPool::ConfiguredThreadCount();
  if (env != nullptr) ::setenv("PLDP_THREADS", saved_env.c_str(), 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(ThreadPoolTest, GlobalIsASingleton) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(ThreadPoolTest, CompletionEstablishesHappensBefore) {
  ThreadPool pool(4);
  // Plain (non-atomic) writes must be visible to the issuer afterwards.
  std::vector<int> data(1000, 0);
  pool.ParallelFor(0, data.size(), 8, [&](unsigned, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) data[i] = static_cast<int>(i);
  });
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace pldp
