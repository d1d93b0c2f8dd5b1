#ifndef PLDP_UTIL_THREAD_POOL_H_
#define PLDP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pldp {

/// A fixed pool of worker threads with a deterministic ordered-chunk
/// ParallelFor, the parallel-execution substrate of the PCEP hot paths.
///
/// Determinism contract: ParallelFor splits [begin, end) into `num_chunks`
/// contiguous chunks whose boundaries depend only on (begin, end,
/// num_chunks) — never on the pool size or on which worker runs a chunk.
/// Callers that write per-chunk shards and combine them in chunk order
/// therefore get bit-identical results for a fixed chunk count, whether the
/// chunks ran pooled, inline, or nested inside another ParallelFor.
///
/// Nesting: a ParallelFor issued from inside a pool worker runs its chunks
/// inline on that worker (same chunk boundaries, ascending order), so
/// parallel-over-clusters code can freely call parallel-over-rows code
/// without deadlocking on the shared queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is treated as 1). A pool of one thread
  /// spawns no workers at all: every ParallelFor runs inline.
  explicit ThreadPool(unsigned num_threads);

  /// Drains outstanding work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// Runs `body(chunk, chunk_begin, chunk_end)` for every non-empty chunk of
  /// the ordered `num_chunks`-way split of [begin, end), blocking until all
  /// chunks completed. Chunk `i` covers
  /// [begin + size*i/num_chunks, begin + size*(i+1)/num_chunks). The calling
  /// thread participates in executing chunks; completion establishes a
  /// happens-before edge, so the caller may read anything the chunks wrote.
  void ParallelFor(size_t begin, size_t end, unsigned num_chunks,
                   const std::function<void(unsigned chunk, size_t chunk_begin,
                                            size_t chunk_end)>& body);

  /// The lazily constructed process-wide pool, sized from
  /// ConfiguredThreadCount() on first use. Never destroyed.
  static ThreadPool& Global();

  /// The size Global() uses: the PLDP_THREADS environment variable when it
  /// parses to a positive integer (clamped to 256), otherwise the number of
  /// CPUs in the calling thread's affinity mask (sched_getaffinity), else
  /// hardware_concurrency (1 when unknown).
  static unsigned ConfiguredThreadCount();

  /// True while the calling thread is executing a chunk of some ParallelFor
  /// of this pool (used to run nested calls inline).
  bool InWorker() const;

 private:
  struct ForLoop;

  void WorkerMain();
  /// Issuer-side helper: claims and runs chunks of `loop` until none remain.
  void RunChunks(ForLoop* loop);
  /// Runs one already-claimed chunk (computes its bounds, sets the nesting
  /// TLS, invokes the body).
  void ExecuteChunk(ForLoop* loop, unsigned chunk);

  unsigned num_threads_ = 1;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<ForLoop*> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pldp

#endif  // PLDP_UTIL_THREAD_POOL_H_
