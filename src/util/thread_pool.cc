#include "util/thread_pool.h"

#include <sched.h>

#include <cstdlib>

namespace pldp {
namespace {

/// The pool whose ParallelFor chunk the calling thread is currently
/// executing, if any; lets nested calls on the same pool run inline.
thread_local const ThreadPool* tls_current_pool = nullptr;

}  // namespace

/// One in-flight ParallelFor. Lives on the issuing thread's stack; workers
/// only touch it between claiming a chunk under the pool mutex and reporting
/// completion under the same mutex, so the issuer can destroy it as soon as
/// every chunk completed.
struct ThreadPool::ForLoop {
  const std::function<void(unsigned, size_t, size_t)>* body = nullptr;
  size_t begin = 0;
  size_t end = 0;
  unsigned num_chunks = 1;
  unsigned next_chunk = 0;       // guarded by ThreadPool::mu_
  unsigned completed_chunks = 0; // guarded by ThreadPool::mu_
  std::condition_variable done;
};

ThreadPool::ThreadPool(unsigned num_threads)
    : num_threads_(num_threads == 0 ? 1 : num_threads) {
  // A one-thread pool runs everything inline; spawning a lone worker would
  // only add handoff latency.
  if (num_threads_ < 2) return;
  workers_.reserve(num_threads_);
  for (unsigned t = 0; t < num_threads_; ++t) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InWorker() const { return tls_current_pool == this; }

unsigned ThreadPool::ConfiguredThreadCount() {
  if (const char* env = std::getenv("PLDP_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return parsed > 256 ? 256u : static_cast<unsigned>(parsed);
    }
  }
  // The CPUs this process may run on, not the machine's: a pool wider than
  // the affinity mask only queues its workers behind each other (and behind
  // the daemon's I/O loop when that shares the CPU).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<unsigned>(count);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ThreadPool& ThreadPool::Global() {
  // Heap-allocated and never destroyed, like the obs collectors: worker
  // threads must not be joined during static teardown.
  static ThreadPool* pool = new ThreadPool(ConfiguredThreadCount());
  return *pool;
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end, unsigned num_chunks,
    const std::function<void(unsigned, size_t, size_t)>& body) {
  if (end <= begin) return;
  if (num_chunks == 0) num_chunks = 1;
  const size_t size = end - begin;

  const auto chunk_bounds = [begin, size, num_chunks](unsigned chunk) {
    return std::pair<size_t, size_t>(
        begin + size * chunk / num_chunks,
        begin + size * (chunk + 1) / num_chunks);
  };

  // Inline path: single chunk, no workers, or nested inside one of this
  // pool's chunks. Boundaries and order are identical to the pooled path.
  if (num_chunks == 1 || workers_.empty() || InWorker()) {
    for (unsigned chunk = 0; chunk < num_chunks; ++chunk) {
      const auto [chunk_begin, chunk_end] = chunk_bounds(chunk);
      if (chunk_begin >= chunk_end) continue;
      const ThreadPool* previous = tls_current_pool;
      tls_current_pool = this;
      body(chunk, chunk_begin, chunk_end);
      tls_current_pool = previous;
    }
    return;
  }

  ForLoop loop;
  loop.body = &body;
  loop.begin = begin;
  loop.end = end;
  loop.num_chunks = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(&loop);
  }
  work_ready_.notify_all();

  // The issuing thread claims chunks alongside the workers, then blocks
  // until the last claimed chunk reports completion.
  RunChunks(&loop);
  std::unique_lock<std::mutex> lock(mu_);
  loop.done.wait(lock, [&loop] {
    return loop.completed_chunks == loop.num_chunks;
  });
  // The loop object dies with this frame: make sure no stale pointer to it
  // survives in the queue (workers pop exhausted loops lazily).
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == &loop) {
      queue_.erase(it);
      break;
    }
  }
}

void ThreadPool::ExecuteChunk(ForLoop* loop, unsigned chunk) {
  // The immutable fields (begin/end/num_chunks/body) were published by the
  // issuer's enqueue under mu_ and are never written afterwards, so reading
  // them outside the lock is safe for any thread holding a claimed chunk.
  const size_t size = loop->end - loop->begin;
  const size_t chunk_begin = loop->begin + size * chunk / loop->num_chunks;
  const size_t chunk_end = loop->begin + size * (chunk + 1) / loop->num_chunks;
  if (chunk_begin >= chunk_end) return;
  const ThreadPool* previous = tls_current_pool;
  tls_current_pool = this;
  (*loop->body)(chunk, chunk_begin, chunk_end);
  tls_current_pool = previous;
}

void ThreadPool::RunChunks(ForLoop* loop) {
  // Issuer-only: `loop` lives in the caller's frame, so unlike the workers
  // it may keep using the pointer between claims without liveness concerns.
  for (;;) {
    unsigned chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (loop->next_chunk >= loop->num_chunks) return;
      chunk = loop->next_chunk++;
      if (loop->next_chunk == loop->num_chunks && !queue_.empty() &&
          queue_.front() == loop) {
        queue_.pop_front();
      }
    }
    ExecuteChunk(loop, chunk);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++loop->completed_chunks;
      if (loop->completed_chunks == loop->num_chunks) {
        // Notify under the lock: the issuer may destroy the loop (and its
        // condition variable) the moment it observes full completion.
        loop->done.notify_all();
        return;
      }
    }
  }
}

void ThreadPool::WorkerMain() {
  // A worker must claim a chunk in the same critical section in which it
  // reads the loop off the queue: once a chunk is claimed the loop cannot
  // reach full completion (and be destroyed by its issuer) until the claim
  // is reported back. Reading the pointer and claiming in separate critical
  // sections would leave a window where another thread finishes the loop
  // and the pointer dangles.
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with no pending work
    ForLoop* loop = queue_.front();
    if (loop->next_chunk >= loop->num_chunks) {
      // Fully claimed but not yet finished: retire it from the queue so
      // waiters don't spin on it, and look for other work.
      queue_.pop_front();
      continue;
    }
    const unsigned chunk = loop->next_chunk++;
    if (loop->next_chunk == loop->num_chunks) queue_.pop_front();
    lock.unlock();
    ExecuteChunk(loop, chunk);
    lock.lock();
    ++loop->completed_chunks;
    if (loop->completed_chunks == loop->num_chunks) loop->done.notify_all();
    // `loop` may be destroyed the moment the issuer observes completion;
    // don't touch it past this point.
  }
}

}  // namespace pldp
