/**
 * @file
 * Shared worker-thread pool with deterministic fan-out.
 *
 * The simulation hot path is embarrassingly parallel at two levels:
 * config sweeps (one simulation per design point) and per-layer
 * network profiling (one simulation per layer). Both demand the same
 * contract, which this pool provides:
 *
 *  - parallelFor(n, fn) runs fn(0..n-1) across the workers and the
 *    calling thread; results land **by index** in caller-owned
 *    storage, never by completion order, so output is byte-identical
 *    no matter how many threads execute (the benches regenerate
 *    paper figures and must not drift with ASCEND_THREADS);
 *  - exceptions thrown by any iteration are captured and the first
 *    one is rethrown on the calling thread after the loop drains;
 *  - nested parallelFor calls (a parallel sweep whose iterations
 *    profile networks, themselves parallel) degrade to serial inline
 *    execution instead of deadlocking the pool.
 *
 * The ASCEND_THREADS environment variable caps the pool: unset picks
 * the hardware concurrency, 0 or 1 forces serial execution (for CI
 * determinism and debugging), and anything but a non-negative decimal
 * integer is refused.
 */

#ifndef ASCEND_RUNTIME_THREAD_POOL_HH
#define ASCEND_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ascend {
namespace runtime {

/**
 * A fixed-size pool of worker threads executing indexed loops.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Total concurrency including the calling thread;
     *        0 means "use configuredThreads()". A pool of size 1
     *        spawns no workers and runs every loop inline.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (workers + the calling thread). */
    unsigned size() const { return unsigned(workers_.size()) + 1; }

    /**
     * Execute fn(i) for every i in [0, n). Blocks until all
     * iterations complete. If exactly one iteration threw, its
     * exception is rethrown unchanged; if several threw, every
     * failure is aggregated into one ascend::Error with code
     * ParallelFailure (no exception is silently dropped). Safe to
     * call from inside another parallelFor (runs serially).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Map @p items through @p fn concurrently; element i of the
     * result is fn(items[i]). The result type must be default
     * constructible (slots are pre-sized, then assigned by index).
     */
    template <typename T, typename Fn>
    auto
    map(const std::vector<T> &items, Fn &&fn)
        -> std::vector<decltype(fn(items.front()))>
    {
        std::vector<decltype(fn(items.front()))> out(items.size());
        parallelFor(items.size(),
                    [&](std::size_t i) { out[i] = fn(items[i]); });
        return out;
    }

    /**
     * Thread budget from the environment: ASCEND_THREADS if set
     * (0/1 = serial), otherwise std::thread::hardware_concurrency().
     * Throws Error{ConfigValidation} when ASCEND_THREADS is set but
     * not a non-negative decimal integer (e.g. "4x" or "-1").
     */
    static unsigned configuredThreads();

  private:
    /** One fan-out in flight; shared by the caller and the workers. */
    struct Job
    {
        std::function<void(std::size_t)> fn;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> completed{0};
        /** Every captured exception, in completion order. */
        std::vector<std::exception_ptr> errors;
        std::mutex errorMutex;
    };

    void workerLoop();
    void runJob(Job &job);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::shared_ptr<Job> job_;
    bool stop_ = false;
};

/** The process-wide pool, sized by ASCEND_THREADS at first use. */
ThreadPool &globalPool();

/**
 * Test hook: replace the process-wide pool with one of @p threads
 * total concurrency for the lifetime of the scope, then restore the
 * environment-sized default. Lets one process sweep thread counts
 * (the determinism fuzz tests) without respawning under different
 * ASCEND_THREADS. Must only be constructed and destroyed while no
 * parallelFor is in flight.
 */
class ScopedThreadPoolSize
{
  public:
    explicit ScopedThreadPoolSize(unsigned threads);
    ~ScopedThreadPoolSize();

    ScopedThreadPoolSize(const ScopedThreadPoolSize &) = delete;
    ScopedThreadPoolSize &operator=(const ScopedThreadPoolSize &) =
        delete;
};

/** parallelFor on the process-wide pool. */
inline void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    globalPool().parallelFor(n, fn);
}

/** map on the process-wide pool. */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn &&fn)
    -> std::vector<decltype(fn(items.front()))>
{
    return globalPool().map(items, std::forward<Fn>(fn));
}

} // namespace runtime
} // namespace ascend

#endif // ASCEND_RUNTIME_THREAD_POOL_HH
