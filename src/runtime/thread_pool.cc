/**
 * @file
 * Thread pool implementation.
 */

#include "runtime/thread_pool.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

#include "common/error.hh"

namespace ascend {
namespace runtime {

namespace {

/**
 * Re-entrancy depth of parallelFor on this thread. Non-zero on pool
 * workers and on callers already inside a loop; such threads execute
 * nested loops serially inline instead of re-entering the pool.
 */
thread_local unsigned tlsLoopDepth = 0;

} // anonymous namespace

unsigned
ThreadPool::configuredThreads()
{
    const char *env = std::getenv("ASCEND_THREADS");
    if (env && *env) {
        // Digits only: strtoul alone would take a sign or blanks.
        char *end = nullptr;
        errno = 0;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(*env)) ||
            *end != '\0' || errno == ERANGE || v > UINT_MAX)
            throwError(ErrorCode::ConfigValidation,
                       "ASCEND_THREADS='%s' is not a non-negative decimal "
                       "integer",
                       env);
        return v <= 1 ? 1u : unsigned(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = configuredThreads();
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    std::shared_ptr<Job> last;
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [&] { return stop_ || (job_ && job_ != last); });
            if (stop_)
                return;
            job = job_;
            last = job;
        }
        runJob(*job);
    }
}

void
ThreadPool::runJob(Job &job)
{
    ++tlsLoopDepth;
    while (true) {
        const std::size_t i = job.next.fetch_add(1);
        if (i >= job.n)
            break;
        try {
            job.fn(i);
        } catch (...) {
            // Keep every failure: dropping all but the first would
            // hide distinct faults from concurrently throwing tasks.
            std::lock_guard<std::mutex> lock(job.errorMutex);
            job.errors.push_back(std::current_exception());
        }
        if (job.completed.fetch_add(1) + 1 == job.n) {
            // Pair with the waiter's predicate check under mutex_ so
            // the notification cannot slip between check and wait.
            { std::lock_guard<std::mutex> lock(mutex_); }
            idle_.notify_all();
        }
    }
    --tlsLoopDepth;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1 || size() == 1 || tlsLoopDepth > 0) {
        // Serial path: pool disabled, trivial loop, or nested call
        // from inside a running loop (workers must not block on the
        // pool they service).
        ++tlsLoopDepth;
        try {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
        } catch (...) {
            --tlsLoopDepth;
            throw;
        }
        --tlsLoopDepth;
        return;
    }

    auto job = std::make_shared<Job>();
    job->fn = fn;
    job->n = n;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = job;
    }
    wake_.notify_all();

    runJob(*job); // the calling thread participates

    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [&] {
            return job->completed.load() == job->n;
        });
        if (job_ == job)
            job_.reset();
    }
    // All workers are done with the job here; no lock needed.
    if (job->errors.size() == 1)
        std::rethrow_exception(job->errors.front());
    if (job->errors.size() > 1) {
        std::string detail;
        for (const std::exception_ptr &e : job->errors) {
            detail += "\n  - ";
            try {
                std::rethrow_exception(e);
            } catch (const std::exception &ex) {
                detail += ex.what();
            } catch (...) {
                detail += "(non-standard exception)";
            }
        }
        throwError(ErrorCode::ParallelFailure,
                   "%zu parallel tasks failed:%s", job->errors.size(),
                   detail.c_str());
    }
}

namespace {

/** Slot + lock behind globalPool(); swappable by ScopedThreadPoolSize. */
std::mutex &
poolMutex()
{
    static std::mutex m;
    return m;
}

std::unique_ptr<ThreadPool> &
poolSlot()
{
    static std::unique_ptr<ThreadPool> slot;
    return slot;
}

} // anonymous namespace

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(poolMutex());
    if (!poolSlot())
        poolSlot() = std::make_unique<ThreadPool>();
    return *poolSlot();
}

ScopedThreadPoolSize::ScopedThreadPoolSize(unsigned threads)
{
    std::lock_guard<std::mutex> lock(poolMutex());
    poolSlot() = std::make_unique<ThreadPool>(threads);
}

ScopedThreadPoolSize::~ScopedThreadPoolSize()
{
    // Drop the override; the next globalPool() call rebuilds the
    // environment-sized default lazily.
    std::lock_guard<std::mutex> lock(poolMutex());
    poolSlot().reset();
}

} // namespace runtime
} // namespace ascend
