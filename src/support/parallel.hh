/**
 * @file
 * A minimal parallel-for over an index space: up to `threads`
 * std::thread workers pull indices from a shared atomic counter
 * (dynamic work stealing — the space is partitioned, never
 * replicated), so results keyed by index are identical for any
 * thread count. The first exception thrown by any worker stops the
 * pool and is rethrown on the caller after all workers joined.
 * pipelineOrdered adds, on the same work stealing, an ordered step
 * per index and an ordered consumer.
 *
 * Shared by the simulator's BatchMachine, the partitioned compiler
 * and the bench harness.
 */

#ifndef DPU_SUPPORT_PARALLEL_HH
#define DPU_SUPPORT_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dpu {

/** Run fn(0..n-1) on up to `threads` workers; plain loop when <= 1. */
template <typename Fn>
void
parallelFor(size_t n, uint32_t threads, Fn &&fn)
{
    size_t workers = threads;
    if (workers > n)
        workers = n;
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto body = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        pool.emplace_back(body);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

/**
 * Ordered producer/consumer pipeline over an index space: up to
 * `threads` workers take indices in ascending order (atomic-counter
 * work stealing, like parallelFor) and run ordered(i), then
 * produce(i); the calling thread runs consume(i) strictly in
 * ascending index order as soon as produce(i) has completed.
 *
 * ordered(i) waits for its turn: it starts after ordered(i-1) has
 * finished (a turnstile on the index), so it may read and write what
 * lower indices' ordered steps left, while other workers' produce()
 * calls carry on. produce(i) runs out of order and must only touch
 * state private to index i, besides reading what ordered steps up to
 * i wrote. consume(i) may mutate shared state freely — it is never
 * concurrent with another consume and is totally ordered. So every
 * stage's result is identical for any thread count. With threads <= 1
 * the caller simply interleaves ordered(i); produce(i); consume(i) —
 * the canonical sequential pipeline the parallel path must match byte
 * for byte.
 *
 * Exceptions: the first error from any stage stops the pool — workers
 * waiting for their turn give up — and is rethrown on the caller after
 * all workers joined; no further consume() calls are made after a
 * failure.
 */
template <typename Ordered, typename Produce, typename Consume>
void
pipelineOrdered(size_t n, uint32_t threads, Ordered &&ordered,
                Produce &&produce, Consume &&consume)
{
    size_t workers = threads;
    if (workers > n)
        workers = n;
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i) {
            ordered(i);
            produce(i);
            consume(i);
        }
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex mutex; // guards done, turn + first_error, pairs with cv
    std::condition_variable cv;
    std::vector<uint8_t> done(n, 0);
    size_t turn = 0; // the index whose ordered() runs next

    auto record_error = [&]() {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error)
            first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        cv.notify_all();
    };

    auto body = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&]() {
                    return turn == i ||
                           failed.load(std::memory_order_relaxed);
                });
                if (failed.load(std::memory_order_relaxed))
                    return;
            }
            try {
                ordered(i);
            } catch (...) {
                record_error();
                return;
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                turn = i + 1;
            }
            cv.notify_all();
            try {
                produce(i);
            } catch (...) {
                record_error();
                return;
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                done[i] = 1;
            }
            cv.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        pool.emplace_back(body);

    for (size_t i = 0; i < n; ++i) {
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&]() {
                return done[i] != 0 ||
                       failed.load(std::memory_order_relaxed);
            });
            if (failed.load(std::memory_order_relaxed))
                break;
        }
        try {
            consume(i);
        } catch (...) {
            record_error();
            break;
        }
    }

    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace dpu

#endif // DPU_SUPPORT_PARALLEL_HH
