/**
 * @file
 * A minimal parallel-for over an index space: up to `threads`
 * std::thread workers pull indices from a shared atomic counter
 * (dynamic work stealing — the space is partitioned, never
 * replicated), so results keyed by index are identical for any
 * thread count. The first exception thrown by any worker stops the
 * pool and is rethrown on the caller after all workers joined.
 * pipelineOrdered adds, on the same work stealing, an unordered
 * lead-in stage per index, then an ordered step, an unordered producer
 * and an ordered consumer, so one pool of `threads` workers streams
 * the first stage into the ordered chain without a barrier between
 * them.
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
 * Ordered producer/consumer pipeline over an index space, with an
 * unordered lead-in stage. Up to `threads` workers claim tickets from
 * one atomic counter (work stealing, like parallelFor): first every
 * pre(i), then every pipeline index i, in ascending order, for which
 * a worker runs ordered(i), then produce(i). The calling thread runs
 * consume(i) strictly in ascending index order as soon as produce(i)
 * has completed.
 *
 * - pre(i) runs unordered and may only touch state private to index i,
 *   unless it synchronizes itself (the compiler's last pre(), found by
 *   an atomic countdown, derives shared state that only produce()
 *   reads).
 * - ordered(i) starts once pre(i) and ordered(i-1) have finished (a
 *   turnstile on the index), so it may read and write what lower
 *   indices' ordered steps left, while other pre() and produce()
 *   calls carry on. ordered(0) can thus start while later pre() calls
 *   still run.
 * - produce(i) starts once every pre() has finished, and runs out of
 *   order: it may read what any pre() and the ordered steps up to i
 *   wrote, and must only write state private to index i.
 * - consume(i) may mutate shared state freely — it is never concurrent
 *   with another consume and is totally ordered.
 *
 * Every pre() ticket is claimed before any pipeline ticket and a pre()
 * never waits, so no worker waits on a stage nobody runs. Each stage's
 * result is identical for any thread count. With threads <= 1 the
 * caller runs every pre(i) and then interleaves ordered(i);
 * produce(i); consume(i) — the canonical sequential pipeline the
 * parallel path must match byte for byte.
 *
 * Exceptions: the first error from any stage stops the pool — workers
 * waiting for their turn give up — and is rethrown on the caller after
 * all workers joined; no further consume() calls are made after a
 * failure.
 */
template <typename Pre, typename Ordered, typename Produce, typename Consume>
void
pipelineOrdered(size_t n, uint32_t threads, Pre &&pre, Ordered &&ordered,
                Produce &&produce, Consume &&consume)
{
    size_t workers = threads;
    if (workers > n)
        workers = n;
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            pre(i);
        for (size_t i = 0; i < n; ++i) {
            ordered(i);
            produce(i);
            consume(i);
        }
        return;
    }

    // Tickets [0, n) run pre(i); tickets [n, 2n) run index i - n.
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    // Guards pre_done, pre_left, turn, done and first_error; pairs
    // with cv.
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<uint8_t> pre_done(n, 0), done(n, 0);
    size_t pre_left = n; // pre() calls not yet finished
    size_t turn = 0;     // the index whose ordered() runs next

    auto record_error = [&]() {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error)
            first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        cv.notify_all();
    };
    // Wait under the lock until `ready` holds; false on a failure.
    auto wait_for = [&](auto &&ready) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() {
            return ready() || failed.load(std::memory_order_relaxed);
        });
        return !failed.load(std::memory_order_relaxed);
    };
    // Run stage(i), then mark it under the lock; false on a failure.
    auto run = [&](auto &&stage, size_t i, auto &&mark) {
        try {
            stage(i);
        } catch (...) {
            record_error();
            return false;
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            mark();
        }
        cv.notify_all();
        return true;
    };

    auto body = [&]() {
        for (;;) {
            size_t t = next.fetch_add(1);
            if (t >= 2 * n || failed.load(std::memory_order_relaxed))
                return;
            if (t < n) {
                if (!run(pre, t, [&] {
                        pre_done[t] = 1;
                        --pre_left;
                    }))
                    return;
                continue;
            }
            const size_t i = t - n;
            if (!wait_for([&] { return turn == i && pre_done[i]; }) ||
                !run(ordered, i, [&] { turn = i + 1; }) ||
                !wait_for([&] { return pre_left == 0; }) ||
                !run(produce, i, [&] { done[i] = 1; }))
                return;
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        pool.emplace_back(body);

    for (size_t i = 0; i < n; ++i) {
        if (!wait_for([&] { return done[i] != 0; }))
            break;
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
