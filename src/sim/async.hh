/**
 * @file
 * Asynchronous batch-submission serving (paper §V-C2, the other half
 * of the deployment story): the four DPU-v2 cores "can either perform
 * batch execution (used for benchmarking) or execute different DAGs".
 * BatchMachine covers the benchmarking half — one blocking call, one
 * program, one pre-assembled batch. AsyncBatchServer covers serving:
 * requests arrive one at a time (`submit(handle, input)` returns a
 * std::future<SimResult>), are coalesced per resident program up to a
 * max batch size, and each ready batch is dispatched onto the existing
 * BatchMachine/worker-pool machinery. Every serving policy — the cut,
 * the start order and core grants — is the BatchScheduler's
 * (sim/batching.hh); the server is its threads and clock. Multiple
 * programs can be resident at once (the "execute different DAGs"
 * mode) and share one machine of `cores` model cores; a cold program
 * can be registered through the compiler's ProgramCache so the first
 * submit pays a cache fetch instead of a full compile when the
 * artifact is already known.
 *
 * Backpressure: a bounded queue depth rejects requests up front
 * (Admission::RejectedQueueFull) instead of letting the backlog grow
 * without bound.
 *
 * Determinism: a request's SimResult is produced by a Machine run of
 * the resident program on that request's input — nothing about
 * batch composition, arrival interleaving, window length, core
 * grants or host thread counts reaches the simulation. Per-request
 * results are therefore byte-identical across arrival orders and
 * server configurations (the serving analogue of the ParallelCompile
 * byte-identical guarantee; enforced by tests/test_async.cc and the
 * randomized tests/test_async_stress.cc).
 * Only the *latency* a caller observes, the admission outcomes under
 * load, and the aggregate batching statistics depend on timing.
 */

#ifndef DPU_SIM_ASYNC_HH
#define DPU_SIM_ASYNC_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "compiler/cache.hh"
#include "sim/batch.hh"
#include "sim/batching.hh"

namespace dpu {

/** Admission outcome of a trySubmit(). */
enum class Admission : uint8_t
{
    Accepted = 0,
    RejectedQueueFull = 1, ///< Bounded queue depth exceeded.
};

/** What a trySubmit() hands back: the admission verdict, and a future
 *  that is valid() only when the request was accepted. */
struct SubmitResult
{
    Admission admission = Admission::Accepted;
    std::future<SimResult> future;

    bool accepted() const { return admission == Admission::Accepted; }
};

/** Serving-side knobs. Simulation results never depend on these. */
struct AsyncServerConfig
{
    /** Model cores (the paper's large system deploys 4); feeds the
     *  modeled wall-cycle accounting and is the pool every batch's
     *  cores are granted from. */
    uint32_t cores = 4;

    /** Dispatch a program's pending requests once this many have
     *  coalesced, without waiting out the window. */
    size_t maxBatch = 8;

    /** How long the oldest pending request may wait for company
     *  while its batch could not start — no parked worker, or no
     *  free core — before it is cut anyway.
     *  Zero = never wait for company. */
    std::chrono::microseconds batchWindow{200};

    /** Host worker threads executing ready batches; batches of
     *  different (or the same) program run concurrently. */
    uint32_t workers = 1;

    /** Bound on requests admitted but not yet completed; 0 =
     *  unbounded. Beyond it, trySubmit() returns RejectedQueueFull
     *  (backpressure). */
    size_t queueDepth = 0;
};

/**
 * A multi-program serving front-end over BatchMachine: a batcher
 * thread asks the BatchScheduler to cut on the steady clock, and each
 * of `workers` threads starts its next runnable batch, runs it on the
 * granted cores and releases them.
 *
 * Thread-safe: submit()/trySubmit()/drain()/stats() may be called
 * from any number of client threads. The destructor drains
 * outstanding requests — every accepted future resolves.
 */
class AsyncBatchServer
{
  public:
    /** Opaque id of a resident program (index, stable for the
     *  server's lifetime). */
    using ProgramHandle = uint32_t;

    using Clock = std::chrono::steady_clock;

    explicit AsyncBatchServer(AsyncServerConfig config = {});
    ~AsyncBatchServer();

    AsyncBatchServer(const AsyncBatchServer &) = delete;
    AsyncBatchServer &operator=(const AsyncBatchServer &) = delete;

    /**
     * Make a compiled program resident and eligible for submit().
     * @param operations Operations per execution for the throughput
     *        accounting; 0 = take program.stats.numOperations.
     */
    ProgramHandle addProgram(CompiledProgram program,
                             uint64_t operations = 0);

    /**
     * Compile-and-load: the cold-submit path. Goes through `cache`
     * when one is given (a warm cache turns the load into a fetch),
     * otherwise runs the real compiler.
     */
    ProgramHandle addProgram(const Dag &dag, const ArchConfig &cfg,
                             const CompileOptions &options = {},
                             ProgramCache *cache = nullptr);

    /**
     * Submit one request. The future becomes ready when the request's
     * batch has executed; it carries the same SimResult a standalone
     * Machine(prog).run(input) would produce.
     *
     * Throws FatalError on an unknown handle or an input-size
     * mismatch (before enqueueing anything) — and, unlike
     * trySubmit(), also when admission rejects the request (only
     * possible once queueDepth is set).
     */
    std::future<SimResult> submit(ProgramHandle handle,
                                  std::vector<double> input);

    /**
     * Admission-aware submit: never throws for backpressure. On
     * RejectedQueueFull nothing was enqueued and the returned future
     * is invalid. Handle/input-size errors still throw FatalError
     * (caller bugs, not load conditions).
     */
    SubmitResult trySubmit(ProgramHandle handle,
                           std::vector<double> input);

    /** Flush every pending batch (ignoring the window) and block
     *  until all submitted requests have completed. */
    void drain();

    /** Aggregate serving counters since construction. */
    struct Stats
    {
        uint64_t requests = 0;         ///< Submitted (accepted).

        /** Cut counts, copied from the scheduler's per-reason array
         *  (sim/batching.hh) when the snapshot is taken. */
        uint64_t batches = 0;          ///< Cut, by any reason.
        uint64_t maxBatchObserved = 0; ///< Largest cut batch.
        uint64_t sizeDispatches = 0;   ///< Batches cut by maxBatch.
        uint64_t idleDispatches = 0;   ///< Cut to start at once.
        uint64_t windowDispatches = 0; ///< Batches cut by the window.
        uint64_t drainDispatches = 0;  ///< Batches cut by drain().

        /** Batches a worker has taken cores for; the rest of
         *  `batches` wait for a core or a worker. */
        uint64_t batchesStarted = 0;
        uint64_t completions = 0;       ///< Resolved requests.
        uint64_t modeledWallCycles = 0; ///< Summed over batches.
        uint64_t totalOperations = 0;   ///< Summed over batches.
        uint64_t rejectedQueueFull = 0; ///< Backpressure rejections.

        /** Mean dispatched batch size (after a drain, every submitted
         *  request has been dispatched). */
        double
        meanBatch() const
        {
            return batches ? static_cast<double>(requests) /
                                 static_cast<double>(batches)
                           : 0.0;
        }
    };
    Stats stats() const;

    /** Number of resident programs. */
    size_t numPrograms() const;

  private:
    /** What the scheduler carries per request for the server. */
    struct Payload
    {
        std::vector<double> input;
        std::promise<SimResult> promise;
    };
    using Scheduler = BatchScheduler<Payload>;

    /** One resident program; its queue lives in the scheduler under
     *  the same index. */
    struct Resident
    {
        CompiledProgram prog;
        /** prog, decoded once at addProgram; every batch of this
         *  program runs it (Machine::run is const and thread-safe). */
        std::optional<Machine> machine;
        uint64_t operations = 0;
        size_t numInputs = 0;
    };

    void batcherMain();
    void workerMain();

    AsyncServerConfig config;

    mutable std::mutex mutex;
    /** submit/drain/completion/parked worker -> batcher. */
    std::condition_variable batcherCv;
    std::condition_variable workerCv;  ///< batcher/cores -> workers.
    std::condition_variable idleCv;    ///< workers -> drain().

    /** Resident programs; deque keeps addresses stable while growing. */
    std::deque<Resident> programs;

    Scheduler scheduler; ///< In steady-clock ticks.

    uint64_t outstanding = 0; ///< Accepted but not yet completed.
    uint32_t drainers = 0;    ///< drain() calls in progress.
    /** Workers waiting for a runnable batch. The ones not spoken for
     *  by a ready batch are available for a new cut. */
    uint32_t parkedWorkers = 0;
    bool stopping = false;    ///< Destructor: threads exit when idle.
    Stats counters; ///< All but the cut counts (see stats()).

    std::thread batcher;
    std::vector<std::thread> pool;
};

} // namespace dpu

#endif // DPU_SIM_ASYNC_HH
