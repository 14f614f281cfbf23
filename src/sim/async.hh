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
 * QoS layer (SLO-aware serving on top of the submission API):
 *
 *   - Every request carries a priority class (interactive/batch,
 *     inherited from its program's QosSpec or overridden per submit)
 *     and an optional deadline. Requests of different classes never
 *     share a batch.
 *   - While a batch could not start, the dispatcher cuts it
 *     *early* — before its window expires — when waiting longer
 *     would make the earliest request deadline unmeetable (leading
 *     the deadline by a service-time estimate: the per-program EWMA
 *     of observed batch service time, raised to the static
 *     prediction).
 *   - Ready batches start earliest-deadline-first within priority
 *     bands: a runnable interactive batch before any batch-class one.
 *   - Per-program core reservations partition the modeled cores: a
 *     program with QosSpec::minCores owns that many cores outright
 *     (no other program's batches can occupy them), and maxCores caps
 *     how far its batches spread into the shared pool. Dispatch uses
 *     BatchMachine's CoreSet form, so a batch really runs on the
 *     specific core ids it was granted.
 *   - Admission control: a bounded queue depth (and a
 *     deadline-already-missed check) rejects requests up front with
 *     an Admission result instead of letting the backlog grow without
 *     bound — the server's backpressure signal.
 *
 * Determinism: a request's SimResult is produced by a Machine run of
 * the resident program on that request's input — nothing about
 * batch composition, arrival interleaving, window length, deadlines,
 * priorities, core reservations, or host thread counts reaches the
 * simulation. Per-request results are therefore byte-identical across
 * arrival orders and server configurations (the serving analogue of
 * the ParallelCompile byte-identical guarantee; enforced by
 * tests/test_async.cc and the randomized tests/test_async_stress.cc).
 * Only the *latency* a caller observes, the admission outcomes under
 * load, and the aggregate batching statistics depend on timing.
 */

#ifndef DPU_SIM_ASYNC_HH
#define DPU_SIM_ASYNC_HH

#include <array>
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

/** Bound on Stats::completionOrder records (same policy as the
 *  bounded ServiceSamples): recording stops at the cap so
 *  million-request open loops don't grow the stats without limit,
 *  while the `completions` counter and every lastCompletionSeq stay
 *  exact. */
inline constexpr size_t kMaxCompletionRecords = 1024;

/** Per-program quality-of-service contract, fixed at addProgram(). */
struct QosSpec
{
    /** Default class of this program's requests. */
    Priority priority = Priority::Batch;

    /** Model cores reserved for this program alone (0 = none). The
     *  server validates that reservations fit the machine. */
    uint32_t minCores = 0;

    /** Cap on model cores one of this program's batches may occupy,
     *  reserved + shared (0 = no cap beyond the machine size). Must
     *  be >= minCores when both are set. */
    uint32_t maxCores = 0;

    /** Default per-request deadline, relative to submission (0 =
     *  none). A submit may override it per request. */
    std::chrono::microseconds deadline{0};
};

/** Admission outcome of a trySubmit(). */
enum class Admission : uint8_t
{
    Accepted = 0,
    RejectedQueueFull = 1, ///< Bounded queue depth exceeded.
    RejectedDeadline = 2,  ///< Deadline already unmeetable at submit.
};

/** Per-request knobs for trySubmit(). */
struct SubmitOptions
{
    /** Relative deadline from now; 0 = use the program's QosSpec
     *  default. Negative means already missed (rejected). */
    std::chrono::microseconds deadline{0};

    /** Absolute deadline; when set (non-epoch) it wins over
     *  `deadline`. In the past = rejected. */
    std::chrono::steady_clock::time_point deadlineAt{};

    /** Override the program's priority class for this request. */
    std::optional<Priority> priority;
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
     *  modeled wall-cycle accounting and is the pool that per-program
     *  reservations partition. */
    uint32_t cores = 4;

    /** Dispatch a program's pending requests once this many have
     *  coalesced, without waiting out the window. */
    size_t maxBatch = 8;

    /** How long the oldest pending request may wait for company
     *  while its batch could not start — no parked worker, or no
     *  free core the program may take — before it is cut anyway.
     *  Zero = never wait for company. */
    std::chrono::microseconds batchWindow{200};

    /** Host worker threads executing ready batches; batches of
     *  different (or the same) program run concurrently. */
    uint32_t workers = 1;

    /** Bound on requests admitted but not yet completed; 0 =
     *  unbounded (the pre-QoS behavior). Beyond it, trySubmit()
     *  returns RejectedQueueFull (backpressure). */
    size_t queueDepth = 0;

    /**
     * Reject a deadlined request at admission when the predicted
     * service time already exceeds its deadline slack
     * (RejectedDeadline before any queueing). A prediction is the
     * batch's static wall-cycle count (batchWallCycles) times a
     * us-per-kilocycle EWMA calibrated against observed batch
     * service times. Off by default: the calibration
     * is an estimate, and rejecting on it is a policy the caller must
     * opt into. No effect until the calibration has seen a batch.
     */
    bool predictiveAdmission = false;
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
     *
     * Throws FatalError when `qos` cannot be honored: minCores
     * exceeding the machine, maxCores < minCores, reservations that
     * no longer fit next to the ones already granted, or a
     * reservation that would leave an unreserved resident program
     * with no core to run on.
     */
    ProgramHandle addProgram(CompiledProgram program,
                             uint64_t operations = 0);
    ProgramHandle addProgram(CompiledProgram program, QosSpec qos,
                             uint64_t operations = 0);

    /**
     * Compile-and-load: the cold-submit path. Goes through `cache`
     * when one is given (a warm cache turns the load into a fetch),
     * otherwise runs the real compiler.
     */
    ProgramHandle addProgram(const Dag &dag, const ArchConfig &cfg,
                             const CompileOptions &options = {},
                             ProgramCache *cache = nullptr,
                             QosSpec qos = {});

    /**
     * Submit one request. The future becomes ready when the request's
     * batch has executed; it carries the same SimResult a standalone
     * Machine(prog).run(input) would produce.
     *
     * Throws FatalError on an unknown handle or an input-size
     * mismatch (before enqueueing anything) — and, unlike
     * trySubmit(), also when admission rejects the request (only
     * possible once queueDepth or deadlines are configured).
     */
    std::future<SimResult> submit(ProgramHandle handle,
                                  std::vector<double> input);

    /**
     * Admission-aware submit: never throws for backpressure. On
     * RejectedQueueFull / RejectedDeadline nothing was enqueued and
     * the returned future is invalid. Handle/input-size errors still
     * throw FatalError (caller bugs, not load conditions).
     */
    SubmitResult trySubmit(ProgramHandle handle,
                           std::vector<double> input,
                           const SubmitOptions &options = {});

    /** Flush every pending batch (ignoring the window) and block
     *  until all submitted requests have completed. */
    void drain();

    /** Per-priority-class serving counters. */
    struct ClassStats
    {
        uint64_t submitted = 0;         ///< Accepted by admission.
        uint64_t completed = 0;         ///< Futures resolved.
        uint64_t deadlineHits = 0;      ///< Completed before deadline.
        uint64_t deadlineMisses = 0;    ///< Completed after deadline.
        uint64_t rejectedQueueFull = 0; ///< Backpressure rejections.
        uint64_t rejectedDeadline = 0;  ///< Dead-on-arrival rejections.

        /** 1-based position in the server's global completion order
         *  of this class's most recent completion (0 = none yet).
         *  Recorded under the server lock, so band-scheduling order
         *  is observable without racing the client threads. */
        uint64_t lastCompletionSeq = 0;

        /** Deadline-hit fraction over deadlined completions. */
        double
        deadlineHitRate() const
        {
            uint64_t n = deadlineHits + deadlineMisses;
            return n ? static_cast<double>(deadlineHits) /
                           static_cast<double>(n)
                     : 1.0;
        }
    };

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
        uint64_t deadlineDispatches = 0; ///< Cut early for a deadline.
        uint64_t completions = 0;       ///< Resolved requests (drives
                                        ///< lastCompletionSeq).
        uint64_t modeledWallCycles = 0; ///< Summed over batches.
        uint64_t totalOperations = 0;   ///< Summed over batches.

        /** One completion, as recorded under the server lock. */
        struct CompletionRecord
        {
            uint64_t seq = 0; ///< 1-based global completion order.
            Priority priority = Priority::Batch;
        };

        /** Completion-order observable, bounded by
         *  kMaxCompletionRecords (recording stops at the cap;
         *  `completions` and lastCompletionSeq stay exact). */
        std::vector<CompletionRecord> completionOrder;

        uint64_t servicePredictions = 0; ///< Dispatch predictions made.
        uint64_t admissionPredictions = 0; ///< Consulted at admission.
        uint64_t predictedDeadlineRejections = 0; ///< Rejected on one.

        /** Current us-per-kilocycle calibration (EWMA of observed
         *  batch service time over modeled wall kilocycles); 0 until
         *  the first successful batch. */
        double usPerKilocycle = 0;

        /** One static service prediction vs. what the batch then
         *  actually took. predictedUs is 0 while uncalibrated. */
        struct ServiceSample
        {
            double predictedUs = 0;
            double actualUs = 0;
            uint64_t wallCycles = 0;
            uint64_t batchSize = 0;
        };

        /** Dispatch-order samples (bounded; recording stops at the
         *  cap). The measurable record of admission-estimate error —
         *  serve_latency turns it into a bench series. */
        std::vector<ServiceSample> serviceSamples;

        /** Indexed by static_cast<size_t>(Priority). */
        std::array<ClassStats, kNumPriorities> perClass{};

        const ClassStats &
        forClass(Priority p) const
        {
            return perClass[static_cast<size_t>(p)];
        }

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

    /** The QoS contract a program was registered with. */
    QosSpec programQos(ProgramHandle handle) const;

  private:
    /** What the scheduler carries per request for the server. */
    struct Payload
    {
        std::vector<double> input;
        std::promise<SimResult> promise;
    };
    using Scheduler = BatchScheduler<Payload>;

    /** One resident program and its QoS contract; its queues and core
     *  reservation live in the scheduler under the same index. */
    struct Resident
    {
        CompiledProgram prog;
        /** prog, decoded once at addProgram; every batch of this
         *  program runs it (Machine::run is const and thread-safe). */
        std::optional<Machine> machine;
        QosSpec qos;
        uint64_t operations = 0;
        size_t numInputs = 0;
        int64_t ewmaBatchUs = 0;  ///< Observed batch service time.
    };

    void batcherMain();
    void workerMain();

    /** Predicted service time (us) of a `runs` x `cores` batch of
     *  `r`'s program; 0 while uncalibrated. Lock held. */
    double predictedServiceUsLocked(const Resident &r, uint64_t runs,
                                    uint32_t cores) const;

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
