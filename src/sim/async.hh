/**
 * @file
 * Asynchronous batch-submission serving (paper §V-C2, the other half
 * of the deployment story): the four DPU-v2 cores "can either perform
 * batch execution (used for benchmarking) or execute different DAGs".
 * BatchMachine covers the benchmarking half — one blocking call, one
 * program, one pre-assembled batch. AsyncBatchServer covers serving:
 * requests arrive one at a time (`submit(handle, input)` returns a
 * std::future<SimResult>), are coalesced per resident program inside a
 * configurable batching window up to a max batch size, and each ready
 * batch is dispatched onto the existing BatchMachine/worker-pool
 * machinery. Multiple programs can be resident at once (the "execute
 * different DAGs" mode); a cold program can be registered through the
 * compiler's ProgramCache so the first submit pays a cache fetch
 * instead of a full compile when the artifact is already known.
 *
 * QoS layer (SLO-aware serving on top of the submission API):
 *
 *   - Every request carries a priority class (interactive/batch,
 *     inherited from its program's QosSpec or overridden per submit)
 *     and an optional deadline. Requests of different classes never
 *     share a batch.
 *   - The dispatcher cuts a batch *early* — before its window expires
 *     — when waiting longer would make the earliest request deadline
 *     unmeetable (using a per-program EWMA of observed batch service
 *     time as the estimate).
 *   - Ready batches are scheduled earliest-deadline-first within
 *     priority bands: any runnable interactive batch is picked before
 *     any batch-class batch; ties fall back to cut order.
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
 * Fleet layer (rank-aware placement): with AsyncServerConfig::ranks
 * > 1 the server models a host driving N identical ranks of `cores`
 * cores each. Resident programs are either replicated (hot: batches
 * go to the least-loaded rank at cut time) or pinned to a home rank
 * (cold: affinity keeps one rank's caches warm), per
 * AsyncServerConfig::placement / QosSpec::placement. Every dispatch
 * is charged the HostTransferModel's serialization + dispatch cost,
 * accounted per rank in Stats (never touching per-request results).
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
#include "model/evaluator.hh"
#include "sim/batch.hh"

namespace dpu {

/** Priority class of a request or a resident program. Lower value =
 *  more urgent; the scheduler serves bands in this order. */
enum class Priority : uint8_t
{
    Interactive = 0, ///< Latency-sensitive traffic.
    Batch = 1,       ///< Throughput traffic; yields to Interactive.
};

/** Number of priority bands (array extents in the stats). */
inline constexpr size_t kNumPriorities = 2;

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

    /** Rank placement override for this program: nullopt = follow
     *  AsyncServerConfig::placement. Replicate makes the program
     *  resident on every rank (hot); Affinity pins it to one home
     *  rank chosen by registration order (cold). Irrelevant on a
     *  single-rank server. */
    std::optional<Placement> placement;
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
    /** Model cores *per rank* (the paper's large system deploys 4);
     *  feeds the modeled wall-cycle accounting and is the pool that
     *  per-program reservations partition on each rank. */
    uint32_t cores = 4;

    /** Host-driven ranks in the modeled fleet. 1 (the default)
     *  reproduces the pre-fleet single-machine server exactly. */
    uint32_t ranks = 1;

    /** Host↔rank transfer cost charged per dispatched batch. The
     *  default free model charges 0 cycles, keeping the modeled
     *  wall-cycle accounting byte-identical to pre-fleet behavior.
     *  Never affects per-request SimResults. */
    HostTransferModel transfer{};

    /** Default rank placement of resident programs (a program's
     *  QosSpec::placement overrides it). */
    Placement placement = Placement::Replicate;

    /** Dispatch a program's pending requests once this many have
     *  coalesced, without waiting out the window. */
    size_t maxBatch = 8;

    /** How long the oldest pending request may wait for company
     *  before its batch is dispatched anyway. Zero = dispatch every
     *  request immediately (no coalescing). */
    std::chrono::microseconds batchWindow{200};

    /** Host worker threads executing ready batches; batches of
     *  different (or the same) program run concurrently. */
    uint32_t workers = 1;

    /** Host threads *inside* one BatchMachine dispatch (its
     *  byte-identical worker pool); 1 = sequential per batch. */
    uint32_t hostThreadsPerBatch = 1;

    /** Bound on requests admitted but not yet completed; 0 =
     *  unbounded (the pre-QoS behavior). Beyond it, trySubmit()
     *  returns RejectedQueueFull (backpressure). */
    size_t queueDepth = 0;

    /**
     * Evaluation tier backing the server's service-time predictions
     * (admission control and deadline-lead estimates). A fast tier
     * turns on static wall-cycle predictions, calibrated against
     * observed batch service times (a us-per-kilocycle EWMA);
     * Cycle disables them — historical per-program EWMAs only, the
     * pre-tier behavior.
     */
    EvalFidelity admissionFidelity = EvalFidelity::Analytic;

    /**
     * Reject a deadlined request at admission when the fast-tier
     * predicted service time already exceeds its deadline slack
     * (RejectedDeadline before any queueing). Off by default: the
     * prediction is an estimate, and rejecting on it is a policy the
     * caller must opt into. No effect when admissionFidelity is
     * Cycle or the calibration has not seen a batch yet.
     */
    bool predictiveAdmission = false;
};

/**
 * A multi-program serving front-end over BatchMachine.
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
        uint64_t batches = 0;          ///< Dispatched.
        uint64_t maxBatchObserved = 0; ///< Largest dispatched batch.
        uint64_t sizeDispatches = 0;   ///< Batches cut by maxBatch.
        uint64_t windowDispatches = 0; ///< Batches cut by the window.
        uint64_t drainDispatches = 0;  ///< Batches cut by drain().
        uint64_t deadlineDispatches = 0; ///< Cut early for a deadline.
        uint64_t completions = 0;       ///< Resolved requests (drives
                                        ///< lastCompletionSeq).
        uint64_t modeledWallCycles = 0; ///< Summed over batches.
        uint64_t totalOperations = 0;   ///< Summed over batches.

        /** Modeled host↔rank transfer cycles, summed over batches
         *  (0 under the default free transfer model). Accounted
         *  separately from modeledWallCycles. */
        uint64_t transferCycles = 0;

        /** Per-rank dispatch accounting (size = config.ranks). */
        struct RankStats
        {
            uint64_t batches = 0;        ///< Dispatched to this rank.
            uint64_t requests = 0;       ///< Summed batch sizes.
            uint64_t wallCycles = 0;     ///< Modeled compute cycles.
            uint64_t transferCycles = 0; ///< Modeled link cycles.
        };
        std::vector<RankStats> perRank;

        /** One completion, as recorded under the server lock. */
        struct CompletionRecord
        {
            uint64_t seq = 0;  ///< 1-based global completion order.
            uint32_t rank = 0; ///< Rank the batch ran on.
            Priority priority = Priority::Batch;
        };

        /** Completion-order observable, bounded by
         *  kMaxCompletionRecords (recording stops at the cap;
         *  `completions` and lastCompletionSeq stay exact). */
        std::vector<CompletionRecord> completionOrder;

        uint64_t servicePredictions = 0; ///< Fast-tier predictions made.
        uint64_t admissionPredictions = 0; ///< Consulted at admission.
        uint64_t predictedDeadlineRejections = 0; ///< Rejected on one.

        /** Current us-per-kilocycle calibration (EWMA of observed
         *  batch service time over modeled wall kilocycles); 0 until
         *  the first successful batch. */
        double usPerKilocycle = 0;

        /** One fast-tier service prediction vs. what the batch then
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
    struct Request
    {
        std::vector<double> input;
        std::promise<SimResult> promise;
        Clock::time_point arrival;
        Clock::time_point deadline{};
        bool hasDeadline = false;
        Priority priority = Priority::Batch;
    };

    /** One resident program, its QoS contract, and one coalescing
     *  queue per priority class (classes never share a batch).
     *  Requests are appended in arrival order, so front() is always
     *  oldest. */
    struct Resident
    {
        CompiledProgram prog;
        /** prog, decoded once at addProgram; every batch of this
         *  program runs it (Machine::run is const and thread-safe). */
        std::optional<Machine> machine;
        QosSpec qos;
        uint32_t index = 0;       ///< Position in `programs`.
        uint64_t operations = 0;
        size_t numInputs = 0;
        int64_t ewmaBatchUs = 0;  ///< Observed batch service time.
        bool replicated = true;   ///< Resolved placement policy.
        uint32_t homeRank = 0;    ///< Affinity home (index % ranks).
        std::array<std::vector<Request>, kNumPriorities> pending;
    };

    /** A cut batch waiting for a worker and for model cores. */
    struct Batch
    {
        Resident *resident = nullptr;
        std::vector<Request> requests;
        Priority priority = Priority::Batch;
        Clock::time_point deadline{}; ///< Earliest request deadline.
        bool hasDeadline = false;
        uint64_t seq = 0; ///< Cut order (FIFO tiebreak within a band).
        uint32_t rank = 0; ///< Target rank, chosen at cut time.
    };

    void batcherMain();
    void workerMain();

    /** Move up to maxBatch requests of `r`'s class-`cls` queue onto
     *  the ready queue; `reason` is the dispatch counter to bump.
     *  Lock held. */
    void cutBatchLocked(Resident &r, size_t cls, uint64_t &reason);

    /** EDF-within-priority-bands pick over `ready`, restricted to
     *  batches that can acquire at least one model core right now;
     *  SIZE_MAX when none is runnable. Lock held. */
    size_t pickRunnableLocked() const;

    /** Rank a freshly cut batch of `r` targets: the home rank for a
     *  pinned program, the rank with the fewest busy cores (ties to
     *  the lowest id) for a replicated one. Lock held. */
    uint32_t chooseRankLocked(const Resident &r) const;

    /** Grant `b` its model cores on its target rank: the program's
     *  free reserved cores first, then free shared cores, capped by
     *  QosSpec::maxCores and the batch size. Core ids are global
     *  (rank * cores + c). Marks them busy. Lock held. */
    CoreSet acquireCoresLocked(const Batch &b);

    /** Inverse of acquireCoresLocked(). Lock held. */
    void releaseCoresLocked(const CoreSet &granted);

    /** True when the config enables fast-tier service predictions. */
    bool fastPredictions() const;

    /** Fast-tier predicted service time (us) of a `runs` x `cores`
     *  batch of `r`'s program; 0 while uncalibrated or when
     *  predictions are disabled. Lock held. */
    double predictedServiceUsLocked(const Resident &r, uint64_t runs,
                                    uint32_t cores) const;

    AsyncServerConfig config;

    mutable std::mutex mutex;
    std::condition_variable batcherCv; ///< submit/drain -> batcher.
    std::condition_variable workerCv;  ///< batcher/cores -> workers.
    std::condition_variable idleCv;    ///< workers -> drain().

    /** Resident programs; deque keeps addresses stable while growing. */
    std::deque<Resident> programs;

    /** Static core partition over all ranks' cores (global core id =
     *  rank * config.cores + c): owning program index, or -1 =
     *  shared. */
    std::vector<int32_t> coreReservedBy;
    /** Dynamic occupancy: true while a dispatched batch holds it. */
    std::vector<bool> coreBusy;
    /** Sum of granted minCores, per rank (a replicated program
     *  reserves on every rank, a pinned one only at home). */
    std::vector<uint32_t> reservedPerRank;

    std::vector<Batch> ready;
    uint64_t nextBatchSeq = 0;
    uint64_t outstanding = 0; ///< Accepted but not yet completed.
    uint32_t drainers = 0;    ///< drain() calls in progress.
    bool stopping = false;    ///< Destructor: threads exit when idle.
    Stats counters;

    std::thread batcher;
    std::vector<std::thread> pool;
};

} // namespace dpu

#endif // DPU_SIM_ASYNC_HH
