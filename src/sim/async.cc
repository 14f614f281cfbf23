#include "sim/async.hh"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>

#include "support/logging.hh"

namespace dpu {

namespace {

/** Cap on recorded predicted-vs-actual service samples: enough for a
 *  bench run's error series without growing for server lifetime. */
constexpr size_t kMaxServiceSamples = 1024;

using Clock = AsyncBatchServer::Clock;

/** The cut policy counts steady-clock ticks. */
int64_t
ticks(Clock::time_point t)
{
    return t.time_since_epoch().count();
}

} // namespace

double
AsyncBatchServer::predictedServiceUsLocked(const Resident &r,
                                           uint64_t runs,
                                           uint32_t cores) const
{
    if (counters.usPerKilocycle <= 0 || runs == 0 || cores == 0)
        return 0; // Uncalibrated (or degenerate): predictions inert.
    uint64_t wall = batchWallCycles(r.prog, runs, cores);
    // The host link serializes before the cores compute, and its
    // cost is statically exact too (see HostTransferModel).
    wall += config.transfer.batchCycles(hostTransferBytes(r.prog), runs);
    return counters.usPerKilocycle * (double(wall) / 1000.0);
}

AsyncBatchServer::AsyncBatchServer(AsyncServerConfig config_)
    : config(config_)
{
    dpu_assert(config.cores >= 1, "need at least one model core");
    if (config.maxBatch < 1)
        config.maxBatch = 1;
    if (config.workers < 1)
        config.workers = 1;
    if (config.hostThreadsPerBatch < 1)
        config.hostThreadsPerBatch = 1;
    if (config.ranks < 1)
        config.ranks = 1;
    cutPolicy.maxBatch = config.maxBatch;
    cutPolicy.window =
        std::chrono::duration_cast<Clock::duration>(config.batchWindow)
            .count();
    // Global core id = rank * config.cores + local core. Rank 0's
    // slice is the whole array on a single-rank server, so every
    // pre-fleet index computation is unchanged.
    size_t total = (size_t)config.ranks * config.cores;
    coreReservedBy.assign(total, -1);
    coreBusy.assign(total, false);
    reservedPerRank.assign(config.ranks, 0);
    counters.perRank.resize(config.ranks);

    try {
        batcher = std::thread([this] { batcherMain(); });
        pool.reserve(config.workers);
        for (uint32_t w = 0; w < config.workers; ++w)
            pool.emplace_back([this] { workerMain(); });
    } catch (...) {
        // Thread creation can fail under resource exhaustion; the
        // destructor will not run for a half-constructed object, so
        // stop and join whatever already started before rethrowing —
        // destroying a joinable std::thread would terminate().
        {
            std::lock_guard<std::mutex> lock(mutex);
            stopping = true;
        }
        batcherCv.notify_all();
        workerCv.notify_all();
        if (batcher.joinable())
            batcher.join();
        for (std::thread &t : pool)
            t.join();
        throw;
    }
}

AsyncBatchServer::~AsyncBatchServer()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    batcherCv.notify_all();
    workerCv.notify_all();
    batcher.join();
    for (std::thread &t : pool)
        t.join();
}

AsyncBatchServer::ProgramHandle
AsyncBatchServer::addProgram(CompiledProgram program, uint64_t operations)
{
    return addProgram(std::move(program), QosSpec{}, operations);
}

AsyncBatchServer::ProgramHandle
AsyncBatchServer::addProgram(CompiledProgram program, QosSpec qos,
                             uint64_t operations)
{
    if (operations == 0)
        operations = program.stats.numOperations;
    // Decode once, outside the lock: every batch of this program runs
    // this one const Machine, shared by the workers.
    Machine machine(program);

    std::lock_guard<std::mutex> lock(mutex);
    if (qos.minCores > config.cores)
        dpu_fatal("addProgram: QosSpec::minCores " +
                  std::to_string(qos.minCores) + " exceeds the " +
                  std::to_string(config.cores) + " modeled cores");
    if (qos.maxCores != 0 && qos.maxCores < qos.minCores)
        dpu_fatal("addProgram: QosSpec::maxCores " +
                  std::to_string(qos.maxCores) + " below minCores " +
                  std::to_string(qos.minCores));

    // Resolve placement: a replicated program is resident (and
    // reserves cores) on every rank; a pinned one only at its home
    // rank, chosen round-robin by registration order.
    bool replicated =
        qos.placement.value_or(config.placement) == Placement::Replicate;
    uint32_t home =
        static_cast<uint32_t>(programs.size()) % config.ranks;
    auto places_on = [](bool repl, uint32_t home_rank, uint32_t rank) {
        return repl || home_rank == rank;
    };
    for (uint32_t rank = 0; rank < config.ranks; ++rank) {
        if (!places_on(replicated, home, rank))
            continue;
        if (reservedPerRank[rank] + qos.minCores > config.cores)
            dpu_fatal("addProgram: core reservations exhausted (" +
                      std::to_string(reservedPerRank[rank]) + " of " +
                      std::to_string(config.cores) +
                      " already reserved, requested " +
                      std::to_string(qos.minCores) + " more)");
        uint32_t shared_after =
            config.cores - reservedPerRank[rank] - qos.minCores;
        if (shared_after == 0) {
            bool unreserved_resident = qos.minCores == 0;
            for (const Resident &o : programs)
                if (places_on(o.replicated, o.homeRank, rank))
                    unreserved_resident |= o.qos.minCores == 0;
            if (unreserved_resident)
                dpu_fatal(
                    "addProgram: reservation would leave no shared "
                    "core for resident programs without one");
        }
    }

    programs.push_back(Resident{});
    Resident &r = programs.back();
    r.prog = std::move(program);
    r.machine.emplace(std::move(machine));
    r.qos = qos;
    r.index = static_cast<uint32_t>(programs.size() - 1);
    r.operations = operations;
    r.numInputs = r.prog.inputLocation.size();
    r.replicated = replicated;
    r.homeRank = home;

    // Grant the reservation on every rank the program is placed on:
    // the lowest-numbered shared cores of each rank become this
    // program's own. The partition is static for the server's
    // lifetime (programs cannot be removed).
    for (uint32_t rank = 0; rank < config.ranks; ++rank) {
        if (!places_on(replicated, home, rank))
            continue;
        uint32_t granted = 0;
        for (uint32_t c = 0;
             c < config.cores && granted < qos.minCores; ++c) {
            size_t g = (size_t)rank * config.cores + c;
            if (coreReservedBy[g] == -1) {
                coreReservedBy[g] = static_cast<int32_t>(r.index);
                ++granted;
            }
        }
        reservedPerRank[rank] += qos.minCores;
    }
    return static_cast<ProgramHandle>(r.index);
}

AsyncBatchServer::ProgramHandle
AsyncBatchServer::addProgram(const Dag &dag, const ArchConfig &cfg,
                             const CompileOptions &options,
                             ProgramCache *cache, QosSpec qos)
{
    // Compile outside the server lock: a cold compile can take
    // seconds, and submits for already-resident programs must keep
    // flowing underneath it.
    CompiledProgram prog = cache ? cache->compile(dag, cfg, options)
                                 : compile(dag, cfg, options);
    return addProgram(std::move(prog), qos);
}

std::future<SimResult>
AsyncBatchServer::submit(ProgramHandle handle, std::vector<double> input)
{
    SubmitResult r = trySubmit(handle, std::move(input));
    if (r.admission == Admission::RejectedQueueFull)
        dpu_fatal("submit: server queue full (queueDepth " +
                  std::to_string(config.queueDepth) + ")");
    if (r.admission == Admission::RejectedDeadline)
        dpu_fatal("submit: request deadline already unmeetable");
    return std::move(r.future);
}

SubmitResult
AsyncBatchServer::trySubmit(ProgramHandle handle,
                            std::vector<double> input,
                            const SubmitOptions &options)
{
    SubmitResult out;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (handle >= programs.size())
            dpu_fatal("submit: unknown program handle " +
                      std::to_string(handle));
        Resident &r = programs[handle];
        if (input.size() != r.numInputs)
            dpu_fatal("submit: program expects " +
                      std::to_string(r.numInputs) + " inputs, got " +
                      std::to_string(input.size()));

        Priority prio = options.priority.value_or(r.qos.priority);
        size_t cls = static_cast<size_t>(prio);
        ClassStats &cs = counters.perClass[cls];
        Clock::time_point now = Clock::now();

        // Resolve the deadline: absolute wins, then the per-request
        // relative one, then the program default.
        Clock::time_point deadline{};
        bool has_deadline = false;
        if (options.deadlineAt != Clock::time_point{}) {
            deadline = options.deadlineAt;
            has_deadline = true;
        } else {
            std::chrono::microseconds rel = options.deadline.count()
                ? options.deadline
                : r.qos.deadline;
            if (rel.count() != 0) {
                deadline = now + rel;
                has_deadline = true;
            }
        }

        // Admission control: backpressure before bookkeeping.
        if (config.queueDepth &&
            outstanding >= config.queueDepth) {
            ++cs.rejectedQueueFull;
            out.admission = Admission::RejectedQueueFull;
            return out;
        }
        if (has_deadline && deadline <= now) {
            ++cs.rejectedDeadline;
            out.admission = Admission::RejectedDeadline;
            return out;
        }
        if (has_deadline && config.predictiveAdmission) {
            // Dead-on-arrival by prediction: even a lone-request
            // batch dispatched immediately would finish past the
            // deadline. The static wall-cycle count is exact; only
            // the us-per-kilocycle calibration is an estimate.
            double predicted_us = predictedServiceUsLocked(r, 1, 1);
            ++counters.admissionPredictions;
            if (predicted_us > 0 &&
                now + std::chrono::microseconds(
                          static_cast<int64_t>(predicted_us)) >
                    deadline) {
                ++cs.rejectedDeadline;
                ++counters.predictedDeadlineRejections;
                out.admission = Admission::RejectedDeadline;
                return out;
            }
        }

        Request rq;
        rq.input = std::move(input);
        rq.arrival = now;
        rq.deadline = deadline;
        rq.hasDeadline = has_deadline;
        rq.priority = prio;
        out.future = rq.promise.get_future();
        r.pending[cls].push_back(std::move(rq));
        ++queued;
        ++counters.requests;
        ++cs.submitted;
        ++outstanding;
    }
    batcherCv.notify_one();
    return out;
}

void
AsyncBatchServer::drain()
{
    // A count, not a flag: concurrent drains must each keep the
    // batcher flushing until the last one has seen the queue empty.
    std::unique_lock<std::mutex> lock(mutex);
    ++drainers;
    batcherCv.notify_all();
    idleCv.wait(lock, [this] { return outstanding == 0; });
    --drainers;
}

AsyncBatchServer::Stats
AsyncBatchServer::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

size_t
AsyncBatchServer::numPrograms() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return programs.size();
}

QosSpec
AsyncBatchServer::programQos(ProgramHandle handle) const
{
    std::lock_guard<std::mutex> lock(mutex);
    if (handle >= programs.size())
        dpu_fatal("programQos: unknown program handle " +
                  std::to_string(handle));
    return programs[handle].qos;
}

QueueState
AsyncBatchServer::queueStateLocked(const Resident &r, size_t cls) const
{
    const std::vector<Request> &queue = r.pending[cls];
    QueueState q;
    q.size = queue.size();
    q.oldestArrival = ticks(queue.front().arrival);
    for (const Request &rq : queue) {
        if (rq.hasDeadline &&
            (!q.hasDeadline || ticks(rq.deadline) < q.earliestDeadline)) {
            q.earliestDeadline = ticks(rq.deadline);
            q.hasDeadline = true;
        }
    }
    if (q.hasDeadline) {
        // Deadline lead: the historical per-program EWMA, raised to
        // the static prediction for the batch this queue would cut
        // right now. The model covers what history cannot — a pending
        // batch shaped unlike anything served yet.
        double predicted = predictedServiceUsLocked(
            r, queue.size(),
            std::min<uint32_t>(config.cores,
                               static_cast<uint32_t>(queue.size())));
        int64_t lead_us =
            std::max(r.ewmaBatchUs, static_cast<int64_t>(predicted));
        q.deadlineLead = std::chrono::duration_cast<Clock::duration>(
                             std::chrono::microseconds(lead_us))
                             .count();
    }
    // A parked worker is idle unless a batch already in `ready` is
    // its next job.
    q.idle = parkedWorkers > ready.size();
    q.draining = drainers > 0;
    return q;
}

void
AsyncBatchServer::cutBatchLocked(Resident &r, size_t cls,
                                 CutReason reason)
{
    std::vector<Request> &queue = r.pending[cls];
    size_t n = std::min(queue.size(), config.maxBatch);
    Batch b;
    b.resident = &r;
    b.priority = static_cast<Priority>(cls);
    b.seq = nextBatchSeq++;
    b.rank = chooseRankLocked(r);
    b.requests.assign(std::make_move_iterator(queue.begin()),
                      std::make_move_iterator(queue.begin() +
                                              static_cast<ptrdiff_t>(n)));
    queue.erase(queue.begin(),
                queue.begin() + static_cast<ptrdiff_t>(n));
    queued -= n;
    for (const Request &rq : b.requests) {
        if (rq.hasDeadline &&
            (!b.hasDeadline || rq.deadline < b.deadline)) {
            b.deadline = rq.deadline;
            b.hasDeadline = true;
        }
    }
    ready.push_back(std::move(b));
    ++counters.batches;
    switch (reason) {
    case CutReason::Size: ++counters.sizeDispatches; break;
    case CutReason::Drain: ++counters.drainDispatches; break;
    case CutReason::Idle: ++counters.idleDispatches; break;
    case CutReason::Deadline: ++counters.deadlineDispatches; break;
    case CutReason::Window: ++counters.windowDispatches; break;
    }
    counters.maxBatchObserved =
        std::max<uint64_t>(counters.maxBatchObserved, n);
}

void
AsyncBatchServer::batcherMain()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        if (stopping)
            return;

        int64_t now = ticks(Clock::now());
        bool have_wake = false;
        int64_t next_wake = 0;
        bool dispatched = false;
        for (Resident &r : programs) {
            for (size_t cls = 0; cls < kNumPriorities; ++cls) {
                if (r.pending[cls].empty())
                    continue;
                CutDecision d =
                    decideCut(cutPolicy, queueStateLocked(r, cls), now);
                if (d.cut) {
                    cutBatchLocked(r, cls, d.reason);
                    dispatched = true;
                } else if (!have_wake || d.wakeAt < next_wake) {
                    next_wake = d.wakeAt;
                    have_wake = true;
                }
            }
        }
        if (dispatched) {
            workerCv.notify_all();
            continue; // re-scan: a cut may have left a remainder
        }
        // Woken early by a submit, a drain, a completion or a worker
        // parking — anything that can bring a cut forward.
        if (have_wake)
            batcherCv.wait_until(
                lock, Clock::time_point(Clock::duration(next_wake)));
        else
            batcherCv.wait(lock);
    }
}

uint32_t
AsyncBatchServer::chooseRankLocked(const Resident &r) const
{
    if (!r.replicated || config.ranks == 1)
        return r.homeRank;
    // Replicated (hot) program: send the batch to the rank with the
    // fewest busy cores right now, ties to the lowest rank id. On an
    // idle fleet this is rank 0, matching the single-rank server.
    uint32_t best_rank = 0;
    uint32_t best_busy = std::numeric_limits<uint32_t>::max();
    for (uint32_t rank = 0; rank < config.ranks; ++rank) {
        uint32_t busy = 0;
        for (uint32_t c = 0; c < config.cores; ++c)
            busy += coreBusy[(size_t)rank * config.cores + c];
        if (busy < best_busy) {
            best_busy = busy;
            best_rank = rank;
        }
    }
    return best_rank;
}

size_t
AsyncBatchServer::pickRunnableLocked() const
{
    // EDF within priority bands over the cut batches, restricted to
    // batches whose program can be granted a model core right now
    // (its own free reserved cores, or a free shared core). A lower
    // band never waits behind a higher one, but an un-runnable
    // high-band batch does not block backfilling the cores it cannot
    // use anyway.
    size_t best = std::numeric_limits<size_t>::max();
    for (size_t k = 0; k < ready.size(); ++k) {
        const Batch &b = ready[k];
        int32_t owner = static_cast<int32_t>(b.resident->index);
        size_t base = (size_t)b.rank * config.cores;
        bool runnable = false;
        for (uint32_t c = 0; c < config.cores && !runnable; ++c)
            runnable = !coreBusy[base + c] &&
                       (coreReservedBy[base + c] == owner ||
                        coreReservedBy[base + c] == -1);
        if (!runnable)
            continue;
        if (best == std::numeric_limits<size_t>::max()) {
            best = k;
            continue;
        }
        const Batch &cur = ready[best];
        bool better;
        if (b.priority != cur.priority)
            better = b.priority < cur.priority;
        else if (b.hasDeadline != cur.hasDeadline)
            better = b.hasDeadline;
        else if (b.hasDeadline && b.deadline != cur.deadline)
            better = b.deadline < cur.deadline;
        else
            better = b.seq < cur.seq;
        if (better)
            best = k;
    }
    return best;
}

CoreSet
AsyncBatchServer::acquireCoresLocked(const Batch &b)
{
    const Resident &r = *b.resident;
    size_t limit = r.qos.maxCores ? r.qos.maxCores : config.cores;
    limit = std::min(limit, b.requests.size());
    if (limit < 1)
        limit = 1;

    CoreSet granted;
    int32_t owner = static_cast<int32_t>(r.index);
    size_t base = (size_t)b.rank * config.cores;
    // Own reserved cores first — they are useless to anyone else —
    // then spread into the shared pool up to the cap. Only the
    // target rank's slice is eligible; ids stay global.
    for (uint32_t c = 0; c < config.cores && granted.count() < limit;
         ++c)
        if (!coreBusy[base + c] && coreReservedBy[base + c] == owner)
            granted.ids.push_back(static_cast<uint32_t>(base + c));
    for (uint32_t c = 0; c < config.cores && granted.count() < limit;
         ++c)
        if (!coreBusy[base + c] && coreReservedBy[base + c] == -1)
            granted.ids.push_back(static_cast<uint32_t>(base + c));
    dpu_assert(!granted.empty(),
               "picked a batch with no acquirable model core");
    for (uint32_t c : granted.ids)
        coreBusy[c] = true;
    return granted;
}

void
AsyncBatchServer::releaseCoresLocked(const CoreSet &granted)
{
    for (uint32_t c : granted.ids)
        coreBusy[c] = false;
}

void
AsyncBatchServer::workerMain()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        size_t idx = pickRunnableLocked();
        if (idx == std::numeric_limits<size_t>::max()) {
            if (stopping && ready.empty())
                return;
            // Woken by a new ready batch, a core release, or
            // stopping — all of which mutate under this mutex, so no
            // wakeup can be lost between the pick and the wait. A
            // parking worker is idle capacity: the batcher may cut a
            // queue for it at once instead of waiting out a window.
            ++parkedWorkers;
            if (queued > 0)
                batcherCv.notify_one();
            workerCv.wait(lock);
            --parkedWorkers;
            continue;
        }
        Batch batch = std::move(ready[idx]);
        ready.erase(ready.begin() + static_cast<ptrdiff_t>(idx));
        CoreSet granted = acquireCoresLocked(batch);
        Resident *resident = batch.resident;
        const Machine &machine = *resident->machine;
        uint64_t operations = resident->operations;
        // Predict this batch's service time with the calibration as
        // of dispatch: the predicted-vs-actual pair is the
        // measurable record of admission-estimate error.
        double predicted_us = predictedServiceUsLocked(
            *resident, batch.requests.size(),
            static_cast<uint32_t>(granted.count()));
        ++counters.servicePredictions;
        lock.unlock();

        std::vector<std::vector<double>> inputs;
        inputs.reserve(batch.requests.size());
        for (Request &rq : batch.requests)
            inputs.push_back(std::move(rq.input));

        Clock::time_point service_start = Clock::now();
        BatchResult br;
        std::exception_ptr error;
        try {
            br = BatchMachine(machine, RankSet{batch.rank, granted},
                              operations, config.hostThreadsPerBatch,
                              config.transfer)
                     .run(inputs);
        } catch (...) {
            error = std::current_exception();
        }
        Clock::time_point completion = Clock::now();
        int64_t service_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                completion - service_start)
                .count();

        lock.lock();
        releaseCoresLocked(granted);
        if (!error) {
            // A failed batch's (often near-zero) duration must not
            // drag the service estimate toward 0 and erode the
            // deadline lead of healthy batches.
            resident->ewmaBatchUs = resident->ewmaBatchUs
                ? (3 * resident->ewmaBatchUs + service_us) / 4
                : service_us;
            counters.modeledWallCycles += br.wallCycles;
            counters.totalOperations += br.totalOperations;
            counters.transferCycles += br.transferCycles;
            Stats::RankStats &rs = counters.perRank[batch.rank];
            ++rs.batches;
            rs.requests += batch.requests.size();
            rs.wallCycles += br.wallCycles;
            rs.transferCycles += br.transferCycles;
            if (br.totalWallCycles() > 0) {
                // Calibrate the model-cycle -> wall-microsecond rate
                // that turns static cycle counts into time
                // predictions. Server-wide: the rate is a property of
                // the host, not of any one resident program.
                // Transfer-inclusive, matching the prediction side
                // (identical to compute-only under a free model).
                double ratio = double(service_us)
                    / (double(br.totalWallCycles()) / 1000.0);
                counters.usPerKilocycle = counters.usPerKilocycle > 0
                    ? (3.0 * counters.usPerKilocycle + ratio) / 4.0
                    : ratio;
            }
            if (predicted_us > 0 &&
                counters.serviceSamples.size() < kMaxServiceSamples)
                counters.serviceSamples.push_back(
                    {predicted_us, double(service_us), br.wallCycles,
                     batch.requests.size()});
        }
        for (const Request &rq : batch.requests) {
            ClassStats &cs =
                counters.perClass[static_cast<size_t>(rq.priority)];
            ++cs.completed;
            cs.lastCompletionSeq = ++counters.completions;
            // The order observable is bounded (kMaxCompletionRecords)
            // so fleet-scale open loops don't grow the stats without
            // limit; the seq counters above stay exact regardless.
            if (counters.completionOrder.size() < kMaxCompletionRecords)
                counters.completionOrder.push_back(
                    {cs.lastCompletionSeq, batch.rank, rq.priority});
            if (rq.hasDeadline) {
                if (completion <= rq.deadline)
                    ++cs.deadlineHits;
                else
                    ++cs.deadlineMisses;
            }
        }
        // Fulfil only after the accounting above, still under the
        // lock: a client returning from future.get() must find its
        // own completion in stats().
        if (error) {
            for (Request &rq : batch.requests)
                rq.promise.set_exception(error);
        } else {
            for (size_t k = 0; k < batch.requests.size(); ++k)
                batch.requests[k].promise.set_value(
                    std::move(br.runs[k]));
        }
        outstanding -= batch.requests.size();
        if (outstanding == 0)
            idleCv.notify_all();
        // Freed cores may make a ready batch runnable for a waiting
        // worker; the refreshed service estimate may move a pending
        // deadline's cut time, so a sleeping batcher must recompute
        // its wake-up too. Wake neither for nothing: every wake-up
        // is a context switch on the serving path.
        if (!ready.empty())
            workerCv.notify_all();
        if (queued > 0)
            batcherCv.notify_all();
    }
}

} // namespace dpu
