#include "sim/async.hh"

#include <algorithm>
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

AsyncServerConfig
normalized(AsyncServerConfig config)
{
    dpu_assert(config.cores >= 1, "need at least one model core");
    config.workers = std::max<uint32_t>(config.workers, 1);
    return config;
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
    return counters.usPerKilocycle * (double(wall) / 1000.0);
}

AsyncBatchServer::AsyncBatchServer(AsyncServerConfig config_)
    : config(normalized(config_)),
      scheduler(config.cores,
                CutPolicy{config.maxBatch,
                          std::chrono::duration_cast<Clock::duration>(
                              config.batchWindow)
                              .count()})
{
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
    // Validates and grants the core reservation, or throws having
    // changed nothing.
    uint32_t index = scheduler.addProgram(qos.minCores, qos.maxCores);
    programs.push_back(Resident{});
    Resident &r = programs.back();
    r.prog = std::move(program);
    r.machine.emplace(std::move(machine));
    r.qos = qos;
    r.operations = operations;
    r.numInputs = r.prog.inputLocation.size();
    return static_cast<ProgramHandle>(index);
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

        Scheduler::Request rq;
        rq.payload.input = std::move(input);
        rq.arrival = ticks(now);
        rq.hasDeadline = has_deadline;
        rq.deadline = ticks(deadline);
        out.future = rq.payload.promise.get_future();
        scheduler.enqueue(handle, prio, std::move(rq));
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
    Stats s = counters;
    const auto &cuts = scheduler.cuts();
    s.sizeDispatches = cuts[static_cast<size_t>(CutReason::Size)];
    s.drainDispatches = cuts[static_cast<size_t>(CutReason::Drain)];
    s.idleDispatches = cuts[static_cast<size_t>(CutReason::Idle)];
    s.deadlineDispatches = cuts[static_cast<size_t>(CutReason::Deadline)];
    s.windowDispatches = cuts[static_cast<size_t>(CutReason::Window)];
    s.batches = scheduler.batches();
    s.maxBatchObserved = scheduler.maxBatchObserved();
    return s;
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

void
AsyncBatchServer::batcherMain()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        if (stopping)
            return;

        uint64_t cut_before = scheduler.batches();
        // Deadline lead: the program's EWMA of observed batch service
        // time, raised to the static prediction for the batch the
        // queue would cut now — the model covers what history cannot,
        // a batch shaped unlike anything served yet.
        auto lead = [this](uint32_t program, size_t runs) {
            const Resident &r = programs[program];
            double predicted = predictedServiceUsLocked(
                r, runs, std::min<uint32_t>(config.cores, (uint32_t)runs));
            return std::chrono::duration_cast<Clock::duration>(
                       std::chrono::microseconds(std::max(
                           r.ewmaBatchUs, (int64_t)predicted)))
                .count();
        };
        std::optional<int64_t> wake = scheduler.cut(
            ticks(Clock::now()), parkedWorkers, drainers > 0, lead);
        if (scheduler.batches() != cut_before)
            workerCv.notify_all();
        // Woken early by a submit, a drain, a completion or a worker
        // parking — anything that can bring a cut forward.
        if (wake)
            batcherCv.wait_until(
                lock, Clock::time_point(Clock::duration(*wake)));
        else
            batcherCv.wait(lock);
    }
}

void
AsyncBatchServer::workerMain()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        std::optional<Scheduler::Batch> next = scheduler.start();
        if (!next) {
            if (stopping && !scheduler.hasReady())
                return;
            // Woken by a new ready batch, a core release, or
            // stopping — all of which mutate under this mutex, so no
            // wakeup can be lost between the pick and the wait. A
            // parking worker is idle capacity: the batcher may cut a
            // queue for it at once instead of waiting out a window.
            ++parkedWorkers;
            if (scheduler.queued() > 0)
                batcherCv.notify_one();
            workerCv.wait(lock);
            --parkedWorkers;
            continue;
        }
        Scheduler::Batch &batch = *next;
        Resident &resident = programs[batch.program];
        // Predict this batch's service time with the calibration as
        // of dispatch: the predicted-vs-actual pair is the
        // measurable record of admission-estimate error.
        double predicted_us = predictedServiceUsLocked(
            resident, batch.requests.size(),
            static_cast<uint32_t>(batch.cores.size()));
        ++counters.servicePredictions;
        lock.unlock();

        std::vector<std::vector<double>> inputs;
        inputs.reserve(batch.requests.size());
        for (Scheduler::Request &rq : batch.requests)
            inputs.push_back(std::move(rq.payload.input));

        Clock::time_point service_start = Clock::now();
        BatchResult br;
        std::exception_ptr error;
        try {
            br = BatchMachine(*resident.machine, CoreSet{batch.cores},
                              resident.operations)
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
        scheduler.release(batch.cores);
        if (!error) {
            // A failed batch's (often near-zero) duration must not
            // drag the service estimate toward 0 and erode the
            // deadline lead of healthy batches.
            resident.ewmaBatchUs = resident.ewmaBatchUs
                ? (3 * resident.ewmaBatchUs + service_us) / 4
                : service_us;
            counters.modeledWallCycles += br.wallCycles;
            counters.totalOperations += br.totalOperations;
            if (br.wallCycles > 0) {
                // Calibrate the model-cycle -> wall-microsecond rate
                // that turns static cycle counts into time
                // predictions. Server-wide: the rate is a property of
                // the host, not of any one resident program.
                double ratio =
                    double(service_us) / (double(br.wallCycles) / 1000.0);
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
        ClassStats &cs =
            counters.perClass[static_cast<size_t>(batch.priority)];
        for (const Scheduler::Request &rq : batch.requests) {
            ++cs.completed;
            cs.lastCompletionSeq = ++counters.completions;
            // The order observable is bounded (kMaxCompletionRecords)
            // so long open loops don't grow the stats without limit;
            // the seq counters above stay exact regardless.
            if (counters.completionOrder.size() < kMaxCompletionRecords)
                counters.completionOrder.push_back(
                    {cs.lastCompletionSeq, batch.priority});
            if (rq.hasDeadline) {
                if (ticks(completion) <= rq.deadline)
                    ++cs.deadlineHits;
                else
                    ++cs.deadlineMisses;
            }
        }
        // Fulfil only after the accounting above, still under the
        // lock: a client returning from future.get() must find its
        // own completion in stats().
        if (error) {
            for (Scheduler::Request &rq : batch.requests)
                rq.payload.promise.set_exception(error);
        } else {
            for (size_t k = 0; k < batch.requests.size(); ++k)
                batch.requests[k].payload.promise.set_value(
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
        if (scheduler.hasReady())
            workerCv.notify_all();
        if (scheduler.queued() > 0)
            batcherCv.notify_all();
    }
}

} // namespace dpu
