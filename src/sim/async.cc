#include "sim/async.hh"

#include <algorithm>
#include <string>

#include "support/logging.hh"

namespace dpu {

namespace {

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
    if (operations == 0)
        operations = program.stats.numOperations;
    // Decode once, outside the lock: every batch of this program runs
    // this one const Machine, shared by the workers.
    Machine machine(program);

    std::lock_guard<std::mutex> lock(mutex);
    uint32_t index = scheduler.addProgram();
    programs.push_back(Resident{});
    Resident &r = programs.back();
    r.prog = std::move(program);
    r.machine.emplace(std::move(machine));
    r.operations = operations;
    r.numInputs = r.prog.inputLocation.size();
    return static_cast<ProgramHandle>(index);
}

AsyncBatchServer::ProgramHandle
AsyncBatchServer::addProgram(const Dag &dag, const ArchConfig &cfg,
                             const CompileOptions &options,
                             ProgramCache *cache)
{
    // Compile outside the server lock: a cold compile can take
    // seconds, and submits for already-resident programs must keep
    // flowing underneath it.
    CompiledProgram prog = cache ? cache->compile(dag, cfg, options)
                                 : compile(dag, cfg, options);
    return addProgram(std::move(prog));
}

std::future<SimResult>
AsyncBatchServer::submit(ProgramHandle handle, std::vector<double> input)
{
    SubmitResult r = trySubmit(handle, std::move(input));
    if (r.admission == Admission::RejectedQueueFull)
        dpu_fatal("submit: server queue full (queueDepth " +
                  std::to_string(config.queueDepth) + ")");
    return std::move(r.future);
}

SubmitResult
AsyncBatchServer::trySubmit(ProgramHandle handle,
                            std::vector<double> input)
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

        // Admission control: backpressure before bookkeeping.
        if (config.queueDepth && outstanding >= config.queueDepth) {
            ++counters.rejectedQueueFull;
            out.admission = Admission::RejectedQueueFull;
            return out;
        }

        Scheduler::Request rq;
        rq.payload.input = std::move(input);
        rq.arrival = ticks(Clock::now());
        out.future = rq.payload.promise.get_future();
        scheduler.enqueue(handle, std::move(rq));
        ++counters.requests;
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

void
AsyncBatchServer::batcherMain()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        if (stopping)
            return;

        uint64_t cut_before = scheduler.batches();
        std::optional<int64_t> wake = scheduler.cut(
            ticks(Clock::now()), parkedWorkers, drainers > 0);
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
        ++counters.batchesStarted;
        lock.unlock();

        std::vector<std::vector<double>> inputs;
        inputs.reserve(batch.requests.size());
        for (Scheduler::Request &rq : batch.requests)
            inputs.push_back(std::move(rq.payload.input));

        BatchResult br;
        std::exception_ptr error;
        try {
            br = BatchMachine(*resident.machine, CoreSet{batch.cores},
                              resident.operations)
                     .run(inputs);
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        scheduler.release(batch.cores);
        if (!error) {
            counters.modeledWallCycles += br.wallCycles;
            counters.totalOperations += br.totalOperations;
        }
        counters.completions += batch.requests.size();
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
        // worker, and a queued batch startable for the batcher's
        // idle cut. Wake neither for nothing: every wake-up is a
        // context switch on the serving path.
        if (scheduler.hasReady())
            workerCv.notify_all();
        if (scheduler.queued() > 0)
            batcherCv.notify_all();
    }
}

} // namespace dpu
