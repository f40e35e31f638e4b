#include "sim/runner.hh"

#include <chrono>
#include <cstdio>

#include "common/contract.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/trace.hh"
#include "sim/runcache.hh"

namespace desc::sim {

unsigned
Runner::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    // Every Runner construction re-reads the environment; a
    // malformed value is fatal.
    return unsigned(
        env::uintOr(env::Var::SimJobs, hw ? hw : 1, 1, 4096));
}

Runner::Runner(unsigned jobs)
{
    unsigned n = jobs ? jobs : defaultJobs();
    _workers.reserve(n);
    for (unsigned i = 0; i < n; i++)
        _workers.emplace_back([this, i] { workerLoop(i); });
}

Runner::~Runner()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _work_cv.notify_all();
    for (auto &t : _workers)
        t.join();
}

void
Runner::workerLoop(unsigned worker_idx)
{
    // Diagnostics fired inside a job (warnings, trace lines) carry
    // this worker's tag.
    setThreadLogContext(detail::concat("w", worker_idx));

    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _work_cv.wait(lock,
                          [this] { return _stop || !_queue.empty(); });
            if (_queue.empty()) // only when stopping
                return;
            job = _queue.front();
            _queue.pop_front();
        }
        recordQueueWait(std::chrono::duration<double>(
            std::chrono::steady_clock::now() - job.submitted).count());
        {
            DESC_PROF_SCOPE(Runner);
            *job.out = runAppCached(*job.cfg);
        }
        DESC_PROF_CYCLES(Runner, job.out->result.cycles);
        finishOne();
    }
}

void
Runner::finishOne()
{
    using namespace std::chrono;
    std::lock_guard<std::mutex> lock(_mutex);
    _batch_done++;

    auto now = steady_clock::now();
    bool last = _batch_done == _batch_total;
    if (last || now - _last_progress >= milliseconds(500)) {
        _last_progress = now;
        std::uint64_t hits =
            runStats().cache_hits.value() - _batch_start_hits;
        std::fprintf(stderr, "[runner] %zu/%zu points (%llu cached)\n",
                     _batch_done, _batch_total,
                     (unsigned long long)hits);
    }
    if (last)
        _done_cv.notify_all();
}

std::vector<AppRun>
Runner::run(const std::vector<SystemConfig> &cfgs)
{
    // Scale on the submitting thread so the jobs hash (and simulate)
    // exactly what runApp() would.
    std::vector<SystemConfig> scaled;
    scaled.reserve(cfgs.size());
    for (const auto &cfg : cfgs)
        scaled.push_back(scaledConfig(cfg));

    std::vector<AppRun> results(scaled.size());
    if (scaled.empty())
        return results;

    // Resolve the run cache on this thread, before any worker runs a
    // job: creating its directory may be fatal, and a fatal exit from
    // a worker hangs the process while the other workers block.
    globalRunCache();

    {
        std::unique_lock<std::mutex> lock(_mutex);
        DESC_ASSERT(!_running, "Runner::run is not reentrant");
        _running = true;
        _batch_total = scaled.size();
        _batch_done = 0;
        _batch_start_hits = runStats().cache_hits.value();
        _last_progress = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < scaled.size(); i++)
            _queue.push_back(Job{&scaled[i], &results[i],
                                 std::chrono::steady_clock::now()});
    }
    _work_cv.notify_all();
    DESC_TRACE_HOST(Runner, "batch submitted: ", scaled.size(),
                    " point(s) across ", jobs(), " worker(s)");

    {
        std::unique_lock<std::mutex> lock(_mutex);
        _done_cv.wait(lock,
                      [this] { return _batch_done == _batch_total; });
        _running = false;
    }
    DESC_TRACE_HOST(Runner, "batch complete: ", runSummaryLine());
    return results;
}

Runner &
globalRunner()
{
    static Runner runner;
    return runner;
}

} // namespace desc::sim
