#include "sim/system.hh"

#include <algorithm>
#include <memory>

#include "common/contract.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "sim/runcache.hh"
#include "sim/timeseries.hh"
#include "workloads/backing.hh"
#include "workloads/stream.hh"
#include "workloads/valuemodel.hh"

namespace desc::sim {

std::vector<cache::BlockRun>
warmupRuns(const SystemConfig &cfg)
{
    const unsigned threads = cfg.cpu == CpuKind::OutOfOrder
        ? 1
        : cfg.cores * cfg.threads_per_core;
    std::uint64_t budget =
        cfg.l2.org.capacity_bytes / cfg.l2.org.block_bytes * 7 / 10;
    std::vector<cache::BlockRun> runs;
    runs.reserve(2 * threads + 1);
    for (unsigned t = 0; t < threads && budget > 0; t++) {
        const std::uint64_t hot =
            std::min<std::uint64_t>((cfg.app.hot_bytes + 63) / 64, budget);
        runs.push_back({workloads::AppStream::hotBase(t), hot});
        budget -= hot;
    }
    const std::uint64_t shared =
        std::min<std::uint64_t>(cfg.app.ws_shared / 64, budget / 2);
    runs.push_back({workloads::AppStream::sharedBase(), shared});
    budget -= shared;
    // Every thread's private run gets an equal share of what hot and
    // shared data left.
    const std::uint64_t priv =
        std::min<std::uint64_t>(cfg.app.ws_private / 64, budget / threads);
    for (unsigned t = 0; t < threads; t++)
        runs.push_back({workloads::AppStream::privateBase(t), priv});
    return runs;
}

std::uint64_t
prefillWalk(cache::MemHierarchy &mem, const SystemConfig &cfg)
{
    std::uint64_t blocks = 0;
    for (const cache::BlockRun &r : warmupRuns(cfg)) {
        for (std::uint64_t i = 0; i < r.blocks; i++)
            mem.prefill(r.base + i * 64);
        blocks += r.blocks;
    }
    return blocks;
}

SimResult
runSystem(const SystemConfig &cfg, core::SchemeFactory make_scheme)
{
    EventQueue eq;
    workloads::ValueBackingStore backing(cfg.app, cfg.seed);
    workloads::ValueModel values(cfg.app, cfg.seed);

    unsigned num_cores = cfg.cpu == CpuKind::OutOfOrder ? 1 : cfg.cores;
    cache::MemHierarchy mem(eq, cfg.l2, backing, num_cores, cfg.l1,
                            cfg.dram, make_scheme);

    // Functional warmup: the timed region is a short sample of a much
    // longer execution, so the L2 must start with steady-state
    // contents.
    mem.prefillRuns(warmupRuns(cfg));

    std::vector<std::unique_ptr<cpu::InOrderCore>> smt_cores;
    std::unique_ptr<cpu::OooCore> ooo_core;
    // The cores own the streams; the run publishes their op traces
    // once it is over.
    std::vector<workloads::AppStream *> app_streams;

    if (cfg.cpu == CpuKind::NiagaraSMT) {
        for (unsigned c = 0; c < cfg.cores; c++) {
            std::vector<std::unique_ptr<cpu::InstructionStream>> streams;
            for (unsigned t = 0; t < cfg.threads_per_core; t++) {
                unsigned tid = c * cfg.threads_per_core + t;
                auto stream = std::make_unique<workloads::AppStream>(
                    cfg.app, values, tid, c, cfg.seed);
                app_streams.push_back(stream.get());
                streams.push_back(std::move(stream));
            }
            smt_cores.push_back(std::make_unique<cpu::InOrderCore>(
                eq, mem, c, std::move(streams), cfg.insts_per_thread));
        }
        for (auto &core : smt_cores)
            core->start();
    } else {
        auto stream = std::make_unique<workloads::AppStream>(
            cfg.app, values, 0, 0, cfg.seed);
        app_streams.push_back(stream.get());
        ooo_core = std::make_unique<cpu::OooCore>(
            eq, mem, 0, std::move(stream),
            cfg.insts_per_thread * cfg.threads_per_core);
        ooo_core->start();
    }

    // What the run has done by cycle @p now: the final result, and
    // each time-series snapshot.
    auto harvest = [&](Cycle now) {
        SimResult r;
        r.cycles = now;
        r.seconds = double(now) / (cfg.l2.org.clock_ghz * 1e9);
        if (cfg.cpu == CpuKind::NiagaraSMT) {
            for (auto &core : smt_cores)
                r.instructions += core->stats().instructions.value();
        } else {
            r.instructions = ooo_core->instructions();
        }
        r.hierarchy = mem.stats();
        r.chunks = mem.chunkStats();
        r.dram_reads = mem.dramSystem().stats().reads.value();
        r.dram_writes = mem.dramSystem().stats().writes.value();
        return r;
    };

    std::uint64_t every = timeseries::everyCycles();
    if (every == 0) {
        eq.run();
    } else {
        // Segmented run: pause at every snapshot boundary and record
        // the counters. No events are scheduled and time never
        // advances past natural quiescence, so the simulation result
        // is bit-identical to the single eq.run() above.
        std::string label = runLabel(cfg, configHash(cfg));
        for (Cycle next = every; !eq.empty(); next += every) {
            eq.run(next);
            if (eq.empty())
                break;
            timeseries::record(label, withEnergy(cfg, harvest(next)));
        }
    }

    // The queue drains only once every thread retired its budget and
    // all in-flight memory traffic completed.
    if (cfg.cpu == CpuKind::NiagaraSMT) {
        for (auto &core : smt_cores)
            DESC_ASSERT(core->done(), "core did not finish (deadlock?)");
    } else {
        DESC_ASSERT(ooo_core->done(), "OoO core did not finish");
    }
    for (auto *stream : app_streams)
        stream->publishTrace();

    return harvest(eq.now());
}

} // namespace desc::sim
