/**
 * @file
 * Whole-system assembly and run driver.
 *
 * Builds the machine of Table 1 — eight 4-way-multithreaded in-order
 * cores (or one out-of-order core), per-core L1s, the shared L2 with
 * the configured transfer scheme, DDR3 memory — binds the synthetic
 * workload to every hardware thread, runs to completion, and returns
 * the activity statistics the energy models consume.
 */

#ifndef DESC_SIM_SYSTEM_HH
#define DESC_SIM_SYSTEM_HH

#include "cache/hierarchy.hh"
#include "workloads/app.hh"

namespace desc::sim {

enum class CpuKind { NiagaraSMT, OutOfOrder };

struct SystemConfig
{
    CpuKind cpu = CpuKind::NiagaraSMT;
    unsigned cores = 8;
    unsigned threads_per_core = 4;

    cache::L2Config l2{};
    cache::L1Config l1{};
    dram::DramConfig dram{};

    /** Retired instructions per hardware thread. */
    std::uint64_t insts_per_thread = 150'000;

    workloads::AppParams app{};
    std::uint64_t seed = 1;
};

struct SimResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double seconds = 0.0;

    cache::HierarchyStats hierarchy{};
    core::ChunkStats chunks{4, 128};

    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;

    double
    avgHitDelay() const
    {
        return hierarchy.hit_latency.mean();
    }
};

/** Build, run to completion, and harvest one simulation. The L2 bank
 *  schemes come from @p make_scheme: a test seam, not configuration. */
SimResult runSystem(const SystemConfig &cfg,
                    core::SchemeFactory make_scheme = core::makeScheme);

/**
 * The functional warmup runSystem() walks on a fresh hierarchy when
 * its warmup snapshot cache has no entry for @p cfg: prefill ~70% of
 * the L2 with the leading stripes of every region the threads touch
 * (hot sets first, then shared and private data). Returns the number
 * of prefill() calls.
 */
std::uint64_t prefillWalk(cache::MemHierarchy &mem, const SystemConfig &cfg);

} // namespace desc::sim

#endif // DESC_SIM_SYSTEM_HH
