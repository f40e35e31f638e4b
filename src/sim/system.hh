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

#include <concepts>
#include <type_traits>

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

/**
 * The one list of SystemConfig fields, nested structs flattened in
 * declaration order: calls f(name, field) for each. configHash()
 * (sim/runcache.hh) is a loop over it, so every field listed here
 * reaches the run-cache key.
 */
template <typename C, typename F>
    requires std::same_as<std::remove_const_t<C>, SystemConfig>
void
forEachField(C &c, F &&f)
{
    // A member added without listing it below fails here.
    static_assert(sizeof(SystemConfig) == 368);
    static_assert(sizeof(cache::L2Config) == 128);
    static_assert(sizeof(energy::CacheOrg) == 56);
    static_assert(sizeof(encoding::SchemeConfig) == 16);
    static_assert(sizeof(cache::L1Config) == 32);
    static_assert(sizeof(dram::DramConfig) == 48);

    f("cpu", c.cpu);
    f("cores", c.cores);
    f("threads_per_core", c.threads_per_core);

    f("l2.org.capacity_bytes", c.l2.org.capacity_bytes);
    f("l2.org.assoc", c.l2.org.assoc);
    f("l2.org.block_bytes", c.l2.org.block_bytes);
    f("l2.org.banks", c.l2.org.banks);
    f("l2.org.bus_wires", c.l2.org.bus_wires);
    f("l2.org.clock_ghz", c.l2.org.clock_ghz);
    f("l2.org.low_swing", c.l2.org.low_swing);
    f("l2.org.swing_v", c.l2.org.swing_v);
    f("l2.org.cell_dev", c.l2.org.cell_dev);
    f("l2.org.periph_dev", c.l2.org.periph_dev);

    f("l2.scheme", c.l2.scheme);
    f("l2.scheme_cfg.bus_wires", c.l2.scheme_cfg.bus_wires);
    f("l2.scheme_cfg.block_bits", c.l2.scheme_cfg.block_bits);
    f("l2.scheme_cfg.segment_bits", c.l2.scheme_cfg.segment_bits);
    f("l2.scheme_cfg.chunk_bits", c.l2.scheme_cfg.chunk_bits);

    f("l2.snuca", c.l2.snuca);
    f("l2.snuca_min_latency", c.l2.snuca_min_latency);
    f("l2.snuca_max_latency", c.l2.snuca_max_latency);
    f("l2.ctrl_latency", c.l2.ctrl_latency);
    f("l2.desc_interface_delay", c.l2.desc_interface_delay);
    f("l2.recall_latency", c.l2.recall_latency);
    f("l2.ecc", c.l2.ecc);
    f("l2.ecc_segment_bits", c.l2.ecc_segment_bits);
    f("l2.collect_chunk_stats", c.l2.collect_chunk_stats);

    f("l1.capacity_bytes", c.l1.capacity_bytes);
    f("l1.assoc_d", c.l1.assoc_d);
    f("l1.assoc_i", c.l1.assoc_i);
    f("l1.block_bytes", c.l1.block_bytes);
    f("l1.hit_latency", c.l1.hit_latency);

    f("dram.channels", c.dram.channels);
    f("dram.banks_per_channel", c.dram.banks_per_channel);
    f("dram.mem_ghz", c.dram.mem_ghz);
    f("dram.core_ghz", c.dram.core_ghz);
    f("dram.tCL", c.dram.tCL);
    f("dram.tRCD", c.dram.tRCD);
    f("dram.tRP", c.dram.tRP);
    f("dram.tBurst", c.dram.tBurst);
    f("dram.max_overlap", c.dram.max_overlap);

    f("insts_per_thread", c.insts_per_thread);
    workloads::forEachField(c.app, f);
    f("seed", c.seed);
}

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
 * The functional warmup of every run: the block runs that fill ~70%
 * of the L2 with the leading stripes of every region the threads
 * touch (hot sets first, then shared and private data), in install
 * order. runSystem() builds them with MemHierarchy::prefillRuns().
 */
std::vector<cache::BlockRun> warmupRuns(const SystemConfig &cfg);

/**
 * The reference walk of the same warmup: prefill() of every block of
 * warmupRuns(@p cfg) in order. Returns the number of prefill() calls.
 */
std::uint64_t prefillWalk(cache::MemHierarchy &mem, const SystemConfig &cfg);

} // namespace desc::sim

#endif // DESC_SIM_SYSTEM_HH
