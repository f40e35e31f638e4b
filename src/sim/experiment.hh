/**
 * @file
 * Shared helpers for the experiment (bench) harnesses.
 *
 * Provides the paper's baseline machine configuration, the best
 * per-scheme configurations selected in Section 4.1 / Figure 15, and
 * a cached application runner so that each bench binary regenerates
 * its figure with a few lines. The environment variable
 * DESC_SIM_SCALE (default 1.0) scales simulated instruction counts
 * for quicker or more precise runs.
 */

#ifndef DESC_SIM_EXPERIMENT_HH
#define DESC_SIM_EXPERIMENT_HH

#include <concepts>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/energy_account.hh"
#include "sim/system.hh"

namespace desc::sim {

/** Instruction-budget multiplier from DESC_SIM_SCALE. */
double simScale();

/**
 * The paper's baseline machine (Table 1 / Section 4.1): 8 SMT cores,
 * 8MB 16-way L2, 8 banks, 64-bit data bus, LSTP cells and periphery,
 * conventional binary encoding, two DDR3-1066 channels.
 */
SystemConfig baselineConfig(const workloads::AppParams &app);

/**
 * Switch a configuration to the given scheme using the paper's best
 * per-scheme parameters (segment sizes from Figure 15; 128 wires and
 * 4-bit chunks for DESC).
 */
void applyScheme(SystemConfig &cfg, encoding::SchemeKind kind);

/** One simulated (app, config) data point with its energies. */
struct AppRun
{
    SimResult result;
    L2Energy l2;
    energy::ProcessorEnergy processor;
};

/**
 * The one list of AppRun fields, in run-cache byte order: calls
 * f(path, doc, field) for each, where path and doc are the field's
 * entry in the stats registry (sim/statdump.hh). The run-cache codec,
 * the registry's raw stats and the time-series columns
 * (sim/timeseries.hh) are loops over it; derived stats (rates,
 * fractions, energy sums) are not fields and are not listed.
 */
template <typename R, typename F>
    requires std::same_as<std::remove_const_t<R>, AppRun>
void
forEachField(R &run, F &&f)
{
    // A member added without listing it below fails here.
    static_assert(sizeof(cache::HierarchyStats)
                  == 14 * sizeof(Counter) + 3 * 8 + 2 * sizeof(Average));
    static_assert(sizeof(SimResult) == 5 * 8 + sizeof(cache::HierarchyStats)
                                           + sizeof(core::ChunkStats));
    static_assert(sizeof(L2Energy) == 4 * sizeof(Joule));
    static_assert(sizeof(energy::ProcessorEnergy) == 5 * sizeof(Joule));
    static_assert(sizeof(AppRun) == sizeof(SimResult) + sizeof(L2Energy)
                                        + sizeof(energy::ProcessorEnergy));

    auto &r = run.result;
    f("perf.cycles", "simulated core cycles", r.cycles);
    f("perf.instructions", "instructions retired across all threads",
      r.instructions);
    f("perf.seconds", "simulated wall-clock seconds", r.seconds);

    auto &h = r.hierarchy;
    f("l1.i.accesses", "L1I lookups", h.l1i_accesses);
    f("l1.i.misses", "L1I misses", h.l1i_misses);
    f("l1.d.accesses", "L1D lookups", h.l1d_accesses);
    f("l1.d.misses", "L1D misses", h.l1d_misses);
    f("l1.upgrades", "store hits on Shared lines (coherence upgrades)",
      h.upgrades);
    f("l2.requests", "L2 requests from the L1s", h.l2_requests);
    f("l2.hits", "L2 hits", h.l2_hits);
    f("l2.misses", "L2 misses to DRAM", h.l2_misses);
    f("l2.writebacks_in", "dirty L1 evictions written back into the L2",
      h.l2_writebacks_in);
    f("l2.fills", "DRAM fills into the L2", h.l2_fills);
    f("l2.evictions_out", "dirty L2 evictions written to DRAM",
      h.l2_evictions_out);
    f("l2.recalls", "coherence recalls of Modified L1 copies", h.recalls);
    f("link.read_transfers",
      "blocks moved over the H-tree toward the cores", h.read_transfers);
    f("link.write_transfers",
      "blocks moved over the H-tree toward the banks", h.write_transfers);
    f("link.data_flips", "data-wire transitions, distance-weighted",
      h.data_flips);
    f("link.ctrl_flips", "control-wire transitions, distance-weighted",
      h.ctrl_flips);
    f("link.bank_busy_cycles", "cycles any bank port spent transferring",
      h.bank_busy_cycles);
    f("l2.hit_latency", "request arrival to data response, in cycles",
      h.hit_latency);
    f("l2.transfer_window", "bank serialization cycles per block transfer",
      h.transfer_window);

    f("chunks.histogram", "chunk value distribution (Figure 12)",
      r.chunks);
    f("dram.reads", "DRAM read bursts", r.dram_reads);
    f("dram.writes", "DRAM write bursts", r.dram_writes);

    f("energy.l2.htree_dynamic", "H-tree dynamic energy, joules",
      run.l2.htree_dynamic);
    f("energy.l2.array_dynamic", "array dynamic energy, joules",
      run.l2.array_dynamic);
    f("energy.l2.aux_dynamic",
      "auxiliary (decode/sense) dynamic energy, joules",
      run.l2.aux_dynamic);
    f("energy.l2.static", "L2 static energy, joules",
      run.l2.static_energy);
    f("energy.processor.core_dynamic", "core dynamic energy, joules",
      run.processor.core_dynamic);
    f("energy.processor.core_static", "core static energy, joules",
      run.processor.core_static);
    f("energy.processor.l1", "L1 energy, joules", run.processor.l1);
    f("energy.processor.uncore", "uncore energy, joules",
      run.processor.uncore);
    f("energy.processor.l2", "L2 share of processor energy, joules",
      run.processor.l2);
}

/** @p cfg with simScale() applied to the instruction budget (and the
 *  budget clamped to a useful minimum). This is the configuration a
 *  simulation actually runs — and the one the run cache hashes. */
SystemConfig scaledConfig(const SystemConfig &cfg);

/** @p result with its L2 and processor energies: the accounting step
 *  of every finished run and of every time-series snapshot. */
AppRun withEnergy(const SystemConfig &cfg, SimResult result);

/** Run one already-scaled configuration, bypassing the run cache. */
AppRun runScaledApp(const SystemConfig &cfg);

/**
 * Run one configuration (applies simScale() to the budget). Results
 * are memoized on disk keyed by the full scaled configuration (see
 * sim/runcache.hh), so repeated identical points are loaded instead
 * of re-simulated.
 */
AppRun runApp(const SystemConfig &cfg);

/** Short display name for figure rows (matches paper legends). */
std::string shortSchemeName(encoding::SchemeKind kind);

} // namespace desc::sim

#endif // DESC_SIM_EXPERIMENT_HH
