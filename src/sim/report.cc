#include "sim/report.hh"

#include <cstdio>

#include "common/table.hh"
#include "sim/runcache.hh"
#include "sim/statdump.hh"

namespace desc::sim {

void
printRunReport(const SystemConfig &cfg, const AppRun &run)
{
    StatRegistry reg =
        buildRunRegistry(cfg, run, configHash(scaledConfig(cfg)));

    std::printf("== %s | %s | %u banks | %u wires ==\n",
                reg.text("run.app").c_str(),
                reg.text("run.scheme").c_str(), cfg.l2.org.banks,
                cfg.l2.scheme_cfg.bus_wires);

    Table perf({"metric", "value"});
    perf.row().add("cycles").add(reg.integer("perf.cycles"));
    perf.row().add("instructions").add(reg.integer("perf.instructions"));
    perf.row().add("IPC").add(reg.scalar("perf.ipc"), 3);
    perf.row().add("L1D miss rate").add(reg.scalar("l1.d.miss_rate"), 4);
    perf.row().add("L1I miss rate").add(reg.scalar("l1.i.miss_rate"), 4);
    perf.row().add("L2 requests").add(reg.counterValue("l2.requests"));
    perf.row().add("L2 hit rate").add(reg.scalar("l2.hit_rate"), 3);
    perf.row().add("L2 avg hit delay (cyc)").add(
        reg.average("l2.hit_latency").mean(), 2);
    perf.row().add("avg transfer window (cyc)").add(
        reg.average("l2.transfer_window").mean(), 2);
    perf.row().add("coherence recalls").add(
        reg.counterValue("l2.recalls"));
    perf.row().add("DRAM reads").add(reg.integer("dram.reads"));
    perf.row().add("DRAM writes").add(reg.integer("dram.writes"));
    perf.print("performance");

    Table energy({"component", "uJ", "share"});
    double total = reg.scalar("energy.l2.total");
    auto component = [&](const char *label, const char *path) {
        double j = reg.scalar(path);
        energy.row().add(label).add(j * 1e6, 3).add(j / total, 3);
    };
    component("H-tree dynamic", "energy.l2.htree_dynamic");
    component("array dynamic", "energy.l2.array_dynamic");
    component("aux dynamic", "energy.l2.aux_dynamic");
    component("static", "energy.l2.static");
    energy.row().add("L2 total").add(total * 1e6, 3).add(1.0, 3);
    double cpu = reg.scalar("energy.processor.total");
    energy.row().add("processor total").add(cpu * 1e6, 3)
        .add(total / cpu, 3);
    energy.print("energy (last column: share of L2 / L2 share of CPU)");
}

} // namespace desc::sim
