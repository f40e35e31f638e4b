#include "sim/experiment.hh"

#include "common/env.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "sim/runcache.hh"

namespace desc::sim {

using encoding::SchemeKind;

double
simScale()
{
    // Parsed once: the value may not change mid-process (the run
    // cache hashes post-scale budgets), and the magic static makes
    // the parse race-free under the parallel runner.
    static const double scale =
        env::positiveFloatOr(env::Var::SimScale, 1.0);
    return scale;
}

SystemConfig
baselineConfig(const workloads::AppParams &app)
{
    SystemConfig cfg;
    cfg.app = app;
    cfg.seed = 0xde5cULL ^ app.seed_salt;

    cfg.l2.org.capacity_bytes = 8ull << 20;
    cfg.l2.org.assoc = 16;
    cfg.l2.org.banks = 8;
    cfg.l2.org.bus_wires = 64;
    cfg.l2.org.cell_dev = energy::Device::LSTP;
    cfg.l2.org.periph_dev = energy::Device::LSTP;

    cfg.l2.scheme = SchemeKind::Binary;
    cfg.l2.scheme_cfg.bus_wires = 64;
    cfg.l2.scheme_cfg.block_bits = kBlockBits;
    return cfg;
}

void
applyScheme(SystemConfig &cfg, SchemeKind kind)
{
    cfg.l2.scheme = kind;
    auto &sc = cfg.l2.scheme_cfg;
    switch (kind) {
      case SchemeKind::Binary:
        sc.bus_wires = cfg.l2.org.bus_wires;
        break;
      // Segment sizes are each scheme's best from the Figure 15
      // sweep (the paper's stars), regenerated by fig15_segment_sweep.
      case SchemeKind::DynamicZeroCompression:
        sc.bus_wires = cfg.l2.org.bus_wires;
        sc.segment_bits = 16;
        break;
      case SchemeKind::BusInvert:
        sc.bus_wires = cfg.l2.org.bus_wires;
        sc.segment_bits = 4;
        break;
      case SchemeKind::ZeroSkipBusInvert:
        sc.bus_wires = cfg.l2.org.bus_wires;
        sc.segment_bits = 16;
        break;
      case SchemeKind::EncodedZeroSkipBusInvert:
        sc.bus_wires = cfg.l2.org.bus_wires;
        sc.segment_bits = 16;
        break;
      case SchemeKind::DescBasic:
      case SchemeKind::DescZeroSkip:
      case SchemeKind::DescLastValueSkip:
        // The paper's best DESC design point: 128 wires, 4-bit chunks
        // (Section 5.6.2).
        sc.bus_wires = 128;
        sc.chunk_bits = 4;
        break;
    }
}

SystemConfig
scaledConfig(const SystemConfig &cfg_in)
{
    SystemConfig cfg = cfg_in;
    cfg.insts_per_thread =
        std::uint64_t(double(cfg.insts_per_thread) * simScale());
    if (cfg.insts_per_thread < 1000)
        cfg.insts_per_thread = 1000;
    return cfg;
}

AppRun
withEnergy(const SystemConfig &cfg, SimResult result)
{
    DESC_PROF_SCOPE(Energy);
    AppRun run;
    run.result = std::move(result);
    run.l2 = computeL2Energy(cfg, run.result);
    run.processor = computeProcessorEnergy(cfg, run.result, run.l2);
    return run;
}

AppRun
runScaledApp(const SystemConfig &cfg)
{
    return withEnergy(cfg, runSystem(cfg));
}

AppRun
runApp(const SystemConfig &cfg_in)
{
    return runAppCached(scaledConfig(cfg_in));
}

std::string
shortSchemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Binary:
        return "Binary";
      case SchemeKind::DynamicZeroCompression:
        return "DZC";
      case SchemeKind::BusInvert:
        return "BIC";
      case SchemeKind::ZeroSkipBusInvert:
        return "ZS-BIC";
      case SchemeKind::EncodedZeroSkipBusInvert:
        return "eZS-BIC";
      case SchemeKind::DescBasic:
        return "DESC";
      case SchemeKind::DescZeroSkip:
        return "ZS-DESC";
      case SchemeKind::DescLastValueSkip:
        return "LVS-DESC";
    }
    DESC_PANIC("bad scheme enum");
}

} // namespace desc::sim
