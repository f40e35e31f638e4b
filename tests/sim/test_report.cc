/**
 * @file
 * Smoke tests for the run-report rendering.
 */

#include <gtest/gtest.h>

#include "sim/report.hh"

using namespace desc;
using namespace desc::sim;

namespace {

AppRun
tinyRun(SystemConfig &cfg)
{
    cfg = baselineConfig(workloads::findApp("Art"));
    cfg.insts_per_thread = 2000;
    AppRun run;
    run.result = runSystem(cfg);
    run.l2 = computeL2Energy(cfg, run.result);
    run.processor = computeProcessorEnergy(cfg, run.result, run.l2);
    return run;
}

} // namespace

TEST(Report, PrintRunReportDoesNotCrash)
{
    SystemConfig cfg;
    auto run = tinyRun(cfg);
    printRunReport(cfg, run);
}
