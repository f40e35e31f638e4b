#include <cstdio>
#include <unordered_map>

#include "benchutil.hh"
#include "sim/runcache.hh"
#include "sim/runner.hh"
#include "sim/statdump.hh"

namespace desc::bench {

void
runFigures(const std::vector<const Figure *> &figs)
{
    // Each declared point maps to the batch slot of its distinct
    // scaled configuration.
    Points batch;
    std::vector<std::uint64_t> keys;
    std::unordered_map<std::uint64_t, std::size_t> slot_of;
    std::vector<std::vector<std::size_t>> slots(figs.size());
    for (std::size_t f = 0; f < figs.size(); f++) {
        if (!figs[f]->points)
            continue;
        for (const auto &cfg : figs[f]->points()) {
            std::uint64_t key = sim::configHash(sim::scaledConfig(cfg));
            auto [it, fresh] = slot_of.try_emplace(key, batch.size());
            if (fresh) {
                batch.push_back(cfg);
                keys.push_back(key);
            }
            slots[f].push_back(it->second);
        }
    }

    Runs runs = sim::globalRunner().run(batch);

    // The batch recorded each distinct run once; record the repeats.
    std::vector<bool> recorded(batch.size(), false);
    for (std::size_t f = 0; f < figs.size(); f++) {
        Runs fig_runs;
        for (std::size_t s : slots[f]) {
            if (recorded[s])
                sim::recordRunStats(sim::scaledConfig(batch[s]), runs[s],
                                    keys[s]);
            recorded[s] = true;
            fig_runs.push_back(runs[s]);
        }
        figs[f]->render(fig_runs);
    }

    if (!batch.empty())
        std::fprintf(stderr, "%s\n", sim::runSummaryLine().c_str());
}

} // namespace desc::bench
