/**
 * @file
 * Entry point of every figure binary. Built with DESC_FIGURE set to
 * one figure (bench/CMakeLists.txt), it runs that figure. Built
 * without it, as `figures`, it runs every figure, or those named on
 * the command line, in one deduplicated batch.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "benchutil.hh"

using namespace desc::bench;

int
main([[maybe_unused]] int argc, [[maybe_unused]] char **argv)
{
#ifdef DESC_FIGURE
    runFigures({&DESC_FIGURE});
#else
#define DESC_BENCH_LIST_FIGURE(name) &name,
    const std::vector<const Figure *> all = {
        DESC_BENCH_FIGURES(DESC_BENCH_LIST_FIGURE)};
    std::vector<const Figure *> figs;
    for (int i = 1; i < argc; i++) {
        auto it = std::find_if(all.begin(), all.end(), [&](auto *fig) {
            return argv[i] == std::string(fig->name);
        });
        if (it == all.end()) {
            std::fprintf(stderr, "figures: unknown figure \"%s\"\n",
                         argv[i]);
            return 2;
        }
        figs.push_back(*it);
    }
    runFigures(figs.empty() ? all : figs);
#endif
    return 0;
}
