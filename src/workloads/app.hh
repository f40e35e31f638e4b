/**
 * @file
 * Per-application workload parameters.
 *
 * The paper runs sixteen parallel applications (Phoenix, SPLASH-2,
 * SPEC OpenMP, NAS) and eight SPEC CPU 2006 applications (Table 2).
 * We cannot ship those binaries, so each application is modeled by a
 * parameter set controlling (a) its instruction mix and memory access
 * pattern — which determine L1/L2 miss rates and bank pressure — and
 * (b) its data-value statistics — which determine the chunk-value
 * distribution (Figure 12) and consecutive-chunk locality (Figure 13)
 * that all the energy results are a function of. See DESIGN.md for
 * the substitution rationale.
 */

#ifndef DESC_WORKLOADS_APP_HH
#define DESC_WORKLOADS_APP_HH

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace desc::workloads {

struct AppParams
{
    const char *name;

    // --- instruction mix / address behavior -------------------------
    /** Probability an instruction is a memory operation. */
    double mem_per_inst;
    /** Fraction of memory operations that are stores. */
    double write_frac;
    /** Per-thread private working set (bytes). */
    std::uint64_t ws_private;
    /** Shared working set (bytes). */
    std::uint64_t ws_shared;
    /** Fraction of accesses that target the shared region. */
    double shared_frac;
    /** Fraction of accesses that stream sequentially. */
    double seq_frac;
    /** Instruction footprint (bytes). */
    std::uint64_t code_bytes;
    /** Fraction of accesses hitting the per-thread hot set (stack,
     *  loop-local data) that lives comfortably in the L1. */
    double hot_frac;
    /** Hot-set size (bytes). */
    std::uint64_t hot_bytes;

    // --- value behavior ----------------------------------------------
    // Blocks are synthesized with a fixed 8-field "structure layout":
    // each 64-bit slot of a block has a field class (zero / small
    // integer / palette / FP-like / random) assigned per application,
    // which is what creates the per-wire value locality of Figure 13.
    /** Fraction of word slots whose field class is zero. */
    double zero_word;
    /** Fraction of slots holding small integers (< 2^12). */
    double small_word;
    /** Fraction of slots drawn from the app's reused value palette. */
    double palette_word;
    /** Number of distinct palette values. */
    unsigned palette_size;
    /** Probability a freshly touched block is entirely null. */
    double null_block;

    std::uint64_t seed_salt;
};

/**
 * The one list of AppParams fields, in declaration order: calls
 * f(name, field) for each. The run-cache key (sim/runcache.cc) and
 * the op-trace key (workloads/stream.cc) are loops over it, so a
 * field listed here reaches both.
 */
template <typename P, typename F>
    requires std::same_as<std::remove_const_t<P>, AppParams>
void
forEachField(P &p, F &&f)
{
    static_assert(sizeof(AppParams) == 128,
                  "AppParams changed: list the new field here");
    f("name", p.name);
    f("mem_per_inst", p.mem_per_inst);
    f("write_frac", p.write_frac);
    f("ws_private", p.ws_private);
    f("ws_shared", p.ws_shared);
    f("shared_frac", p.shared_frac);
    f("seq_frac", p.seq_frac);
    f("code_bytes", p.code_bytes);
    f("hot_frac", p.hot_frac);
    f("hot_bytes", p.hot_bytes);
    f("zero_word", p.zero_word);
    f("small_word", p.small_word);
    f("palette_word", p.palette_word);
    f("palette_size", p.palette_size);
    f("null_block", p.null_block);
    f("seed_salt", p.seed_salt);
}

/** The sixteen parallel applications of Table 2 (Figure order). */
const std::vector<AppParams> &parallelApps();

/** The eight SPEC CPU 2006 applications of Table 2 / Figure 30. */
const std::vector<AppParams> &specApps();

/** Look up an application by name (either suite); panics if absent. */
const AppParams &findApp(const char *name);

} // namespace desc::workloads

#endif // DESC_WORKLOADS_APP_HH
