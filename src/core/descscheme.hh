/**
 * @file
 * Block-level behavioral model of a DESC link.
 *
 * Computes exactly the cycle count and transition counts the
 * cycle-accurate DescLink produces (the test suite asserts bit-exact
 * agreement over random block streams), but in one pass over the
 * chunks, from the closed form of DESIGN.md §10 — this is the DESC
 * model every simulated L2 transfer is charged through. Implements the
 * TransferScheme interface so the cache model can swap it against the
 * baseline encodings.
 */

#ifndef DESC_CORE_DESCSCHEME_HH
#define DESC_CORE_DESCSCHEME_HH

#include <vector>

#include "core/adaptive.hh"
#include "core/config.hh"
#include "encoding/scheme.hh"

namespace desc::core {

class DescScheme : public encoding::TransferScheme
{
  public:
    explicit DescScheme(const DescConfig &cfg);

    encoding::TransferResult transfer(const BitVec &block) override;
    unsigned dataWires() const override { return _cfg.activeWires(); }
    unsigned controlWires() const override { return 2; }
    const char *name() const override;
    void reset() override;

    const DescConfig &config() const { return _cfg; }

    /**
     * True when every wave is scanned in SWAR lanes (chunk widths 1,
     * 2, 4 and 8 on whole-word waves, except adaptive skip and
     * multi-wave basic mode); false when the scalar lane scans them.
     * Fixed by the layout at construction.
     */
    bool usesBatchedPath() const { return _lane != nullptr; }

    /** Window cost and skipped-chunk count of one scanned wave. */
    struct WaveScan;

    /**
     * SWAR scan of one wave spanning @p wpw words at @p cur, against
     * the previous wave at @p prev (last-value skip only), on a
     * @p wires-wire bus.
     */
    using LaneFn = WaveScan (*)(const std::uint64_t *cur,
                                const std::uint64_t *prev, unsigned wpw,
                                unsigned wires);

  protected:
    // Shared with the scalar test oracle (tests/oracle), a subclass.
    DescConfig _cfg;
    AdaptiveTracker _adaptive;
    std::vector<Cycle> _wire_time; //!< reused basic-mode scratch

  private:
    WaveScan scanScalar(const BitVec &block, unsigned wave);

    LaneFn _lane = nullptr; //!< SWAR wave scan, or null: scalar lane

    /**
     * The previous wave, packed as in the block (wire w's chunk at bit
     * w * chunk_bits): the last-value skip reference for wave 0 of the
     * next block. Only last-value skip reads or writes it.
     */
    BitVec _last;
};

} // namespace desc::core

#endif // DESC_CORE_DESCSCHEME_HH
