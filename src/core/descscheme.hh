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
     * True when transfer() takes the word-at-a-time batched pass
     * rather than the scalar reference loop. Fixed at construction
     * from defaultEncoderMode() and the layout.
     */
    bool usesBatchedPath() const { return _batched; }

  private:
    bool batchedSupported() const;
    encoding::TransferResult transferScalar(const BitVec &block);
    encoding::TransferResult transferBatched(const BitVec &block);

    DescConfig _cfg;
    bool _batched = false;
    AdaptiveTracker _adaptive;
    std::vector<Cycle> _wire_time; //!< reused basic-mode scratch

    // Per-wire last values, in the representation of the walk this
    // instance runs (the other stays empty): one byte per wire for the
    // scalar loop, or the packed final wave for the batched pass
    // (chunk i at bit i*chunk_bits). None/Zero modes never read them.
    std::vector<std::uint8_t> _last;
    std::vector<std::uint64_t> _last_words;
};

} // namespace desc::core

#endif // DESC_CORE_DESCSCHEME_HH
