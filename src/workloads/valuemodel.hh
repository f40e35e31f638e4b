/**
 * @file
 * Application data-value synthesis.
 *
 * Blocks are generated with a fixed per-application "structure
 * layout": each of the eight 64-bit slots of a block has a field
 * class — zero, small integer, palette, FP-like, or random — assigned
 * once per application (like the fields of a struct array). Because a
 * given bus wire always carries the same slot positions, this layout
 * is what creates the consecutive-chunk value locality of Figure 13,
 * while the class mix controls the zero-chunk fraction of Figure 12.
 * Block content is a deterministic function of the address, so
 * simulations are reproducible and re-fetches see stable memory.
 */

#ifndef DESC_WORKLOADS_VALUEMODEL_HH
#define DESC_WORKLOADS_VALUEMODEL_HH

#include <array>
#include <vector>

#include "cache/blockdata.hh"
#include "common/rng.hh"
#include "workloads/app.hh"

namespace desc::workloads {

class ValueModel
{
  public:
    ValueModel(const AppParams &params, std::uint64_t seed);

    /** Field classes of the 8-slot structure layout. */
    enum class FieldClass : std::uint8_t
    {
        Zero,
        SmallInt,
        Palette,
        FpLike,
        Random,
    };

    /** The class of the word slot holding @p word_addr. */
    FieldClass classAt(Addr word_addr) const;

    /** Draw a value for the slot at @p word_addr (store values). */
    std::uint64_t wordAt(Addr word_addr, Rng &rng) const;

    /** Deterministic content of the block at @p block_addr. */
    cache::Block512 block(Addr block_addr) const;

    /** The parameters and seed this model was built from. */
    const AppParams &params() const { return _p; }
    std::uint64_t seed() const { return _seed ^ _p.seed_salt; }

  private:
    AppParams _p;
    std::uint64_t _seed;
    std::vector<std::uint64_t> _palette;
    std::array<FieldClass, 8> _layout;
    std::array<unsigned, 8> _subpalette; //!< palette base per slot
    std::array<std::uint64_t, 8> _fp_exponent;
};

} // namespace desc::workloads

#endif // DESC_WORKLOADS_VALUEMODEL_HH
