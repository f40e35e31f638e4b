/**
 * @file
 * Generic set-associative array with LRU replacement.
 *
 * Storage is struct-of-arrays: the packed tag+valid words of a set sit
 * contiguously (a 4-way probe reads 32 bytes — one cache line of the
 * host), with the LRU stamps and the per-line metadata in parallel
 * arrays that only hit and maintenance paths touch. Lines are
 * addressed by a stable integer Way handle (set * assoc + way), which
 * is also how a level keeps data outside the array: the L2 holds only
 * its 4-byte directory state here and indexes a separate payload
 * array by the same handle, so tag, victim and directory walks never
 * stride over block data. Block size and set count are powers of two,
 * so set, tag and block address are shifts and masks.
 */

#ifndef DESC_CACHE_ARRAY_HH
#define DESC_CACHE_ARRAY_HH

#include <bit>
#include <vector>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace desc::cache {

/**
 * Tag/recency image of a whole array: everything a freshly built
 * array needs to reproduce a functionally warmed-up state whose
 * lines still carry default-constructed metadata. The warmup
 * snapshot cache (sim/system.cc) keys these on the warmup inputs so
 * repeated runs of one configuration skip the prefill walk.
 */
struct TagImage
{
    std::vector<std::uint64_t> tagv;
    std::vector<std::uint64_t> lru;
    std::uint64_t clock = 0;
};

/**
 * Tag/state storage for one cache level. Meta carries the
 * level-specific line state (coherence state, dirty bit, ...).
 */
template <typename Meta>
class SetAssocArray
{
  public:
    /** Line handle: set * assoc + way index. Stable across fills. */
    using Way = std::uint32_t;
    static constexpr Way kNoWay = ~Way{0};

    SetAssocArray(std::uint64_t capacity_bytes, unsigned assoc,
                  unsigned block_bytes)
        : _assoc(assoc)
    {
        DESC_ASSERT(std::has_single_bit(block_bytes),
                    "block size must be a power of two: ", block_bytes);
        DESC_ASSERT(capacity_bytes % (assoc * block_bytes) == 0,
                    "capacity not divisible by assoc*block");
        _sets = unsigned(capacity_bytes / (assoc * block_bytes));
        DESC_ASSERT(std::has_single_bit(_sets),
                    "set count must be a power of two: ", _sets);
        _block_shift = unsigned(std::countr_zero(block_bytes));
        _set_shift = unsigned(std::countr_zero(_sets));
        const std::size_t lines = std::size_t(_sets) * assoc;
        _tagv.assign(lines, 0);
        _lru.assign(lines, 0);
        _meta.resize(lines);
    }

    unsigned numSets() const { return _sets; }
    unsigned assoc() const { return _assoc; }

    unsigned
    setOf(Addr addr) const
    {
        return unsigned((addr >> _block_shift) & (_sets - 1));
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr >> (_block_shift + _set_shift);
    }

    /** Reconstruct the block address of a (valid) line. */
    Addr
    addrOf(Way way) const
    {
        const Addr tag = Addr(_tagv[way] >> 1);
        return ((tag << _set_shift) | (way / _assoc)) << _block_shift;
    }

    bool valid(Way way) const { return _tagv[way] & 1; }

    Meta &meta(Way way) { return _meta[way]; }
    const Meta &meta(Way way) const { return _meta[way]; }

    /** Find a valid line matching @p addr; kNoWay on miss. */
    Way
    lookup(Addr addr) const
    {
        const Way base = Way(setOf(addr)) * _assoc;
        const std::uint64_t key = (std::uint64_t(tagOf(addr)) << 1) | 1;
        for (unsigned w = 0; w < _assoc; w++) {
            if (_tagv[base + w] == key)
                return base + w;
        }
        return kNoWay;
    }

    /** Mark a line most-recently used. */
    void touch(Way way) { _lru[way] = ++_clock; }

    /**
     * Choose the victim way for @p addr (an invalid way if any,
     * otherwise the LRU line). The caller handles any writeback, then
     * fills the returned way via fill().
     */
    Way
    victim(Addr addr) const
    {
        const Way base = Way(setOf(addr)) * _assoc;
        Way pick = base;
        for (unsigned w = 0; w < _assoc; w++) {
            if (!valid(base + w))
                return base + w;
            if (_lru[base + w] < _lru[pick])
                pick = base + w;
        }
        return pick;
    }

    /**
     * Victim selection with an avoidance predicate over the line
     * metadata: an invalid way wins; otherwise the LRU way among
     * lines for which @p avoid is false; otherwise the overall LRU
     * way. Used by the inclusive L2 to prefer evicting lines without
     * live L1 copies.
     */
    template <typename Pred>
    Way
    victimPreferring(Addr addr, Pred &&avoid) const
    {
        const Way base = Way(setOf(addr)) * _assoc;
        Way preferred = kNoWay;
        Way overall = base;
        for (unsigned w = 0; w < _assoc; w++) {
            const Way way = base + w;
            if (!valid(way))
                return way;
            if (_lru[way] < _lru[overall])
                overall = way;
            if (!avoid(_meta[way])
                && (preferred == kNoWay || _lru[way] < _lru[preferred])) {
                preferred = way;
            }
        }
        return preferred != kNoWay ? preferred : overall;
    }

    /** Install @p addr into @p way (which may hold an evictee). */
    void
    fill(Way way, Addr addr)
    {
        _tagv[way] = (std::uint64_t(tagOf(addr)) << 1) | 1;
        _meta[way] = Meta{};
        touch(way);
    }

    void
    invalidate(Way way)
    {
        _tagv[way] = 0;
        _meta[way] = Meta{};
    }

    /** Iterate all valid lines (for inclusive-eviction bookkeeping). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Way way = 0; way < Way(_tagv.size()); way++) {
            if (valid(way))
                fn(way);
        }
    }

    /** Capture the tag/valid words, LRU stamps, and LRU clock. Line
     *  metadata is not captured: a snapshot is only meaningful while
     *  every valid line still has default-constructed Meta (as after
     *  a pure prefill), which restoreTagImage() reestablishes being
     *  applied to a freshly constructed array. */
    TagImage
    tagImage() const
    {
        return {_tagv, _lru, _clock};
    }

    /** Restore a tagImage() capture onto a same-geometry array. */
    void
    restoreTagImage(const TagImage &img)
    {
        DESC_ASSERT(img.tagv.size() == _tagv.size(),
                    "tag image from a different geometry");
        _tagv = img.tagv;
        _lru = img.lru;
        _clock = img.clock;
    }

  private:
    unsigned _assoc;
    unsigned _sets;
    unsigned _block_shift; //!< log2(block bytes)
    unsigned _set_shift;   //!< log2(sets)
    std::uint64_t _clock = 0;

    /** tag << 1 | valid, per line; the only array probes touch. */
    std::vector<std::uint64_t> _tagv;
    std::vector<std::uint64_t> _lru;
    std::vector<Meta> _meta;
};

} // namespace desc::cache

#endif // DESC_CACHE_ARRAY_HH
