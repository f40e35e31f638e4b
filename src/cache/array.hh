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

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace desc::cache {

/** @p blocks consecutive blocks from the block-aligned @p base. */
struct BlockRun
{
    Addr base;
    std::uint64_t blocks;
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

    /**
     * Install @p runs, in order, into this fresh array, every line
     * with metadata @p meta: the same end state as a victim() + fill()
     * of each block in turn, built set by set. The runs are distinct
     * blocks entering an empty array and no line is touched between
     * installs, so every set is a FIFO: the set's install q lands in
     * way q mod assoc, each line's stamp is its global install index
     * (from 1), and the clock ends at the number of installs.
     *
     * Pass 1 stages a (run, index) word for each install in the
     * _lru slot it lands in (a later install of the set overwrites an
     * evicted one) and counts the set's installs; pass 2 turns each
     * set's surviving words into tag, stamp and metadata once.
     */
    void
    fillRuns(std::span<const BlockRun> runs, const Meta &meta)
    {
        constexpr unsigned kIndexBits = 40;
        constexpr std::uint64_t kIndexMask =
            (std::uint64_t{1} << kIndexBits) - 1;
        DESC_ASSERT(_clock == 0, "fillRuns needs a fresh array");
        DESC_ASSERT(runs.size() >> (64 - kIndexBits) == 0,
                    "too many runs to pack: ", runs.size());
        // lint:allow(hot-path-alloc) once per warmed L2, not per access
        std::vector<std::uint64_t> first_stamp(runs.size());
        std::vector<BlockRun> by_base; // lint:allow(hot-path-alloc)
        by_base.reserve(runs.size());
        for (std::size_t i = 0; i < runs.size(); i++) {
            const BlockRun &r = runs[i];
            DESC_ASSERT(r.base % (Addr{1} << _block_shift) == 0,
                        "run base not block-aligned: ", r.base);
            DESC_ASSERT(r.blocks <= kIndexMask, "run too long to pack");
            first_stamp[i] = _clock + 1;
            _clock += r.blocks;
            if (r.blocks > 0)
                by_base.push_back(r);
        }
        std::ranges::sort(by_base, {}, &BlockRun::base);
        for (std::size_t i = 1; i < by_base.size(); i++) {
            const BlockRun &prev = by_base[i - 1];
            const Addr gap = by_base[i].base - prev.base;
            DESC_ASSERT(gap >> _block_shift >= prev.blocks,
                        "overlapping runs at ", by_base[i].base);
        }

        // Per set: the next way, plus kWrapped once every way is filled.
        constexpr std::uint32_t kWrapped = std::uint32_t{1} << 31;
        // lint:allow(hot-path-alloc) set-up scratch, as above
        std::vector<std::uint32_t> next(_sets, 0);
        for (std::size_t r = 0; r < runs.size(); r++) {
            const Addr first = runs[r].base >> _block_shift;
            for (std::uint64_t i = 0; i < runs[r].blocks; i++) {
                const unsigned set = unsigned((first + i) & (_sets - 1));
                std::uint32_t &c = next[set];
                const std::uint32_t w = c & ~kWrapped;
                _lru[std::size_t(set) * _assoc + w] =
                    (std::uint64_t(r) << kIndexBits) | i;
                c = w + 1 == _assoc ? kWrapped : c + 1;
            }
        }
        for (unsigned set = 0; set < _sets; set++) {
            const Way base = Way(set) * _assoc;
            const unsigned n = next[set] & kWrapped ? _assoc : next[set];
            for (Way way = base; way < base + n; way++) {
                const std::uint64_t r = _lru[way] >> kIndexBits;
                const std::uint64_t i = _lru[way] & kIndexMask;
                const Addr addr = runs[r].base + (i << _block_shift);
                _tagv[way] = (std::uint64_t(tagOf(addr)) << 1) | 1;
                _lru[way] = first_stamp[r] + i;
                _meta[way] = meta;
            }
        }
    }

    /** LRU stamp of a line and the array's LRU clock (for tests). */
    std::uint64_t stamp(Way way) const { return _lru[way]; }
    std::uint64_t lruClock() const { return _clock; }

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
