/**
 * @file
 * A dynamic-width bit vector used to model data blocks and bus states.
 *
 * Cache blocks, bus beats, and per-wire link states are all modeled
 * bit-accurately; BitVec provides the word-packed storage plus the
 * operations the encoding schemes need (field extract/deposit, XOR,
 * population count, Hamming distance, range inversion).
 *
 * Bit 0 is the least-significant bit of word 0.
 */

#ifndef DESC_COMMON_BITVEC_HH
#define DESC_COMMON_BITVEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/contract.hh"
#include "common/types.hh"

namespace desc {

class Rng;

class BitVec
{
  public:
    /** Construct an all-zero vector of @p width bits. */
    explicit BitVec(unsigned width = 0);

    /** Construct from the low bits of @p value. */
    BitVec(unsigned width, std::uint64_t value);

    unsigned width() const { return _width; }
    bool empty() const { return _width == 0; }

    /** Read a single bit. */
    bool
    bit(unsigned pos) const
    {
        DESC_ASSERT(pos < _width, "bit ", pos, " of width ", _width);
        return (_words[pos / 64] >> (pos % 64)) & 1;
    }

    /** Write a single bit. */
    void
    setBit(unsigned pos, bool value)
    {
        DESC_ASSERT(pos < _width, "bit ", pos, " of width ", _width);
        const std::uint64_t mask = std::uint64_t{1} << (pos % 64);
        if (value)
            _words[pos / 64] |= mask;
        else
            _words[pos / 64] &= ~mask;
    }

    /** Toggle a single bit. */
    void
    flipBit(unsigned pos)
    {
        DESC_ASSERT(pos < _width, "bit ", pos, " of width ", _width);
        _words[pos / 64] ^= std::uint64_t{1} << (pos % 64);
    }

    /**
     * Extract @p len bits starting at @p pos as an integer.
     * @pre len <= 64 and pos + len <= width().
     */
    std::uint64_t field(unsigned pos, unsigned len) const;

    /**
     * Deposit the low @p len bits of @p value at @p pos.
     * @pre len <= 64 and pos + len <= width().
     */
    void setField(unsigned pos, unsigned len, std::uint64_t value);

    /** Overwrite bits [0, len) with @p src's [src_pos, +len). */
    void copyRange(const BitVec &src, unsigned src_pos, unsigned len);

    /** Number of set bits. */
    unsigned popcount() const;

    /** Number of differing bits between two equal-width vectors. */
    unsigned hammingDistance(const BitVec &other) const;

    /** Invert bits [pos, pos + len). */
    void invertRange(unsigned pos, unsigned len);

    /** Set all bits to zero. */
    void clear();

    /** True if every bit is zero. */
    bool allZero() const;

    /** XOR @p other into this vector (equal widths). */
    BitVec &operator^=(const BitVec &other);

    bool operator==(const BitVec &other) const;
    bool operator!=(const BitVec &other) const { return !(*this == other); }

    /** Fill the whole vector with uniformly random bits. */
    void randomize(Rng &rng);

    /** Copy bytes in (little-endian bit order); size must cover width. */
    void fromBytes(const std::uint8_t *bytes, std::size_t n);

    /** Export to bytes (little-endian bit order). */
    void toBytes(std::uint8_t *bytes, std::size_t n) const;

    /** Hex string, most-significant word first (for debugging). */
    std::string toHex() const;

    /** Raw word access for fast paths (words beyond width are zero). */
    const std::vector<std::uint64_t> &words() const { return _words; }

    /**
     * Mutable raw word access for fast paths. The caller must keep
     * the invariant that bits beyond width() stay zero and must not
     * resize the vector.
     */
    std::vector<std::uint64_t> &mutableWords() { return _words; }

    /**
     * field() without the bounds assertion, for hot loops whose
     * caller established pos + len <= width() once up front.
     * @pre 1 <= len <= 64 and pos + len <= width()
     */
    std::uint64_t
    fieldUnchecked(unsigned pos, unsigned len) const
    {
        DESC_DCHECK(len >= 1 && len <= 64 && pos + len <= _width,
                    "unchecked field [", pos, ",+", len, ") of width ",
                    _width);
        const unsigned word = pos >> 6;
        const unsigned off = pos & 63;
        std::uint64_t value = _words[word] >> off;
        if (off + len > 64)
            value |= _words[word + 1] << (64 - off);
        return len < 64 ? value & ((std::uint64_t{1} << len) - 1) : value;
    }

    /**
     * setField() without the bounds assertion.
     * @pre 1 <= len <= 64 and pos + len <= width()
     */
    void
    setFieldUnchecked(unsigned pos, unsigned len, std::uint64_t value)
    {
        DESC_DCHECK(len >= 1 && len <= 64 && pos + len <= _width,
                    "unchecked setField [", pos, ",+", len, ") of width ",
                    _width);
        if (len < 64)
            value &= (std::uint64_t{1} << len) - 1;
        const unsigned word = pos >> 6;
        const unsigned off = pos & 63;
        const std::uint64_t lo_mask =
            (len < 64 ? ((std::uint64_t{1} << len) - 1) : ~std::uint64_t{0})
            << off;
        _words[word] = (_words[word] & ~lo_mask) | (value << off);
        if (off + len > 64) {
            const unsigned hi_len = off + len - 64;
            const std::uint64_t hi_mask = (std::uint64_t{1} << hi_len) - 1;
            _words[word + 1] = (_words[word + 1] & ~hi_mask)
                | (value >> (64 - off));
        }
    }

  private:
    void maskTail();

    unsigned _width;
    std::vector<std::uint64_t> _words;
};

/**
 * Sequential field reader over a BitVec's packed words. Walks the
 * vector front to back without per-read bounds checks or index
 * arithmetic from bit zero — the idiom for chunk iteration on hot
 * paths. The caller must not read past the vector's width, and the
 * source BitVec must outlive (and not reallocate under) the cursor.
 */
class BitCursor
{
  public:
    /** A cursor whose first read starts at bit @p pos of @p v. */
    explicit BitCursor(const BitVec &v, unsigned pos = 0)
        : _words(v.words().data()), _pos(pos)
    {
#ifndef NDEBUG
        _width = v.width();
#endif
    }

    /** Read the next @p len bits (1..64) and advance. */
    std::uint64_t
    next(unsigned len)
    {
        DESC_DCHECK(len >= 1 && len <= 64,
                    "cursor read of ", len, " bits");
#ifndef NDEBUG
        DESC_DCHECK(_pos + len <= _width, "cursor read [", _pos, ",+",
                    len, ") past width ", _width);
#endif
        const unsigned w = _pos >> 6;
        const unsigned off = _pos & 63;
        std::uint64_t value = _words[w] >> off;
        if (off + len > 64)
            value |= _words[w + 1] << (64 - off);
        _pos += len;
        return len < 64 ? value & ((std::uint64_t{1} << len) - 1) : value;
    }

    /** Bit position of the next read. */
    unsigned pos() const { return _pos; }

  private:
    const std::uint64_t *_words;
    unsigned _pos = 0;
#ifndef NDEBUG
    unsigned _width = 0; //!< Debug-only: bound for the overrun DCHECK
#endif
};

/** A 512-bit cache block payload. */
BitVec makeBlock();

} // namespace desc

#endif // DESC_COMMON_BITVEC_HH
