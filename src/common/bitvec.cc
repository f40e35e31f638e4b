#include "common/bitvec.hh"

#include <cstring>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/swar.hh"

namespace desc {

namespace {

constexpr unsigned kWordBits = 64;

unsigned
wordsFor(unsigned width)
{
    return (width + kWordBits - 1) / kWordBits;
}

} // namespace

BitVec::BitVec(unsigned width)
    : _width(width), _words(wordsFor(width), 0)
{
}

BitVec::BitVec(unsigned width, std::uint64_t value)
    : _width(width), _words(wordsFor(width), 0)
{
    if (!_words.empty())
        _words[0] = value;
    maskTail();
}

void
BitVec::maskTail()
{
    unsigned rem = _width % kWordBits;
    if (rem != 0 && !_words.empty())
        _words.back() &= (std::uint64_t{1} << rem) - 1;
}

std::uint64_t
BitVec::field(unsigned pos, unsigned len) const
{
    DESC_ASSERT(len <= 64 && pos + len <= _width,
                "field [", pos, ",+", len, ") of width ", _width);
    if (len == 0)
        return 0;
    unsigned word = pos / kWordBits;
    unsigned off = pos % kWordBits;
    std::uint64_t value = _words[word] >> off;
    if (off + len > kWordBits)
        value |= _words[word + 1] << (kWordBits - off);
    if (len < 64)
        value &= (std::uint64_t{1} << len) - 1;
    return value;
}

void
BitVec::setField(unsigned pos, unsigned len, std::uint64_t value)
{
    DESC_ASSERT(len <= 64 && pos + len <= _width,
                "field [", pos, ",+", len, ") of width ", _width);
    if (len == 0)
        return;
    if (len < 64)
        value &= (std::uint64_t{1} << len) - 1;
    unsigned word = pos / kWordBits;
    unsigned off = pos % kWordBits;
    std::uint64_t lo_mask =
        (len < 64 ? ((std::uint64_t{1} << len) - 1) : ~std::uint64_t{0})
        << off;
    _words[word] = (_words[word] & ~lo_mask) | (value << off);
    if (off + len > kWordBits) {
        unsigned hi_len = off + len - kWordBits;
        std::uint64_t hi_mask = (std::uint64_t{1} << hi_len) - 1;
        _words[word + 1] = (_words[word + 1] & ~hi_mask)
            | (value >> (kWordBits - off));
    }
}

void
BitVec::copyRange(const BitVec &src, unsigned src_pos, unsigned len)
{
    DESC_DCHECK(len <= _width && src_pos + len <= src._width,
                "copy [", src_pos, ",+", len, ") of width ", src._width,
                " into width ", _width);
    // Whole words, then the tail: the destination starts at bit 0.
    const unsigned tail = len % kWordBits;
    for (unsigned w = 0; w < len / kWordBits; w++)
        _words[w] = src.fieldUnchecked(src_pos + w * kWordBits, kWordBits);
    if (tail)
        setFieldUnchecked(len - tail, tail,
                          src.fieldUnchecked(src_pos + len - tail, tail));
}

unsigned
BitVec::popcount() const
{
    unsigned count = 0;
    for (std::uint64_t w : _words)
        count += swar::popcount64(w);
    return count;
}

unsigned
BitVec::hammingDistance(const BitVec &other) const
{
    DESC_ASSERT(_width == other._width, "width mismatch ", _width, " vs ",
                other._width);
    unsigned count = 0;
    for (std::size_t i = 0; i < _words.size(); i++)
        count += swar::popcount64(_words[i] ^ other._words[i]);
    return count;
}

void
BitVec::invertRange(unsigned pos, unsigned len)
{
    DESC_ASSERT(pos + len <= _width,
                "range [", pos, ",+", len, ") of width ", _width);
    // Invert in word-sized strides.
    unsigned done = 0;
    while (done < len) {
        unsigned p = pos + done;
        unsigned chunk = std::min<unsigned>(64 - (p % kWordBits), len - done);
        std::uint64_t mask = chunk == 64
            ? ~std::uint64_t{0}
            : ((std::uint64_t{1} << chunk) - 1);
        _words[p / kWordBits] ^= mask << (p % kWordBits);
        done += chunk;
    }
}

void
BitVec::clear()
{
    std::fill(_words.begin(), _words.end(), 0);
}

bool
BitVec::allZero() const
{
    for (std::uint64_t w : _words) {
        if (w != 0)
            return false;
    }
    return true;
}

BitVec &
BitVec::operator^=(const BitVec &other)
{
    DESC_ASSERT(_width == other._width, "width mismatch");
    for (std::size_t i = 0; i < _words.size(); i++)
        _words[i] ^= other._words[i];
    return *this;
}

bool
BitVec::operator==(const BitVec &other) const
{
    return _width == other._width && _words == other._words;
}

void
BitVec::randomize(Rng &rng)
{
    for (std::uint64_t &w : _words)
        w = rng.next();
    maskTail();
}

void
BitVec::fromBytes(const std::uint8_t *bytes, std::size_t n)
{
    DESC_ASSERT(n * 8 >= _width, "byte buffer too small");
    std::fill(_words.begin(), _words.end(), 0);
    std::size_t need = (_width + 7) / 8;
    std::memcpy(_words.data(), bytes, std::min(n, need));
    maskTail();
}

void
BitVec::toBytes(std::uint8_t *bytes, std::size_t n) const
{
    std::size_t have = (_width + 7) / 8;
    DESC_ASSERT(n >= have, "byte buffer too small");
    std::memcpy(bytes, _words.data(), have);
}

std::string
BitVec::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    unsigned nibbles = (_width + 3) / 4;
    for (unsigned i = nibbles; i-- > 0;) {
        unsigned pos = i * 4;
        unsigned len = std::min(4u, _width - pos);
        out.push_back(digits[field(pos, len)]);
    }
    return out;
}

BitVec
makeBlock()
{
    return BitVec(kBlockBits);
}

} // namespace desc
