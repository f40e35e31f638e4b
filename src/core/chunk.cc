#include "core/chunk.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/swar.hh"
#include "encoding/scheme.hh"

namespace desc::core {

std::vector<std::uint8_t>
splitChunks(const BitVec &block, unsigned chunk_bits)
{
    DESC_ASSERT(chunk_bits >= 1 && chunk_bits <= 8,
                "chunk size must be 1..8 bits");
    DESC_ASSERT(block.width() % chunk_bits == 0,
                "block width not divisible by chunk size");
    unsigned n = block.width() / chunk_bits;
    // Test/example convenience, not transfer-path work: neither the
    // link nor the schemes materialize chunk vectors per transfer.
    std::vector<std::uint8_t> chunks(n); // analyze:allow(hot-path-alloc)
    BitCursor cur(block);
    for (unsigned i = 0; i < n; i++)
        chunks[i] = std::uint8_t(cur.next(chunk_bits));
    return chunks;
}

BitVec
joinChunks(const std::vector<std::uint8_t> &chunks, unsigned chunk_bits,
           unsigned block_bits)
{
    DESC_ASSERT(chunks.size() * chunk_bits == block_bits,
                "chunk count does not cover the block");
    BitVec block(block_bits);
    for (unsigned i = 0; i < chunks.size(); i++)
        block.setField(i * chunk_bits, chunk_bits, chunks[i]);
    return block;
}

ChunkStats::ChunkStats(unsigned chunk_bits, unsigned wires)
    : _chunk_bits(chunk_bits), _wires(wires),
      _batched(encoding::defaultEncoderMode() != encoding::EncoderMode::Scalar
               && swar::supportedChunk(chunk_bits)),
      _hist(1u << chunk_bits), _last(wires, 0), _last_valid(wires, false),
      _prev_words((std::size_t(wires) * chunk_bits + 63) / 64, 0)
{
}

bool
ChunkStats::batchedObservable(unsigned n) const
{
    // The word pass needs complete waves (every wire sees the same
    // number of chunks) laid out as whole-word slices of the block; a
    // single wave always starts at bit 0 and pads with zero bits that
    // produce no samples or match candidates.
    if (n % _wires != 0)
        return false;
    const unsigned waves = n / _wires;
    if (waves > 1 && (_wires * _chunk_bits) % 64 != 0)
        return false;
    return true;
}

void
ChunkStats::packPrevWords()
{
    std::fill(_prev_words.begin(), _prev_words.end(), 0);
    for (unsigned w = 0; w < _wires; w++) {
        const unsigned pos = w * _chunk_bits;
        _prev_words[pos >> 6] |= std::uint64_t{_last[w]} << (pos & 63);
    }
    _words_fresh = true;
}

void
ChunkStats::unpackPrevWords()
{
    const std::uint64_t mask = (std::uint64_t{1} << _chunk_bits) - 1;
    for (unsigned w = 0; w < _wires; w++) {
        const unsigned pos = w * _chunk_bits;
        _last[w] =
            std::uint8_t((_prev_words[pos >> 6] >> (pos & 63)) & mask);
        _last_valid[w] = _primed;
    }
    _words_fresh = false;
}

void
ChunkStats::observe(const BitVec &block)
{
    DESC_ASSERT(block.width() % _chunk_bits == 0,
                "block width not divisible by chunk size");
    const unsigned n = block.width() / _chunk_bits;
    if (_batched && batchedObservable(n)) {
        if (!_words_fresh) {
            // Adopting the packed representation needs uniform wire
            // validity, which only complete blocks guarantee; mixed
            // scalar streams with ragged validity stay scalar.
            const bool uniform = _hist.total() == 0
                || std::all_of(_last_valid.begin(), _last_valid.end(),
                               [&](bool v) { return v == _primed; });
            if (!uniform) {
                observeScalar(block, n);
                return;
            }
            packPrevWords();
        }
        observeBatched(block, n);
        return;
    }
    if (_words_fresh)
        unpackPrevWords();
    observeScalar(block, n);
}

void
ChunkStats::observeScalar(const BitVec &block, unsigned n)
{
    BitCursor cur(block);
    unsigned w = 0;
    for (unsigned i = 0; i < n; i++) {
        const auto chunk = std::uint8_t(cur.next(_chunk_bits));
        _hist.sample(chunk);
        if (_last_valid[w]) {
            _match_candidates++;
            if (_last[w] == chunk)
                _matches++;
        }
        _last[w] = chunk;
        _last_valid[w] = true;
        if (++w == _wires)
            w = 0;
    }
    if (n % _wires == 0 && n > 0)
        _primed = true;
}

namespace {

/**
 * Per-value chunk counts of one word (only the low @p chunks chunks).
 * B == 1 short-circuits to a popcount; wider chunks extract serially
 * into the local count array.
 */
template <unsigned B>
inline void
countWordChunks(std::uint64_t x, unsigned chunks, std::uint32_t *counts)
{
    if constexpr (B == 1) {
        const std::uint64_t valid = chunks >= 64
            ? ~std::uint64_t{0}
            : (std::uint64_t{1} << chunks) - 1;
        const unsigned ones = swar::popcount64(x & valid);
        counts[1] += ones;
        counts[0] += chunks - ones;
    } else {
        constexpr std::uint64_t mask = (std::uint64_t{1} << B) - 1;
        for (unsigned k = 0; k < chunks; k++) {
            counts[x & mask]++;
            x >>= B;
        }
    }
}

using CountFn = void (*)(std::uint64_t, unsigned, std::uint32_t *);
using DiffFn = unsigned (*)(std::uint64_t);

template <unsigned B>
inline unsigned
diffChunks(std::uint64_t d)
{
    return swar::nonzeroChunks<B>(d);
}

constexpr CountFn kCount[4] = {countWordChunks<1>, countWordChunks<2>,
                               countWordChunks<4>, countWordChunks<8>};
constexpr DiffFn kDiff[4] = {diffChunks<1>, diffChunks<2>, diffChunks<4>,
                             diffChunks<8>};

} // namespace

void
ChunkStats::observeBatched(const BitVec &block, unsigned n)
{
    const unsigned lb = unsigned(std::countr_zero(_chunk_bits));
    const unsigned waves = n / _wires;
    const auto &words = block.words();
    const unsigned wpw = waves > 1 ? _wires * _chunk_bits / 64
                                   : unsigned(words.size());
    const unsigned cpw = 64 / _chunk_bits; // chunks per full word

    std::uint32_t counts[256] = {};
    std::uint64_t diffs = 0;
    unsigned candidate_waves = 0;

    for (unsigned g = 0; g < waves; g++) {
        const std::uint64_t *cur = words.data() + std::size_t(g) * wpw;
        // Histogram: padding chunks past the wave's real width must
        // not be sampled, so the final word counts only its remainder.
        unsigned left = _wires;
        for (unsigned j = 0; j < wpw; j++) {
            kCount[lb](cur[j], std::min(left, cpw), counts);
            left -= std::min(left, cpw);
        }
        // Matches against the previous chunk on each wire: the prior
        // word slice, or the previous block's final wave for wave 0.
        // Padding bits are zero on both sides and cannot produce a
        // spurious difference.
        const std::uint64_t *prev = g == 0 ? _prev_words.data() : cur - wpw;
        if (g > 0 || _primed) {
            candidate_waves++;
            for (unsigned j = 0; j < wpw; j++) {
                const std::uint64_t d = cur[j] ^ prev[j];
                if (d)
                    diffs += kDiff[lb](d);
            }
        }
    }

    for (unsigned v = 0; v < (1u << _chunk_bits); v++) {
        if (counts[v])
            _hist.sample(v, counts[v]);
    }
    _match_candidates += std::uint64_t(candidate_waves) * _wires;
    _matches += std::uint64_t(candidate_waves) * _wires - diffs;

    std::copy_n(words.data() + std::size_t(waves - 1) * wpw, wpw,
                _prev_words.begin());
    _primed = true;
    _words_fresh = true;
}

double
ChunkStats::valueFraction(std::uint8_t v) const
{
    return _hist.fraction(v);
}

double
ChunkStats::lastValueMatchFraction() const
{
    return _match_candidates
        ? double(_matches) / double(_match_candidates)
        : 0.0;
}

} // namespace desc::core
