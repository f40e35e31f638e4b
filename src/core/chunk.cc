#include "core/chunk.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/swar.hh"

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
    // lint:allow(hot-path-alloc)
    std::vector<std::uint8_t> chunks(n);
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
    : _chunk_bits(chunk_bits), _wires(wires), _hist(1u << chunk_bits),
      _prev(wires * chunk_bits)
{
}

namespace {

/**
 * Tally a block of B-bit chunks on a bus whose waves span @p wave_bits:
 * per-value counts into @p counts, the match candidates into
 * @p candidates and the candidates that differ from their predecessor
 * into @p diffs. Wave by wave (the last one may be partial), in pieces
 * of up to 64 bits of whole chunks, a chunk's predecessor on its wire
 * is the previous block's last chunk there for wave 0 (@p prev; a
 * candidate only in its first @p valid_bits), and the same wire's
 * chunk in the preceding wave after that. B == 1 counts values with a
 * popcount; wider chunks extract serially into the count array.
 */
template <unsigned B>
void
tallyBlock(const BitVec &block, const BitVec &prev, unsigned wave_bits,
           unsigned valid_bits, std::uint32_t *counts,
           std::uint64_t &candidates, std::uint64_t &diffs)
{
    const unsigned width = block.width();
    for (unsigned base = 0; base < width; base += wave_bits) {
        const unsigned len = std::min(wave_bits, width - base);
        const unsigned valid = base == 0 ? std::min(len, valid_bits) : len;
        for (unsigned off = 0; off < len; off += 64) {
            const unsigned n = std::min(64u, len - off);
            std::uint64_t x = block.fieldUnchecked(base + off, n);
            const std::uint64_t p = base == 0
                ? prev.fieldUnchecked(off, n)
                : block.fieldUnchecked(base - wave_bits + off, n);
            const unsigned cand = valid > off ? std::min(n, valid - off) : 0;
            const std::uint64_t cand_mask = cand >= 64
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << cand) - 1;
            candidates += cand / B;
            diffs += swar::nonzeroChunks<B>((x ^ p) & cand_mask);
            if constexpr (B == 1) {
                const unsigned ones = swar::popcount64(x);
                counts[1] += ones;
                counts[0] += n - ones;
            } else {
                constexpr std::uint64_t mask = (std::uint64_t{1} << B) - 1;
                for (unsigned k = 0; k < n / B; k++) {
                    counts[x & mask]++;
                    x >>= B;
                }
            }
        }
    }
}

using TallyFn = void (*)(const BitVec &, const BitVec &, unsigned, unsigned,
                         std::uint32_t *, std::uint64_t &, std::uint64_t &);

/** Instantiations for each supported chunk width, indexed by log2. */
constexpr TallyFn kTally[4] = {tallyBlock<1>, tallyBlock<2>, tallyBlock<4>,
                               tallyBlock<8>};

} // namespace

void
ChunkStats::observe(const BitVec &block)
{
    DESC_ASSERT(swar::supportedChunk(_chunk_bits) && _wires >= 1,
                "chunk statistics need 1, 2, 4 or 8-bit chunks on >= 1 "
                "wire: ", _chunk_bits, " bits, ", _wires, " wires");
    DESC_ASSERT(block.width() % _chunk_bits == 0,
                "block width not divisible by chunk size");
    const unsigned width = block.width();
    const unsigned wave_bits = _wires * _chunk_bits;

    std::uint32_t counts[256] = {};
    std::uint64_t candidates = 0;
    std::uint64_t diffs = 0;
    kTally[std::countr_zero(_chunk_bits)](block, _prev, wave_bits,
                                          _valid_wires * _chunk_bits, counts,
                                          candidates, diffs);
    for (unsigned v = 0; v < (1u << _chunk_bits); v++) {
        if (counts[v])
            _hist.sample(v, counts[v]);
    }
    _match_candidates += candidates;
    _matches += candidates - diffs;

    // Each wire's last chunk: the final complete wave, overlaid by a
    // trailing partial wave on its leading wires.
    const unsigned full = width / wave_bits;
    const unsigned tail = width % wave_bits;
    if (full)
        _prev.copyRange(block, (full - 1) * wave_bits, wave_bits);
    if (tail)
        _prev.copyRange(block, full * wave_bits, tail);
    _valid_wires = std::max(_valid_wires,
                            std::min(_wires, width / _chunk_bits));
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
