/**
 * @file
 * Per-layer differential suite for the baseline encoders: every
 * scheme's word-parallel kernel must produce the same TransferResult
 * and leave the same wire state, block by block, as its scalar oracle
 * (oracle/oracle.hh). Swept over segment widths and bus widths
 * (including the 48-wire and the 72-wire SECDED layouts) on zero-rich
 * and value-local streams.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/factory.hh"
#include "encoding/binary.hh"
#include "encoding/businvert.hh"
#include "encoding/dzc.hh"
#include "oracle/oracle.hh"

using namespace desc;
using namespace desc::encoding;

namespace {

struct Layout
{
    SchemeKind kind;
    unsigned wires;
    unsigned seg;
    unsigned block_bits;
};

std::vector<Layout>
layouts()
{
    std::vector<Layout> out;
    const SchemeKind kinds[] = {
        SchemeKind::Binary, SchemeKind::DynamicZeroCompression,
        SchemeKind::BusInvert, SchemeKind::ZeroSkipBusInvert,
        SchemeKind::EncodedZeroSkipBusInvert};
    for (SchemeKind kind : kinds) {
        for (unsigned wires : {48u, 64u, 72u, 128u}) {
            for (unsigned seg : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
                // Sub-4-bit segments are DZC-only (bus-invert rejects
                // them; binary keeps one layout per bus width).
                if (wires % seg != 0
                    || (seg < 4 && kind != SchemeKind::DynamicZeroCompression))
                    continue;
                // A 512-bit block, and on 72 wires also the 576-bit
                // (72,64)-protected bus word the hierarchy sends.
                out.push_back({kind, wires, seg, kBlockBits});
                if (wires == 72)
                    out.push_back({kind, wires, seg, 576});
                if (kind == SchemeKind::Binary)
                    break; // segment-free: one layout per bus width
            }
        }
    }
    return out;
}

std::string
layoutName(const ::testing::TestParamInfo<Layout> &info)
{
    static const char *names[] = {"binary", "dzc", "bic", "zsbic",
                                  "ezsbic"};
    const Layout &l = info.param;
    return std::string(names[unsigned(l.kind)]) + "_w"
        + std::to_string(l.wires) + "_s" + std::to_string(l.seg) + "_b"
        + std::to_string(l.block_bits);
}

/** Zero-rich: whole zero or all-ones words, small and sparse values. */
BitVec
zeroRichBlock(Rng &rng, unsigned bits)
{
    BitVec b(bits);
    for (unsigned pos = 0; pos < bits; pos += 64) {
        std::uint64_t w = 0;
        switch (rng.below(6)) {
          case 0:
          case 1:
            break;
          case 2:
            w = ~std::uint64_t{0};
            break;
          case 3:
            w = rng.below(256) << (4 * rng.below(15));
            break;
          case 4:
            w = rng.next() & rng.next() & rng.next();
            break;
          default:
            // Random nibbles with about half of them zeroed.
            w = rng.next();
            for (unsigned n = 0; n < 16; n++) {
                if (rng.chance(0.5))
                    w &= ~(std::uint64_t{0xf} << (4 * n));
            }
            break;
        }
        b.setField(pos, std::min(64u, bits - pos), w);
    }
    return b;
}

/** Value-local: the previous block with a few flips, or its complement. */
BitVec
valueLocalBlock(Rng &rng, const BitVec &prev)
{
    BitVec b = prev;
    if (rng.chance(0.15)) {
        b.invertRange(0, b.width());
        return b;
    }
    for (unsigned n = unsigned(rng.below(6)); n > 0; n--)
        b.flipBit(unsigned(rng.below(b.width())));
    return b;
}

/** Every wire and line level the scheme holds between transfers. */
std::string
wireState(const TransferScheme &s)
{
    if (auto *b = dynamic_cast<const BinaryScheme *>(&s))
        return "wires=" + b->wireLevels().toHex();
    if (auto *z = dynamic_cast<const DynamicZeroScheme *>(&s)) {
        return "wires=" + z->wireLevels().toHex()
            + " zero=" + z->zeroLevels().toHex();
    }
    auto &bic = dynamic_cast<const BusInvertScheme &>(s);
    std::string out = "wires=" + bic.wireLevels().toHex()
        + " inv=" + bic.invertLevels().toHex()
        + " skip=" + bic.skipLevels().toHex() + " mode=";
    for (std::uint32_t w : bic.modeBus())
        out += std::to_string(w) + ",";
    return out;
}

} // namespace

class EncoderEquivalence : public ::testing::TestWithParam<Layout>
{
  protected:
    SchemeConfig
    config() const
    {
        const Layout &l = GetParam();
        SchemeConfig cfg;
        cfg.bus_wires = l.wires;
        cfg.segment_bits = l.seg;
        cfg.block_bits = l.block_bits;
        return cfg;
    }
};

TEST_P(EncoderEquivalence, BatchedMatchesScalarBlockByBlock)
{
    const Layout &l = GetParam();
    auto fast = core::makeScheme(l.kind, config());
    auto ref = oracle::makeScheme(l.kind, config());

    Rng rng(l.wires * 131 + l.seg * 7 + unsigned(l.kind));
    BitVec block(l.block_bits);
    for (int i = 0; i < 400; i++) {
        if (i == 300) {
            // Both sides must return to the same idle state.
            fast->reset();
            ref->reset();
        }
        block = (i / 50) % 2 == 0 ? zeroRichBlock(rng, l.block_bits)
                                   : valueLocalBlock(rng, block);
        const TransferResult a = fast->transfer(block);
        const TransferResult b = ref->transfer(block);
        ASSERT_EQ(a.cycles, b.cycles) << "block " << i;
        ASSERT_EQ(a.data_flips, b.data_flips) << "block " << i;
        ASSERT_EQ(a.control_flips, b.control_flips) << "block " << i;
        ASSERT_EQ(a.skipped, b.skipped) << "block " << i;
        ASSERT_EQ(wireState(*fast), wireState(*ref)) << "block " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Layouts, EncoderEquivalence,
                         ::testing::ValuesIn(layouts()), layoutName);
