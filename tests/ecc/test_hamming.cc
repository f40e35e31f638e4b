/**
 * @file
 * Unit and property tests for the SECDED Hamming codes, including the
 * paper's (72, 64) and (137, 128) instances.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hh"
#include "ecc/hamming.hh"

using namespace desc;
using namespace desc::ecc;

namespace {

/**
 * Codeword index (data first, Hamming parity after) of the 1-based
 * Hamming position @p pos: parity bits sit at the powers of two, data
 * bits fill the other positions in order.
 */
unsigned
codewordIndex(unsigned data_bits, unsigned pos)
{
    if (std::has_single_bit(pos))
        return data_bits + unsigned(std::countr_zero(pos));
    return pos - unsigned(std::bit_width(pos)) - 1;
}

} // namespace

TEST(Secded, PaperCodeDimensions)
{
    // Section 3.2.3: the (72, 64) and (137, 128) Hamming codes.
    SecdedCode c64(64);
    EXPECT_EQ(c64.codeBits(), 72u);
    EXPECT_EQ(c64.parityBits(), 8u);

    SecdedCode c128(128);
    EXPECT_EQ(c128.codeBits(), 137u);
    EXPECT_EQ(c128.parityBits(), 9u);
}

TEST(Secded, CleanRoundTrip)
{
    Rng rng(1);
    for (unsigned data_bits : {8u, 64u, 128u}) {
        SecdedCode code(data_bits);
        for (int i = 0; i < 50; i++) {
            BitVec data(data_bits);
            data.randomize(rng);
            auto decoded = code.decode(code.encode(data));
            EXPECT_EQ(decoded.status, EccStatus::Ok);
            EXPECT_EQ(decoded.data, data);
        }
    }
}

TEST(Secded, SystematicLayoutKeepsDataInPlace)
{
    // Data must stay in standard binary format so the SRAM arrays are
    // unmodified (Section 3.2.3).
    Rng rng(2);
    SecdedCode code(64);
    BitVec data(64);
    data.randomize(rng);
    BitVec word = code.encode(data);
    for (unsigned i = 0; i < 64; i++)
        EXPECT_EQ(word.bit(i), data.bit(i));
}

class SecdedParam : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SecdedParam, EverySingleBitErrorIsCorrected)
{
    unsigned data_bits = GetParam();
    SecdedCode code(data_bits);
    Rng rng(3 + data_bits);
    BitVec data(data_bits);
    data.randomize(rng);
    BitVec word = code.encode(data);

    for (unsigned pos = 0; pos < code.codeBits(); pos++) {
        BitVec bad = word;
        bad.flipBit(pos);
        auto decoded = code.decode(bad);
        EXPECT_EQ(decoded.status, EccStatus::Corrected)
            << "flip at " << pos;
        EXPECT_EQ(decoded.data, data) << "flip at " << pos;
    }
}

TEST_P(SecdedParam, EveryDoubleBitErrorIsDetected)
{
    unsigned data_bits = GetParam();
    SecdedCode code(data_bits);
    Rng rng(4 + data_bits);
    BitVec data(data_bits);
    data.randomize(rng);
    BitVec word = code.encode(data);

    // Exhaustive for the small code; sampled for the large ones.
    unsigned n = code.codeBits();
    unsigned trials = data_bits <= 16 ? 0 : 500;
    if (trials == 0) {
        for (unsigned i = 0; i < n; i++) {
            for (unsigned j = i + 1; j < n; j++) {
                BitVec bad = word;
                bad.flipBit(i);
                bad.flipBit(j);
                EXPECT_EQ(code.decode(bad).status,
                          EccStatus::DetectedDouble)
                    << "flips at " << i << "," << j;
            }
        }
    } else {
        for (unsigned t = 0; t < trials; t++) {
            unsigned i = unsigned(rng.below(n));
            unsigned j = unsigned(rng.below(n));
            if (i == j)
                continue;
            BitVec bad = word;
            bad.flipBit(i);
            bad.flipBit(j);
            EXPECT_EQ(code.decode(bad).status,
                      EccStatus::DetectedDouble)
                << "flips at " << i << "," << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Codes, SecdedParam,
                         ::testing::Values(8u, 16u, 64u, 128u));

TEST(Secded, StatusNames)
{
    EXPECT_STREQ(eccStatusName(EccStatus::Ok), "ok");
    EXPECT_STREQ(eccStatusName(EccStatus::Corrected), "corrected");
    EXPECT_STREQ(eccStatusName(EccStatus::DetectedDouble),
                 "double-error");
}

TEST(Secded, OddErrorPointingPastTheCodewordIsUncorrectable)
{
    // An odd number of errors whose syndrome names no position of the
    // codeword cannot be a single error: it must be flagged, not
    // "corrected" with the data left corrupted. (72,64): positions
    // 71, 56, 3 give syndrome 124 > 71; (137,128): 136, 120, 3 give
    // 243 > 136.
    struct Case
    {
        unsigned data_bits;
        unsigned pos[3];
    };
    for (const Case &c : {Case{64, {71, 56, 3}}, Case{128, {136, 120, 3}}}) {
        SecdedCode code(c.data_bits);
        ASSERT_GT(c.pos[0] ^ c.pos[1] ^ c.pos[2], code.codeBits() - 1);
        Rng rng(c.data_bits);
        BitVec data(c.data_bits);
        data.randomize(rng);
        BitVec bad = code.encode(data);
        for (unsigned pos : c.pos)
            bad.flipBit(codewordIndex(c.data_bits, pos));
        EXPECT_EQ(code.decode(bad).status, EccStatus::DetectedDouble)
            << "data bits " << c.data_bits;
    }
}

TEST(Secded, TripleErrorsAreNeverSilentlyAcceptedPastTheCodeword)
{
    // Sampled triples: whenever the syndrome points outside the
    // codeword the decoder reports an uncorrectable error.
    Rng rng(9);
    for (unsigned data_bits : {64u, 128u}) {
        SecdedCode code(data_bits);
        const unsigned positions = code.codeBits() - 1;
        BitVec data(data_bits);
        data.randomize(rng);
        const BitVec word = code.encode(data);
        unsigned checked = 0;
        for (int t = 0; t < 2000; t++) {
            unsigned p[3];
            for (unsigned &x : p)
                x = 1 + unsigned(rng.below(positions));
            if (p[0] == p[1] || p[1] == p[2] || p[0] == p[2]
                || (p[0] ^ p[1] ^ p[2]) <= positions)
                continue;
            BitVec bad = word;
            for (unsigned x : p)
                bad.flipBit(codewordIndex(data_bits, x));
            EXPECT_EQ(code.decode(bad).status, EccStatus::DetectedDouble)
                << "positions " << p[0] << "," << p[1] << "," << p[2];
            checked++;
        }
        EXPECT_GT(checked, 0u);
    }
}
