/**
 * @file
 * Cross-scheme property suite: invariants every TransferScheme must
 * satisfy, swept over all eight schemes and several bus widths.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "core/factory.hh"

using namespace desc;
using namespace desc::encoding;

namespace {

/** (scheme, bus wires) */
using Param = std::tuple<SchemeKind, unsigned>;

SchemeConfig
makeCfg(unsigned wires)
{
    SchemeConfig cfg;
    cfg.bus_wires = wires;
    cfg.segment_bits = 16;
    cfg.chunk_bits = 4;
    return cfg;
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    static const char *names[] = {"binary", "dzc", "bic", "zsbic",
                                  "ezsbic", "desc", "zsdesc",
                                  "lvsdesc"};
    return std::string(names[unsigned(std::get<0>(info.param))]) + "_w"
        + std::to_string(std::get<1>(info.param));
}

} // namespace

class SchemeProperties : public ::testing::TestWithParam<Param>
{
  protected:
    std::unique_ptr<TransferScheme>
    make() const
    {
        return core::makeScheme(std::get<0>(GetParam()),
                                makeCfg(std::get<1>(GetParam())));
    }
};

TEST_P(SchemeProperties, TransferAlwaysTakesTime)
{
    auto scheme = make();
    Rng rng(1);
    for (int i = 0; i < 30; i++) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        auto r = scheme->transfer(block);
        EXPECT_GE(r.cycles, 1u);
    }
}

TEST_P(SchemeProperties, FlipsAreBoundedByPhysicalWires)
{
    // No transfer can flip more than every wire every cycle.
    auto scheme = make();
    Rng rng(2);
    unsigned total_wires =
        scheme->dataWires() + scheme->controlWires() + 2;
    for (int i = 0; i < 50; i++) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        auto r = scheme->transfer(block);
        EXPECT_LE(r.totalFlips(),
                  std::uint64_t(total_wires) * r.cycles);
    }
}

TEST_P(SchemeProperties, DeterministicGivenSameHistory)
{
    auto a = make();
    auto b = make();
    Rng rng(3);
    for (int i = 0; i < 30; i++) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        auto ra = a->transfer(block);
        auto rb = b->transfer(block);
        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_EQ(ra.data_flips, rb.data_flips);
        EXPECT_EQ(ra.control_flips, rb.control_flips);
    }
}

TEST_P(SchemeProperties, ResetRestoresInitialBehavior)
{
    auto scheme = make();
    Rng rng(4);
    BitVec probe(kBlockBits);
    probe.randomize(rng);
    auto fresh = scheme->transfer(probe);
    for (int i = 0; i < 10; i++) {
        BitVec noise(kBlockBits);
        noise.randomize(rng);
        scheme->transfer(noise);
    }
    scheme->reset();
    auto again = scheme->transfer(probe);
    EXPECT_EQ(again.cycles, fresh.cycles);
    EXPECT_EQ(again.data_flips, fresh.data_flips);
    EXPECT_EQ(again.control_flips, fresh.control_flips);
}

TEST_P(SchemeProperties, SteadyZeroStreamIsNearlyFree)
{
    // After one all-zero block, further all-zero blocks must cost at
    // most the per-block control overhead (reset/sync/indicators), a
    // small fraction of a full-activity transfer.
    auto scheme = make();
    BitVec zeros(kBlockBits);
    scheme->transfer(zeros);
    auto r = scheme->transfer(zeros);
    if (std::get<0>(GetParam()) == SchemeKind::DescBasic) {
        // Basic DESC is data-independent: always one flip per chunk.
        EXPECT_EQ(r.data_flips, kBlockBits / 4);
    } else {
        EXPECT_EQ(r.data_flips, 0u);
    }
    EXPECT_LE(r.control_flips, 8u + r.cycles); // pulses + sync strobe
}

TEST_P(SchemeProperties, NameIsStable)
{
    auto scheme = make();
    EXPECT_STREQ(scheme->name(),
                 schemeName(std::get<0>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeProperties,
    ::testing::Combine(
        ::testing::Values(SchemeKind::Binary,
                          SchemeKind::DynamicZeroCompression,
                          SchemeKind::BusInvert,
                          SchemeKind::ZeroSkipBusInvert,
                          SchemeKind::EncodedZeroSkipBusInvert,
                          SchemeKind::DescBasic,
                          SchemeKind::DescZeroSkip,
                          SchemeKind::DescLastValueSkip),
        ::testing::Values(32u, 64u, 128u)),
    paramName);

/** The non-DESC schemes, whose transfer time does not depend on data. */
class NonDescCycles : public SchemeProperties
{};

TEST_P(NonDescCycles, BeatsPlusFixedPipeline)
{
    // One beat per cycle plus a fixed encode/detect pipeline, whatever
    // the data and the segment size: binary none, DZC, BI and ZS-BIC
    // one stage, eZS-BIC two.
    const auto [kind, wires] = GetParam();
    Cycle stages = 1;
    unsigned min_segment = 4; // the bus-invert lane pass
    switch (kind) {
      case SchemeKind::Binary:
        stages = 0;
        min_segment = 1; // segment_bits is unused
        break;
      case SchemeKind::DynamicZeroCompression:
        min_segment = 1;
        break;
      case SchemeKind::EncodedZeroSkipBusInvert:
        stages = 2;
        break;
      default:
        break;
    }
    const Cycle beats = (kBlockBits + wires - 1) / wires;
    const BitVec zeros(kBlockBits);
    Rng rng(5);
    // Every legal segment size: powers of two up to 64 that divide
    // the bus.
    for (unsigned seg = min_segment; seg <= 64 && seg <= wires; seg *= 2) {
        SchemeConfig cfg = makeCfg(wires);
        cfg.segment_bits = seg;
        auto scheme = core::makeScheme(kind, cfg);
        for (int i = 0; i < 24; i++) {
            BitVec block(kBlockBits);
            block.randomize(rng);
            if (i % 2) {
                // Sparse blocks: most segments zero, some not.
                for (auto &w : block.mutableWords())
                    w &= rng.next() & rng.next() & rng.next();
            }
            EXPECT_EQ(scheme->transfer(block).cycles, beats + stages)
                << "segment_bits=" << seg << " block " << i;
        }
        EXPECT_EQ(scheme->transfer(zeros).cycles, beats + stages)
            << "segment_bits=" << seg << " all-zero block";
    }
}

// The DESC kinds are left out: their window follows the chunk values.
INSTANTIATE_TEST_SUITE_P(
    NonDescSchemes, NonDescCycles,
    ::testing::Combine(
        ::testing::Values(SchemeKind::Binary,
                          SchemeKind::DynamicZeroCompression,
                          SchemeKind::BusInvert,
                          SchemeKind::ZeroSkipBusInvert,
                          SchemeKind::EncodedZeroSkipBusInvert),
        ::testing::Values(32u, 64u, 128u)),
    paramName);
