/**
 * @file
 * Shared pieces of the DESC equivalence suites: the (wires, chunk
 * bits, skip mode) parameter, the DescEquivalence fixture, a
 * traffic-like block generator, the lockstep check of the fast model
 * (DescScheme) and its scalar oracle against the ticked link, and the
 * case-name printer.
 * Two test binaries instantiate the fixture over different config
 * sets: tests_core over all 80 configs (test_equivalence.cc) and
 * tests_core_adaptive over the 20 adaptive-skip ones
 * (test_adaptive_streams.cc).
 */

#ifndef DESC_TESTS_CORE_EQUIVALENCE_HH
#define DESC_TESTS_CORE_EQUIVALENCE_HH

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "core/descscheme.hh"
#include "core/link.hh"
#include "oracle/oracle.hh"

/** (wires, chunk_bits, skip mode) */
using EquivalenceParam = std::tuple<unsigned, unsigned, desc::core::SkipMode>;

class DescEquivalence : public ::testing::TestWithParam<EquivalenceParam>
{
  protected:
    desc::core::DescConfig
    config() const
    {
        auto [wires, chunk_bits, skip] = GetParam();
        desc::core::DescConfig c;
        c.bus_wires = wires;
        c.chunk_bits = chunk_bits;
        c.block_bits = desc::kBlockBits;
        c.skip = skip;
        return c;
    }
};

/** Draw a block whose chunk values are biased toward zero and toward
 *  repeating the previous block, like real cache traffic. */
inline desc::BitVec
biasedBlock(desc::Rng &rng, const desc::BitVec &prev, unsigned chunk_bits,
            double zero_p, double repeat_p)
{
    desc::BitVec block(prev.width());
    for (unsigned pos = 0; pos < block.width(); pos += chunk_bits) {
        double u = rng.uniform();
        std::uint64_t v;
        if (u < zero_p)
            v = 0;
        else if (u < zero_p + repeat_p)
            v = prev.field(pos, chunk_bits);
        else
            v = rng.below(std::uint64_t{1} << chunk_bits);
        block.setField(pos, chunk_bits, v);
    }
    return block;
}

/**
 * Move @p block over the ticked @p link and through each of
 * @p schemes (DescScheme kernels and oracle::DescScalar walks), and
 * require what every DESC model and the reference engine must share: identical TransferResults, the block recovered intact,
 * and the two link endpoints in step (last-value tables, adaptive
 * counters). Fatal failures return from here only; wrap calls in
 * ASSERT_NO_FATAL_FAILURE.
 */
inline void
expectSchemesMatchLink(
    std::initializer_list<desc::encoding::TransferScheme *> schemes,
    desc::core::DescLink &link, const desc::BitVec &block, int block_no)
{
    desc::BitVec recv;
    const auto hw = link.transferBlock(block, &recv);
    ASSERT_EQ(recv, block) << "round-trip corruption at block " << block_no;
    for (desc::encoding::TransferScheme *scheme : schemes) {
        const auto model = scheme->transfer(block);
        SCOPED_TRACE(scheme->name());
        ASSERT_EQ(model.cycles, hw.cycles) << "block " << block_no;
        ASSERT_EQ(model.data_flips, hw.data_flips) << "block " << block_no;
        ASSERT_EQ(model.control_flips, hw.control_flips)
            << "block " << block_no;
        ASSERT_EQ(model.skipped, hw.skipped) << "block " << block_no;
    }
    ASSERT_EQ(link.tx().lastValues(), link.rx().lastValues())
        << "tx/rx last-value tables diverged at block " << block_no;
    ASSERT_TRUE(link.tx().adaptive() == link.rx().adaptive())
        << "tx/rx adaptive counters diverged at block " << block_no;
}

/** Case name suffix, e.g. "w64_c4_adaptive". */
inline std::string
equivalenceParamName(const ::testing::TestParamInfo<EquivalenceParam> &info)
{
    using desc::core::SkipMode;
    unsigned wires = std::get<0>(info.param);
    unsigned bits = std::get<1>(info.param);
    SkipMode skip = std::get<2>(info.param);
    std::string name = "w" + std::to_string(wires) + "_c"
        + std::to_string(bits) + "_";
    switch (skip) {
      case SkipMode::None:
        name += "basic";
        break;
      case SkipMode::Zero:
        name += "zero";
        break;
      case SkipMode::LastValue:
        name += "last";
        break;
      case SkipMode::Adaptive:
        name += "adaptive";
        break;
    }
    return name;
}

#endif // DESC_TESTS_CORE_EQUIVALENCE_HH
