/**
 * @file
 * Analytic oracles for binary transfer and DESC.
 *
 * The differential suites compare one implementation with another, so
 * a misreading of the paper shared by both sides passes them. These
 * cases compare each model with exact expectations instead, derived
 * by enumeration from the protocol on fixed-seed streams of iid
 * uniform blocks:
 *
 *   - binary: every wire flips with probability 1/2 per beat, so a
 *     W-wire beat costs W/2 flips on average;
 *   - DESC: a chunk of value v costs c(v, s) cycles (v + 1 in basic
 *     mode; v, or v + (v < s), when the skip value s differs, and 0
 *     when skipped). A wave of k chunks closes after
 *     max(1, max_i c_i) cycles, whose law is F(m)^k with F the
 *     enumerated per-chunk cost CDF; for basic DESC this gives the
 *     order-statistic window 1 + sum_v (1 - ((v+1)/2^c)^k). Each wave
 *     sends one reset pulse, the final wave one more if it skipped a
 *     chunk, and the strobe toggles once per cycle.
 *
 * Sample means must sit within five standard errors of the exact
 * expectation; quantities that are exact per block (basic DESC's data
 * flips and strobe) must match exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/descscheme.hh"
#include "core/factory.hh"
#include "oracle/oracle.hh"

using namespace desc;
using namespace desc::core;

namespace {

constexpr int kBlocks = 4000;

/** Exact mean and variance of one per-block quantity. */
struct Expect
{
    double mean;
    double var;
};

/** Sample mean of one per-block quantity against its expectation. */
struct Moments
{
    double sum = 0;
    int n = 0;

    void
    add(double x)
    {
        sum += x;
        n++;
    }

    void
    expectNear(const Expect &e, const std::string &what) const
    {
        const double mean = sum / n;
        const double tol = 5.0 * std::sqrt(e.var / n) + 1e-9;
        EXPECT_NEAR(mean, e.mean, tol) << what;
    }
};

/**
 * Per-chunk cost law of a DESC skip mode on uniform c-bit chunks:
 * pmf[x] = P(cost == x), skipped chunks costing 0; the skip value of
 * last-value skip is itself uniform (the same wire's previous chunk).
 */
std::vector<double>
costPmf(SkipMode skip, unsigned c)
{
    const unsigned values = 1u << c;
    std::vector<double> pmf(values + 1, 0.0);
    for (unsigned v = 0; v < values; v++) {
        for (unsigned s = 0; s < values; s++) {
            unsigned cost;
            switch (skip) {
              case SkipMode::None:
                cost = v + 1;
                break;
              case SkipMode::Zero:
                cost = v;
                break;
              default:
                cost = v == s ? 0 : v + (v < s);
                break;
            }
            pmf[cost] += 1.0 / (double(values) * values);
        }
    }
    return pmf;
}

/** Law of a wave's window max(1, max of k iid costs with @p pmf). */
Expect
windowLaw(const std::vector<double> &pmf, unsigned k)
{
    double cdf = pmf[0];
    double below = 0; // P(window < m)
    Expect w{0, 0};
    double second = 0;
    for (unsigned m = 1; m < pmf.size(); m++) {
        cdf += pmf[m];
        const double upto = std::pow(cdf, double(k)); // P(window <= m)
        const double p = upto - below;
        w.mean += m * p;
        second += double(m) * m * p;
        below = upto;
    }
    w.var = second - w.mean * w.mean;
    return w;
}

DescConfig
layout(unsigned chunk_bits, unsigned block_bits, unsigned wires,
       SkipMode skip)
{
    DescConfig c;
    c.chunk_bits = chunk_bits;
    c.block_bits = block_bits;
    c.bus_wires = wires;
    c.skip = skip;
    return c;
}

/** The production kernel and the scalar oracle of one config. */
std::vector<std::unique_ptr<encoding::TransferScheme>>
descModels(const DescConfig &cfg)
{
    std::vector<std::unique_ptr<encoding::TransferScheme>> out;
    out.push_back(std::make_unique<DescScheme>(cfg));
    out.push_back(std::make_unique<oracle::DescScalar>(cfg));
    return out;
}

/**
 * Stream uniform blocks through @p cfg's models and compare cycles,
 * skipped chunks, data flips and reset pulses with their expectations.
 * Block 0 primes the last-value references and is not counted.
 */
void
expectDescMatchesLaw(const DescConfig &cfg)
{
    const unsigned c = cfg.chunk_bits;
    const unsigned k = cfg.activeWires();
    const unsigned waves = cfg.numWaves();
    const double n = cfg.numChunks();
    const double p_skip = cfg.skip == SkipMode::None ? 0.0 : 1.0 / (1u << c);
    const Expect win = windowLaw(costPmf(cfg.skip, c), k);
    const Expect cycles{1 + waves * win.mean, waves * win.var};
    const Expect skipped{n * p_skip, n * p_skip * (1 - p_skip)};
    const Expect data{n - skipped.mean, skipped.var};
    // One pulse per wave, plus the final one if the last wave skipped.
    const double q = 1 - std::pow(1 - p_skip, double(k));
    const Expect resets = cfg.skip == SkipMode::None
        ? Expect{1, 0}
        : Expect{waves + q, q * (1 - q)};

    for (auto &model : descModels(cfg)) {
        SCOPED_TRACE(std::string(model->name()) + " c"
                     + std::to_string(c) + " w" + std::to_string(k)
                     + " b" + std::to_string(cfg.block_bits));
        Rng rng(0xa7a1 + c * 977 + k * 31 + unsigned(cfg.skip));
        BitVec block(cfg.block_bits);
        Moments m_cycles, m_skipped, m_data, m_resets;
        for (int i = 0; i <= kBlocks; i++) {
            block.randomize(rng);
            const auto r = model->transfer(block);
            if (i == 0)
                continue;
            m_cycles.add(double(r.cycles));
            m_skipped.add(double(r.skipped));
            m_data.add(double(r.data_flips));
            // The sync strobe toggles once per busy cycle.
            m_resets.add(double(r.control_flips) - double(r.cycles));
        }
        m_cycles.expectNear(cycles, "cycles per block");
        m_skipped.expectNear(skipped, "skipped chunks per block");
        m_data.expectNear(data, "data flips per block");
        m_resets.expectNear(resets, "reset pulses per block");
    }
}

} // namespace

TEST(AnalyticOracle, BinaryFlipsHalfTheWiresPerBeat)
{
    for (unsigned wires : {1u, 32u, 64u, 128u}) {
        encoding::SchemeConfig cfg;
        cfg.bus_wires = wires;
        auto scheme = makeScheme(encoding::SchemeKind::Binary, cfg);
        const double beats = double(cfg.block_bits) / wires;
        // Every bit of every beat flips independently w.p. 1/2.
        const Expect flips{beats * wires / 2, beats * wires / 4};
        Rng rng(0xb1 + wires);
        BitVec block(cfg.block_bits);
        Moments m;
        for (int i = 0; i < kBlocks; i++) {
            block.randomize(rng);
            const auto r = scheme->transfer(block);
            ASSERT_EQ(r.control_flips, 0u);
            m.add(double(r.data_flips));
        }
        m.expectNear(flips, "data flips per block, " + std::to_string(wires)
                                + " wires");
    }
}

TEST(AnalyticOracle, BasicDescMatchesOrderStatistic)
{
    // Single-wave layouts: the window is the order-statistic maximum
    // of k chunks, and data flips (one per chunk) and the strobe are
    // exact per block.
    for (const auto &cfg :
         {layout(4, 512, 128, SkipMode::None), layout(4, 32, 8, SkipMode::None),
          layout(2, 16, 8, SkipMode::None), layout(8, 64, 8, SkipMode::None),
          layout(1, 8, 8, SkipMode::None)}) {
        const double k = cfg.activeWires();
        double window = 1;
        for (unsigned v = 0; v + 1 < (1u << cfg.chunk_bits); v++)
            window += 1 - std::pow((v + 1.0) / (1u << cfg.chunk_bits), k);
        EXPECT_NEAR(windowLaw(costPmf(SkipMode::None, cfg.chunk_bits),
                              cfg.activeWires())
                        .mean,
                    window, 1e-12);
        expectDescMatchesLaw(cfg);
    }
}

TEST(AnalyticOracle, ZeroSkipDescMatchesOrderStatistic)
{
    // Zero chunks leave the maximum, and an all-zero wave still takes
    // one cycle; multi-wave layouts add independent waves (the 1-bit
    // layout is the kernel's scalar lane).
    for (const auto &cfg :
         {layout(4, 512, 128, SkipMode::Zero), layout(4, 32, 8, SkipMode::Zero),
          layout(2, 16, 8, SkipMode::Zero), layout(8, 64, 8, SkipMode::Zero),
          layout(4, 512, 64, SkipMode::Zero),
          layout(1, 512, 32, SkipMode::Zero)}) {
        expectDescMatchesLaw(cfg);
    }
}

TEST(AnalyticOracle, LastValueSkipDescMatchesEnumeration)
{
    for (const auto &cfg : {layout(4, 512, 128, SkipMode::LastValue),
                            layout(4, 32, 8, SkipMode::LastValue),
                            layout(2, 16, 8, SkipMode::LastValue),
                            layout(4, 512, 64, SkipMode::LastValue),
                            layout(1, 512, 32, SkipMode::LastValue)}) {
        expectDescMatchesLaw(cfg);
    }
}
