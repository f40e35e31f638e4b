/**
 * @file
 * Unit tests for the toggle generator and detector circuits and the
 * word-wide detector bank (DESIGN.md §15): the bank must behave
 * exactly like one scalar detector per lane.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "core/toggle.hh"

using desc::BitVec;
using desc::Rng;
using namespace desc::core;

TEST(ToggleGenerator, AlternatesLevels)
{
    ToggleGenerator tg;
    EXPECT_FALSE(tg.level());
    tg.fire();
    EXPECT_TRUE(tg.level());
    tg.fire();
    EXPECT_FALSE(tg.level());
}

TEST(ToggleGenerator, ResetReturnsLow)
{
    ToggleGenerator tg;
    tg.fire();
    tg.reset();
    EXPECT_FALSE(tg.level());
}

TEST(ToggleDetector, DetectsEveryLevelChange)
{
    ToggleDetector td;
    EXPECT_FALSE(td.sample(false));
    EXPECT_TRUE(td.sample(true));
    EXPECT_FALSE(td.sample(true));
    EXPECT_TRUE(td.sample(false));
}

TEST(ToggleDetector, GeneratorDetectorPairRoundTrips)
{
    ToggleGenerator tg;
    ToggleDetector td;
    td.sample(tg.level());
    int detected = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 3 == 0)
            tg.fire();
        if (td.sample(tg.level()))
            detected++;
    }
    EXPECT_EQ(detected, 4); // fires at i = 0, 3, 6, 9
}

TEST(ToggleDetectorBank, MatchesScalarLanes)
{
    // 130 lanes spans three words including a partial tail.
    const unsigned lanes = 130;
    ToggleDetectorBank bank(lanes);
    std::vector<ToggleDetector> scalar(lanes);
    Rng rng(0xde7ec);
    BitVec levels(lanes);
    BitVec toggles(lanes);
    for (int round = 0; round < 200; round++) {
        for (unsigned i = 0; i < lanes; i++) {
            if (rng.chance(0.4))
                levels.flipBit(i);
        }
        bank.sample(levels, toggles);
        for (unsigned i = 0; i < lanes; i++)
            ASSERT_EQ(toggles.bit(i), scalar[i].sample(levels.bit(i)))
                << "lane " << i << " round " << round;
    }
}
