/**
 * @file
 * Unit tests for the typed DESC_* environment registry (desc::env).
 *
 * The registry is the single source of truth for every knob: the
 * metadata tests pin the invariants the tooling relies on
 * (alphabetical order, complete docs), the parse tests exercise the
 * pure cores behind the typed getters on boundary and garbage input
 * (ported from the historical per-site DESC_SIM_JOBS /
 * DESC_SIM_SCALE suites), and the read-through tests prove the
 * getters see setenv/unsetenv immediately.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/env.hh"

namespace env = desc::env;

namespace {

/** Sets one variable for a scope and restores it afterwards. */
struct EnvGuard
{
    std::string var;
    std::string saved;
    bool was_set;

    EnvGuard(const char *name, const char *value) : var(name)
    {
        const char *old = getenv(name);
        was_set = old != nullptr;
        if (was_set)
            saved = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~EnvGuard()
    {
        if (was_set)
            setenv(var.c_str(), saved.c_str(), 1);
        else
            unsetenv(var.c_str());
    }
};

} // namespace

// --- registry metadata --------------------------------------------

TEST(EnvRegistry, EveryVarHasCompleteMetadata)
{
    for (unsigned i = 0; i < env::kNumVars; i++) {
        const auto &info = env::info(env::Var(i));
        ASSERT_NE(info.name, nullptr);
        EXPECT_EQ(std::string(info.name).rfind("DESC_", 0), 0u)
            << info.name;
        EXPECT_FALSE(std::string(info.type).empty()) << info.name;
        EXPECT_FALSE(std::string(info.def).empty()) << info.name;
        EXPECT_GE(std::string(info.doc).size(), 10u) << info.name;
        EXPECT_STREQ(env::name(env::Var(i)), info.name);
    }
}

TEST(EnvRegistry, EntriesAreAlphabeticalAndUnique)
{
    // --list-env, the README table, and the analyzer's self-test all
    // assume the .def file is sorted by variable name.
    for (unsigned i = 1; i < env::kNumVars; i++) {
        EXPECT_LT(std::string(env::name(env::Var(i - 1))),
                  std::string(env::name(env::Var(i))));
    }
}

TEST(EnvRegistry, KnownKnobsAreRegistered)
{
    EXPECT_STREQ(env::name(env::Var::SimJobs), "DESC_SIM_JOBS");
    EXPECT_STREQ(env::name(env::Var::SimScale), "DESC_SIM_SCALE");
    EXPECT_STREQ(env::name(env::Var::StatsOut), "DESC_STATS_OUT");
}

// --- raw access and the lookup counter ----------------------------

TEST(EnvRegistry, RawIsReadThrough)
{
    EnvGuard guard("DESC_VCD_OUT", "a.vcd");
    ASSERT_NE(env::raw(env::Var::VcdOut), nullptr);
    EXPECT_STREQ(env::raw(env::Var::VcdOut), "a.vcd");
    setenv("DESC_VCD_OUT", "b.vcd", 1);
    EXPECT_STREQ(env::raw(env::Var::VcdOut), "b.vcd");
    unsetenv("DESC_VCD_OUT");
    EXPECT_EQ(env::raw(env::Var::VcdOut), nullptr);
    EXPECT_FALSE(env::isSet(env::Var::VcdOut));
}

TEST(EnvRegistry, IsSetSeesEmptyString)
{
    EnvGuard guard("DESC_VCD_OUT", "");
    EXPECT_TRUE(env::isSet(env::Var::VcdOut));
    // But the string getter treats empty as unset.
    EXPECT_EQ(env::stringOr(env::Var::VcdOut, "dflt"), "dflt");
}

TEST(EnvRegistry, LookupCountAdvancesPerRawRead)
{
    std::uint64_t before = env::lookupCount();
    (void)env::raw(env::Var::VcdOut);
    (void)env::isSet(env::Var::Trace);
    EXPECT_EQ(env::lookupCount(), before + 2);
}

// --- typed getters (read-through) ---------------------------------

TEST(EnvRegistry, BoolOrReadsTheEnvironmentStrictly)
{
    // DESC_SIM_CACHE is default-on: unset and empty keep it on
    // silently, and only "0" turns it off.
    const auto v = env::Var::SimCache;
    {
        EnvGuard guard("DESC_SIM_CACHE", nullptr);
        EXPECT_TRUE(env::boolOr(v, true));
    }
    {
        EnvGuard guard("DESC_SIM_CACHE", "");
        EXPECT_TRUE(env::boolOr(v, true));
    }
    {
        EnvGuard guard("DESC_SIM_CACHE", "0");
        EXPECT_FALSE(env::boolOr(v, true));
    }
    {
        EnvGuard guard("DESC_SIM_CACHE", "1");
        EXPECT_TRUE(env::boolOr(v, true));
    }
    // "off" once left the cache on and wrote entries.
    for (const char *bad : {"off", "yes", "2"}) {
        EnvGuard guard("DESC_SIM_CACHE", bad);
        EXPECT_DEATH(env::boolOr(v, true),
                     "invalid DESC_SIM_CACHE=\".*\" \\(want 0 or 1\\)")
            << "value \"" << bad << '"';
    }
}

TEST(EnvRegistry, UintOrReadsTheEnvironment)
{
    {
        EnvGuard guard("DESC_SIM_JOBS", "3");
        EXPECT_EQ(env::uintOr(env::Var::SimJobs, 7, 1, 4096), 3u);
    }
    {
        EnvGuard guard("DESC_SIM_JOBS", nullptr);
        EXPECT_EQ(env::uintOr(env::Var::SimJobs, 7, 1, 4096), 7u);
    }
}

TEST(EnvRegistry, StringOrReadsTheEnvironment)
{
    EnvGuard guard("DESC_STATS_OUT", "stats.json");
    EXPECT_EQ(env::stringOr(env::Var::StatsOut, ""), "stats.json");
}

// --- pure parse cores: ported boundary/garbage suites -------------

TEST(EnvParse, UintAcceptsRangeAndBoundaries)
{
    const auto v = env::Var::SimJobs;
    EXPECT_EQ(env::parseUint(v, "1", 9, 1, 4096), 1u);
    EXPECT_EQ(env::parseUint(v, "4096", 9, 1, 4096), 4096u);
    EXPECT_EQ(env::parseUint(v, "2048", 9, 1, 4096), 2048u);
}

TEST(EnvParse, UintRejectsZeroNegativeAndGarbage)
{
    // Ported from the per-site DESC_SIM_JOBS suite: every malformed
    // value is fatal, naming the variable and the value, rather than
    // wrapping a negative into a huge count, accepting trailing junk,
    // or falling back to the default.
    const auto v = env::Var::SimJobs;
    for (const char *bad :
         {"0", "-1", "-4096", "banana", "3banana", "", " ",
          "99999999999999999999", "4097", "0x10", "+ 3", "3 "}) {
        EXPECT_DEATH(env::parseUint(v, bad, 9, 1, 4096),
                     "invalid DESC_SIM_JOBS=\"")
            << "value \"" << bad << '"';
    }
}

TEST(EnvParse, UintUnsetIsSilentDefault)
{
    EXPECT_EQ(env::parseUint(env::Var::SimJobs, nullptr, 9, 1, 4096),
              9u);
}

TEST(EnvParse, BoolIsStrictZeroOne)
{
    const auto v = env::Var::SimCache;
    EXPECT_FALSE(env::parseBool(v, "0", true));
    EXPECT_TRUE(env::parseBool(v, "1", false));
    EXPECT_FALSE(env::parseBool(v, nullptr, false));
    EXPECT_TRUE(env::parseBool(v, nullptr, true));
    EXPECT_FALSE(env::parseBool(v, "", false));
    EXPECT_TRUE(env::parseBool(v, "", true));
    for (const char *bad : {"2", "yes", "true", "on", "01", "1 "}) {
        EXPECT_DEATH(env::parseBool(v, bad, false),
                     "invalid DESC_SIM_CACHE=\".*\" \\(want 0 or 1\\)")
            << "value \"" << bad << '"';
        EXPECT_DEATH(env::parseBool(v, bad, true),
                     "invalid DESC_SIM_CACHE=")
            << "value \"" << bad << '"';
    }
}

TEST(EnvParse, FloatAcceptsPositiveFinite)
{
    // Ported from the DESC_SIM_SCALE suite.
    const auto v = env::Var::SimScale;
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, "2.5", 1.0), 2.5);
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, "0.05", 1.0), 0.05);
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, "1e-3", 1.0), 1e-3);
}

TEST(EnvParse, FloatRejectsNonPositiveAndGarbage)
{
    // "0,25" once ran silently at the default scale of 1.0.
    const auto v = env::Var::SimScale;
    for (const char *bad :
         {"0", "-1", "-0.5", "nan", "inf", "-inf", "abc", "1.5x", "0,25"}) {
        EXPECT_DEATH(env::parsePositiveFloat(v, bad, 1.0),
                     "invalid DESC_SIM_SCALE=\".*\" \\(want a finite "
                     "value > 0\\)")
            << "value \"" << bad << '"';
    }
    // Unset and empty stay the silent default.
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, "", 1.0), 1.0);
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, nullptr, 0.25), 0.25);
}

TEST(EnvParse, OpenPathIsFatalWhenThePathCannotBeOpened)
{
    const auto v = env::Var::StatsOut;
    EXPECT_EQ(env::openPath(v, nullptr, "w"), nullptr);
    EXPECT_EQ(env::openPath(v, "", "w"), nullptr);

    std::string ok = testing::TempDir() + "desc-openpath.json";
    std::FILE *f = env::openPath(v, ok.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(ok.c_str());

    std::string bad = testing::TempDir() + "desc-no-such-dir/stats.json";
    EXPECT_DEATH(env::openPath(v, bad.c_str(), "w"),
                 "cannot open DESC_STATS_OUT=\".*desc-no-such-dir/"
                 "stats.json\": No such file or directory");
}
