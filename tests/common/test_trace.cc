/**
 * @file
 * Unit tests for the categorized trace channels: spec parsing, the
 * enable mask, line formatting, and lazy argument evaluation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hh"

using namespace desc;
using namespace desc::trace;

namespace {

/** Saves the channel mask/stream/context and restores them on exit,
 *  so tests cannot leak trace state into each other. */
struct TraceStateGuard
{
    std::uint32_t saved_mask = mask();

    ~TraceStateGuard()
    {
        setMask(saved_mask);
        setStream(nullptr);
        setThreadLogContext("");
    }
};

/** Capture everything emitted while @p body runs. */
template <typename Fn>
std::string
captureTrace(Fn &&body)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    setStream(f);
    body();
    setStream(nullptr);

    std::fflush(f);
    std::rewind(f);
    std::string out;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

} // namespace

TEST(TraceSpec, EmptyAndNullSelectNothing)
{
    EXPECT_EQ(parseSpec(nullptr), 0u);
    EXPECT_EQ(parseSpec(""), 0u);
}

TEST(TraceSpec, SingleChannels)
{
    EXPECT_EQ(parseSpec("link"), 1u << unsigned(Channel::Link));
    EXPECT_EQ(parseSpec("cache"), 1u << unsigned(Channel::Cache));
    EXPECT_EQ(parseSpec("dram"), 1u << unsigned(Channel::Dram));
    EXPECT_EQ(parseSpec("runner"), 1u << unsigned(Channel::Runner));
}

TEST(TraceSpec, CommaSeparatedList)
{
    auto m = parseSpec("link,dram");
    EXPECT_EQ(m, (1u << unsigned(Channel::Link))
                     | (1u << unsigned(Channel::Dram)));
}

TEST(TraceSpec, AllSelectsEveryChannel)
{
    EXPECT_EQ(parseSpec("all"), (1u << kNumChannels) - 1);
}

TEST(TraceSpec, UnknownNamesAreFatal)
{
    // DESC_TRACE=lnk once traced nothing without failing.
    EXPECT_DEATH(parseSpec("link,nonsense-xyz"),
                 "unknown trace channel \"nonsense-xyz\"");
    EXPECT_DEATH(parseSpec("lnk"), "unknown trace channel \"lnk\"");
    // Empty list items are not names.
    EXPECT_EQ(parseSpec(",,link,"), 1u << unsigned(Channel::Link));
}

TEST(TraceFile, UnopenablePathIsFatalAtStartup)
{
    // DESC_TRACE_FILE is opened during static initialization, so the
    // death test re-executes this binary with the variable set: the
    // child must die before main() reaches the empty statement.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        testing::TempDir() + "desc-no-such-dir/trace.log";
    setenv("DESC_TRACE_FILE", path.c_str(), 1);
    EXPECT_DEATH({}, "cannot open DESC_TRACE_FILE=\".*desc-no-such-dir/"
                     "trace.log\": No such file or directory");
    unsetenv("DESC_TRACE_FILE");
}

TEST(TraceMask, SetAndQuery)
{
    TraceStateGuard guard;
    setMask(parseSpec("cache"));
    EXPECT_TRUE(enabled(Channel::Cache));
    EXPECT_FALSE(enabled(Channel::Link));
    EXPECT_FALSE(enabled(Channel::Dram));
}

TEST(TraceChannelName, MatchesSpecNames)
{
    EXPECT_STREQ(channelName(Channel::Link), "link");
    EXPECT_STREQ(channelName(Channel::Cache), "cache");
    EXPECT_STREQ(channelName(Channel::Dram), "dram");
    EXPECT_STREQ(channelName(Channel::Runner), "runner");
}

TEST(TraceEmit, CycleStampedLineFormat)
{
    TraceStateGuard guard;
    setMask(parseSpec("link"));
    std::string out = captureTrace([] {
        DESC_TRACE_EVENT(Link, 42, "wave ", 3, " open");
    });
    EXPECT_NE(out.find("42: link: wave 3 open\n"), std::string::npos);
}

TEST(TraceEmit, HostLineUsesDashForCycle)
{
    TraceStateGuard guard;
    setMask(parseSpec("runner"));
    std::string out = captureTrace([] {
        DESC_TRACE_HOST(Runner, "batch done");
    });
    EXPECT_NE(out.find("-: runner: batch done\n"), std::string::npos);
}

TEST(TraceEmit, ThreadContextTagIsIncluded)
{
    TraceStateGuard guard;
    setMask(parseSpec("runner"));
    setThreadLogContext("w3");
    std::string out = captureTrace([] {
        DESC_TRACE_HOST(Runner, "hello");
    });
    EXPECT_NE(out.find("runner: [w3] hello"), std::string::npos);
}

TEST(TraceEmit, DisabledChannelEmitsNothing)
{
    TraceStateGuard guard;
    setMask(0);
    std::string out = captureTrace([] {
        DESC_TRACE_EVENT(Link, 1, "should not appear");
    });
    EXPECT_TRUE(out.empty());
}

TEST(TraceEmit, DisabledChannelDoesNotEvaluateArguments)
{
    TraceStateGuard guard;
    setMask(0);
    int evaluations = 0;
    auto expensive = [&evaluations]() {
        evaluations++;
        return 7;
    };
    DESC_TRACE_EVENT(Link, 1, "value ", expensive());
    EXPECT_EQ(evaluations, 0);

    setMask(parseSpec("link"));
    captureTrace([&] { DESC_TRACE_EVENT(Link, 1, "value ", expensive()); });
    EXPECT_EQ(evaluations, 1);
}

// TSan regression tests: sweep workers hit trace points while the
// host thread reconfigures tracing. The mask and the stream override
// are atomics precisely so these interleavings are race-free; run
// under -fsanitize=thread these tests fail if that regresses.

TEST(TraceConcurrency, MaskFlipsWhileWorkersEmit)
{
    TraceStateGuard guard;
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    setStream(sink);

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; w++) {
        workers.emplace_back([&stop, w] {
            setThreadLogContext("w" + std::to_string(w));
            std::uint64_t cycle = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                DESC_TRACE_EVENT(Link, cycle, "beat ", cycle);
                DESC_TRACE_HOST(Runner, "alive");
                cycle++;
            }
        });
    }
    for (int i = 0; i < 2000; i++)
        setMask(i & 1 ? parseSpec("all") : 0);
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : workers)
        t.join();
    setStream(nullptr);
    std::fclose(sink);
}

TEST(TraceConcurrency, StreamRedirectsWhileWorkersEmit)
{
    TraceStateGuard guard;
    std::FILE *a = std::tmpfile();
    std::FILE *b = std::tmpfile();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    setMask(parseSpec("runner"));
    setStream(a);

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; w++) {
        workers.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed))
                DESC_TRACE_HOST(Runner, "tick");
        });
    }
    for (int i = 0; i < 500; i++)
        setStream(i & 1 ? b : a);
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : workers)
        t.join();
    setStream(nullptr);
    std::fclose(a);
    std::fclose(b);
}

TEST(TraceConcurrency, WarnOnceFiresExactlyOnceAcrossThreads)
{
    // warnOnce's fired-set is guarded by logMutex; hammer one key from
    // many threads and make sure the process neither races (TSan) nor
    // deadlocks against the warn() path taking the same mutex.
    std::vector<std::thread> workers;
    for (int w = 0; w < 8; w++) {
        workers.emplace_back([] {
            for (int i = 0; i < 200; i++)
                warnOnce("trace-concurrency-test",
                         "should print exactly once");
        });
    }
    for (auto &t : workers)
        t.join();
}
