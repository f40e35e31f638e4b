/**
 * @file
 * Tests for the profiler's Chrome/Perfetto trace-event JSON writer:
 * the output parses as JSON, timestamps are globally monotonic, B/E
 * events pair up per track, the tid encodes (thread, component), and
 * slab coalescing merges back-to-back scopes while keeping separated
 * ones apart.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/prof.hh"

using namespace desc;
using namespace desc::prof;

namespace {

// --- minimal JSON parser (objects, arrays, strings, numbers, bools,
// null); enough to validate the writer's output shape -------------

struct Json
{
    enum class Kind { Object, Array, String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::map<std::string, std::unique_ptr<Json>> object;
    std::vector<std::unique_ptr<Json>> array;
    std::string str;
    double num = 0;
    bool boolean = false;

    const Json *
    at(const std::string &key) const
    {
        auto it = object.find(key);
        return it == object.end() ? nullptr : it->second.get();
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _t(text) {}

    std::unique_ptr<Json>
    parse()
    {
        auto v = value();
        skipWs();
        if (!_ok || _i != _t.size())
            return nullptr;
        return v;
    }

  private:
    void
    skipWs()
    {
        while (_i < _t.size()
               && (_t[_i] == ' ' || _t[_i] == '\n' || _t[_i] == '\t'
                   || _t[_i] == '\r'))
            _i++;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (_i < _t.size() && _t[_i] == c) {
            _i++;
            return true;
        }
        return false;
    }

    std::unique_ptr<Json>
    value()
    {
        skipWs();
        if (_i >= _t.size()) {
            _ok = false;
            return nullptr;
        }
        char c = _t[_i];
        auto v = std::make_unique<Json>();
        if (c == '{') {
            _i++;
            v->kind = Json::Kind::Object;
            skipWs();
            if (eat('}'))
                return v;
            do {
                skipWs();
                std::string key = string();
                if (!_ok || !eat(':'))
                    return fail();
                auto member = value();
                if (!_ok)
                    return fail();
                v->object.emplace(std::move(key), std::move(member));
            } while (eat(','));
            if (!eat('}'))
                return fail();
            return v;
        }
        if (c == '[') {
            _i++;
            v->kind = Json::Kind::Array;
            skipWs();
            if (eat(']'))
                return v;
            do {
                auto elem = value();
                if (!_ok)
                    return fail();
                v->array.push_back(std::move(elem));
            } while (eat(','));
            if (!eat(']'))
                return fail();
            return v;
        }
        if (c == '"') {
            v->kind = Json::Kind::String;
            v->str = string();
            return _ok ? std::move(v) : nullptr;
        }
        if (_t.compare(_i, 4, "true") == 0) {
            _i += 4;
            v->kind = Json::Kind::Bool;
            v->boolean = true;
            return v;
        }
        if (_t.compare(_i, 5, "false") == 0) {
            _i += 5;
            v->kind = Json::Kind::Bool;
            return v;
        }
        if (_t.compare(_i, 4, "null") == 0) {
            _i += 4;
            return v;
        }
        // number
        std::size_t start = _i;
        while (_i < _t.size()
               && (std::isdigit(static_cast<unsigned char>(_t[_i]))
                   || _t[_i] == '-' || _t[_i] == '+' || _t[_i] == '.'
                   || _t[_i] == 'e' || _t[_i] == 'E'))
            _i++;
        if (_i == start)
            return fail();
        char *end = nullptr;
        v->kind = Json::Kind::Number;
        v->num = std::strtod(_t.c_str() + start, &end);
        if (end != _t.c_str() + _i)
            return fail();
        return v;
    }

    std::string
    string()
    {
        if (!eat('"')) {
            _ok = false;
            return "";
        }
        std::string out;
        while (_i < _t.size() && _t[_i] != '"') {
            if (_t[_i] == '\\' && _i + 1 < _t.size()) {
                out.push_back(_t[_i + 1]);
                _i += 2;
            } else {
                out.push_back(_t[_i]);
                _i++;
            }
        }
        if (_i >= _t.size()) {
            _ok = false;
            return "";
        }
        _i++; // closing quote
        return out;
    }

    std::unique_ptr<Json>
    fail()
    {
        _ok = false;
        return nullptr;
    }

    const std::string &_t;
    std::size_t _i = 0;
    bool _ok = true;
};

struct ProfStateGuard
{
    bool saved = enabled();

    ProfStateGuard() { resetForTest(); }

    ~ProfStateGuard()
    {
        setEnabled(saved);
        setCaptureForTest(false);
        resetForTest();
    }
};

void
spinFor(std::chrono::nanoseconds d)
{
    auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < d) {
    }
}

std::unique_ptr<Json>
captureAndParse()
{
    std::ostringstream os;
    writeTraceJson(os);
    return JsonParser(os.str()).parse();
}

} // namespace

TEST(ProfJson, OutputParsesWithHeaderAndProcessMetadata)
{
    ProfStateGuard guard;
    setEnabled(true);
    setCaptureForTest(true);
    {
        DESC_PROF_SCOPE(CacheAccess);
        spinFor(std::chrono::microseconds(10));
    }

    auto doc = captureAndParse();
    ASSERT_NE(doc, nullptr) << "trace JSON did not parse";
    ASSERT_NE(doc->at("format"), nullptr);
    EXPECT_EQ(doc->at("format")->str, "desc-prof");
    EXPECT_EQ(doc->at("version")->num, 1.0);
    ASSERT_NE(doc->at("traceEvents"), nullptr);
    ASSERT_NE(doc->at("profile"), nullptr);

    bool saw_process_meta = false;
    for (const auto &e : doc->at("traceEvents")->array) {
        if (e->at("ph")->str == "M"
            && e->at("name")->str == "process_name")
            saw_process_meta = true;
    }
    EXPECT_TRUE(saw_process_meta);
}

TEST(ProfJson, TimestampsMonotonicAndPairsBalancedPerTrack)
{
    ProfStateGuard guard;
    setEnabled(true);
    setCaptureForTest(true);
    for (int i = 0; i < 50; i++) {
        DESC_PROF_SCOPE(CacheAccess);
        {
            DESC_PROF_SCOPE(Encoder);
        }
    }
    {
        DESC_PROF_SCOPE(Dram);
        spinFor(std::chrono::microseconds(5));
    }

    auto doc = captureAndParse();
    ASSERT_NE(doc, nullptr);

    double prev_ts = -1.0;
    std::map<int, std::vector<std::string>> stacks;
    int b_events = 0;
    for (const auto &e : doc->at("traceEvents")->array) {
        const std::string &ph = e->at("ph")->str;
        if (ph == "M")
            continue;
        double ts = e->at("ts")->num;
        EXPECT_GE(ts, prev_ts) << "trace ts went backwards";
        prev_ts = ts;
        int tid = int(e->at("tid")->num);
        if (ph == "B") {
            b_events++;
            stacks[tid].push_back(e->at("name")->str);
            // tid encodes the component: tid = thread*N + comp + 1.
            unsigned comp = unsigned(tid - 1) % kNumComponents;
            EXPECT_EQ(e->at("name")->str,
                      componentName(Component(comp)));
        } else {
            ASSERT_EQ(ph, "E");
            ASSERT_FALSE(stacks[tid].empty())
                << "E without a matching B on tid " << tid;
            stacks[tid].pop_back();
        }
    }
    EXPECT_GT(b_events, 0);
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unbalanced B on tid " << tid;
}

TEST(ProfJson, DistinctComponentsGetDistinctNamedTracks)
{
    ProfStateGuard guard;
    setEnabled(true);
    setCaptureForTest(true);
    {
        DESC_PROF_SCOPE(CacheAccess);
        spinFor(std::chrono::microseconds(3));
    }
    spinFor(std::chrono::microseconds(3));
    {
        DESC_PROF_SCOPE(Dram);
        spinFor(std::chrono::microseconds(3));
    }

    auto doc = captureAndParse();
    ASSERT_NE(doc, nullptr);

    std::map<std::string, int> track_name_to_tid;
    std::map<int, int> b_tids;
    for (const auto &e : doc->at("traceEvents")->array) {
        const std::string &ph = e->at("ph")->str;
        if (ph == "M" && e->at("name")->str == "thread_name")
            track_name_to_tid[e->at("args")->at("name")->str] =
                int(e->at("tid")->num);
        if (ph == "B")
            b_tids[int(e->at("tid")->num)]++;
    }
    // Each component rides its own track, and every B-carrying track
    // is named.
    EXPECT_GE(track_name_to_tid.size(), 2u);
    bool saw_access = false, saw_dram = false;
    for (const auto &[name, tid] : track_name_to_tid) {
        EXPECT_NE(name.find('/'), std::string::npos)
            << "track name should be worker/component: " << name;
        if (name.find("cache.access") != std::string::npos)
            saw_access = true;
        if (name.find("dram") != std::string::npos)
            saw_dram = true;
    }
    EXPECT_TRUE(saw_access);
    EXPECT_TRUE(saw_dram);
    for (const auto &[tid, count] : b_tids) {
        bool named = false;
        for (const auto &[name, ntid] : track_name_to_tid)
            named |= ntid == tid;
        EXPECT_TRUE(named) << "tid " << tid << " has no thread_name";
    }
}

TEST(ProfJson, BackToBackScopesCoalesceSeparatedOnesDoNot)
{
    ProfStateGuard guard;
    setEnabled(true);
    setCaptureForTest(true);

    // 100 back-to-back scopes: gaps far below the coalescing window.
    for (int i = 0; i < 100; i++) {
        DESC_PROF_SCOPE(LinkTicked);
    }
    // A second burst separated by 50us: must start a new slab.
    spinFor(std::chrono::microseconds(50));
    {
        DESC_PROF_SCOPE(LinkTicked);
        spinFor(std::chrono::microseconds(2));
    }

    auto doc = captureAndParse();
    ASSERT_NE(doc, nullptr);

    std::uint64_t pairs = 0, scopes = 0;
    for (const auto &e : doc->at("traceEvents")->array) {
        if (e->at("ph")->str != "B")
            continue;
        if (e->at("name")->str != "link.ticked")
            continue;
        pairs++;
        scopes += std::uint64_t(e->at("args")->at("scopes")->num);
    }
    // All 101 scopes are accounted for, in far fewer slabs, and the
    // 50us gap forces at least two.
    EXPECT_EQ(scopes, 101u);
    EXPECT_GE(pairs, 2u);
    EXPECT_LE(pairs, 100u);
}

TEST(ProfJson, ProfileSectionCarriesMergedTotalsAndRuns)
{
    ProfStateGuard guard;
    setEnabled(true);
    setCaptureForTest(true);
    {
        DESC_PROF_SCOPE(Energy);
        spinFor(std::chrono::microseconds(5));
    }
    Profile run;
    run.comp[unsigned(Component::Energy)].count = 3;
    noteRunProfile("FFT/ZS-DESC#0123456789abcdef", run);

    auto doc = captureAndParse();
    ASSERT_NE(doc, nullptr);
    const Json *profile = doc->at("profile");
    ASSERT_NE(profile, nullptr);

    const Json *components = profile->at("components");
    ASSERT_NE(components, nullptr);
    const Json *energy = components->at("energy");
    ASSERT_NE(energy, nullptr);
    EXPECT_GE(energy->at("scopes")->num, 1.0);
    EXPECT_GT(energy->at("self_ns")->num, 0.0);

    const Json *runs = profile->at("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 1u);
    EXPECT_EQ(runs->array[0]->at("run")->str,
              "FFT/ZS-DESC#0123456789abcdef");
    EXPECT_EQ(
        runs->array[0]->at("components")->at("energy")->at("scopes")->num,
        3.0);
}
