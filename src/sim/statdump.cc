#include "sim/statdump.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"

namespace desc::sim {

namespace {

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t dot; (dot = path.find('.', start)) != std::string::npos;
         start = dot + 1)
        parts.push_back(path.substr(start, dot - start));
    parts.push_back(path.substr(start));
    return parts;
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** A JSON number, or null for values JSON cannot represent. */
void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
writeJsonValue(std::ostream &os, const StatRegistry::Entry &e)
{
    using Kind = StatRegistry::Kind;
    switch (e.kind) {
      case Kind::Counter:
        os << e.counter->value();
        return;
      case Kind::Int:
        os << e.integer;
        return;
      case Kind::Scalar:
        writeJsonNumber(os, e.scalar);
        return;
      case Kind::Text:
        writeJsonString(os, e.text);
        return;
      case Kind::Average: {
        const Average &a = *e.average;
        os << "{\"count\": " << a.count() << ", \"sum\": ";
        writeJsonNumber(os, a.sum());
        os << ", \"mean\": ";
        writeJsonNumber(os, a.mean());
        os << ", \"min\": ";
        writeJsonNumber(os, a.min());
        os << ", \"max\": ";
        writeJsonNumber(os, a.max());
        os << "}";
        return;
      }
      case Kind::Histogram: {
        const Histogram &h = *e.histogram;
        os << "{\"total\": " << h.total() << ", \"overflow\": "
           << h.overflow() << ", \"mean\": ";
        writeJsonNumber(os, h.mean());
        os << ", \"bins\": [";
        for (std::size_t i = 0; i < h.numBins(); i++)
            os << (i ? ", " : "") << h.bin(unsigned(i));
        os << "]}";
        return;
      }
    }
    DESC_PANIC("bad stat entry kind");
}

void
writeIndent(std::ostream &os, unsigned level)
{
    for (unsigned i = 0; i < level; i++)
        os << "  ";
}

} // namespace

void
writeRegistryJson(std::ostream &os, const StatRegistry &reg,
                  unsigned indent)
{
    os << "{";
    // The open interior groups, innermost last, and whether each open
    // scope (index 0 = the root object) already holds an item.
    std::vector<std::string> open;
    std::vector<bool> has_item = {false};

    auto separate = [&]() {
        os << (has_item.back() ? ",\n" : "\n");
        has_item.back() = true;
        writeIndent(os, indent + unsigned(open.size()) + 1);
    };

    for (const auto &[path, entry] : reg.entries()) {
        auto parts = splitPath(path);
        std::size_t interior = parts.size() - 1;

        std::size_t common = 0;
        while (common < open.size() && common < interior
               && open[common] == parts[common])
            common++;
        while (open.size() > common) {
            os << "\n";
            writeIndent(os, indent + unsigned(open.size()));
            os << "}";
            open.pop_back();
            has_item.pop_back();
        }
        for (std::size_t i = common; i < interior; i++) {
            separate();
            writeJsonString(os, parts[i]);
            os << ": {";
            open.push_back(parts[i]);
            has_item.push_back(false);
        }

        separate();
        writeJsonString(os, parts.back());
        os << ": ";
        writeJsonValue(os, entry);
    }

    while (!open.empty()) {
        os << "\n";
        writeIndent(os, indent + unsigned(open.size()));
        os << "}";
        open.pop_back();
    }
    os << "\n";
    writeIndent(os, indent);
    os << "}";
}

StatRegistry
buildRunRegistry(const SystemConfig &cfg, const AppRun &run,
                 std::uint64_t config_hash)
{
    const auto &r = run.result;
    const auto &h = r.hierarchy;

    StatRegistry reg;

    reg.addText("run.app", cfg.app.name, "workload name");
    reg.addText("run.scheme", shortSchemeName(cfg.l2.scheme),
                "L2 transfer-encoding scheme");
    reg.addInt("run.seed", cfg.seed, "deterministic simulation seed");
    reg.addInt("run.config_hash", config_hash,
               "FNV-1a hash of the canonical scaled configuration");
    reg.addInt("run.cores", cfg.cores, "simulated core count");
    reg.addInt("run.threads_per_core", cfg.threads_per_core,
               "SMT threads per core");
    reg.addInt("run.insts_per_thread", cfg.insts_per_thread,
               "instructions retired per thread");

    forEachField(run, [&reg](const char *path, const char *doc,
                             const auto &v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>)
            reg.addScalar(path, v, doc);
        else if constexpr (std::is_same_v<T, std::uint64_t>)
            reg.addInt(path, v, doc);
        else if constexpr (std::is_same_v<T, core::ChunkStats>)
            reg.add(path, v.histogram(), doc);
        else
            reg.add(path, v, doc);
    });

    reg.addScalar("perf.ipc",
                  double(r.instructions) / double(r.cycles),
                  "instructions per core cycle");
    auto rate = [](const Counter &n, std::uint64_t d) {
        return double(n.value()) / double(std::max<std::uint64_t>(1, d));
    };
    reg.addScalar("l1.i.miss_rate",
                  rate(h.l1i_misses, h.l1i_accesses.value()),
                  "L1I misses per access");
    reg.addScalar("l1.d.miss_rate",
                  rate(h.l1d_misses, h.l1d_accesses.value()),
                  "L1D misses per access");
    reg.addScalar("l2.hit_rate",
                  rate(h.l2_hits, h.l2_hits.value() + h.l2_misses.value()),
                  "L2 hits per demand request");
    reg.addInt("chunks.total", r.chunks.totalChunks(),
               "chunks observed on the wires");
    reg.addScalar("chunks.zero_fraction", r.chunks.zeroFraction(),
                  "fraction of all-zero chunks");
    reg.addScalar("chunks.last_value_match_fraction",
                  r.chunks.lastValueMatchFraction(),
                  "fraction matching the wire's previous chunk");
    reg.addScalar("energy.l2.dynamic", run.l2.dynamic(),
                  "total L2 dynamic energy, joules");
    reg.addScalar("energy.l2.total", run.l2.total(),
                  "total L2 energy, joules");
    reg.addScalar("energy.processor.total", run.processor.total(),
                  "total processor energy, joules");

    return reg;
}

namespace {

std::FILE *
openOrDie(const std::string &path, const std::string &what)
{
    if (path.empty())
        return nullptr;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        const int err = errno;
        DESC_FATAL("cannot open ", what, "\"", path, "\": ",
                   std::strerror(err));
    }
    return f;
}

} // namespace

ExitWriter::ExitWriter(std::string path, const std::string &what,
                       Render render)
    : _path(std::move(path)), _file(openOrDie(_path, what)),
      _render(render)
{
}

ExitWriter::~ExitWriter()
{
    if (!_file)
        return;
    const std::string bytes = contents();
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), _file) == bytes.size();
    // No logger at exit: the log mutex may already be gone.
    if (std::fclose(_file) != 0 || !written)
        std::fprintf(stderr, "warn: cannot write \"%s\"\n", _path.c_str());
}

void
ExitWriter::add(std::string key, std::uint64_t subkey, std::string text)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _records.push_back({std::move(key), subkey, std::move(text)});
}

std::string
ExitWriter::contents()
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::sort(_records.begin(), _records.end());
    std::vector<std::string> texts;
    texts.reserve(_records.size());
    for (const Record &r : _records)
        texts.push_back(r.text);
    return _render(texts);
}

void
ExitWriter::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _records.clear();
}

namespace {

std::string
renderSidecar(const std::vector<std::string> &runs)
{
    std::string out = "{\n  \"format\": \"desc-stats\",\n"
                      "  \"version\": 1,\n  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); i++)
        out += (i ? ",\n    " : "\n    ") + runs[i];
    out += runs.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

// DESC_STATS_OUT is opened at startup, so a path that cannot be
// written fails before the first run is simulated, not at exit after
// the last one. The file stays empty until the exit-time write.
ExitWriter g_sidecar(env::stringOr(env::Var::StatsOut, ""),
                     detail::concat(env::name(env::Var::StatsOut), "="),
                     renderSidecar);

} // namespace

void
recordRunStats(const SystemConfig &cfg, const AppRun &run,
               std::uint64_t config_hash)
{
    if (!g_sidecar.enabled())
        return;
    std::ostringstream json;
    writeRegistryJson(json, buildRunRegistry(cfg, run, config_hash), 2);
    g_sidecar.add(cfg.app.name, config_hash, json.str());
}

} // namespace desc::sim
