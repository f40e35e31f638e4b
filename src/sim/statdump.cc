#include "sim/statdump.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/env.hh"
#include "common/trace.hh"
#include "sim/runcache.hh"

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

namespace {

void
csvRow(std::ostream &os, const std::string &run_label,
       const std::string &path, const std::string &value)
{
    os << run_label << ',' << path << ',' << value << '\n';
}

std::string
csvNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
writeRegistryCsv(std::ostream &os, const StatRegistry &reg,
                 const std::string &run_label)
{
    using Kind = StatRegistry::Kind;
    for (const auto &[path, e] : reg.entries()) {
        switch (e.kind) {
          case Kind::Counter:
            csvRow(os, run_label, path,
                   std::to_string(e.counter->value()));
            break;
          case Kind::Int:
            csvRow(os, run_label, path, std::to_string(e.integer));
            break;
          case Kind::Scalar:
            csvRow(os, run_label, path, csvNumber(e.scalar));
            break;
          case Kind::Text:
            // Stat texts are short identifiers; no quoting needed.
            csvRow(os, run_label, path, e.text);
            break;
          case Kind::Average:
            csvRow(os, run_label, path + ".count",
                   std::to_string(e.average->count()));
            csvRow(os, run_label, path + ".sum",
                   csvNumber(e.average->sum()));
            csvRow(os, run_label, path + ".mean",
                   csvNumber(e.average->mean()));
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            csvRow(os, run_label, path + ".total",
                   std::to_string(h.total()));
            csvRow(os, run_label, path + ".overflow",
                   std::to_string(h.overflow()));
            csvRow(os, run_label, path + ".mean", csvNumber(h.mean()));
            for (std::size_t i = 0; i < h.numBins(); i++)
                csvRow(os, run_label, path + ".bin." + std::to_string(i),
                       std::to_string(h.bin(unsigned(i))));
            break;
          }
        }
    }
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

struct SidecarRecord
{
    std::string app;
    std::uint64_t config_hash;
    std::uint64_t seq;
    std::string json;
    std::string csv;
};

struct Sidecar
{
    std::mutex mutex;
    std::vector<SidecarRecord> records;
    std::uint64_t next_seq = 0;
};

/** Leaked so the atexit flush never races static destruction. */
Sidecar &
sidecar()
{
    static Sidecar *s = new Sidecar;
    return *s;
}

// DESC_STATS_OUT is opened at startup, so a path that cannot be
// written fails before the first run is simulated, not at exit after
// the last one. The file stays empty until the exit-time flush.
const std::string g_path = env::stringOr(env::Var::StatsOut, "");
std::FILE *const g_file =
    env::openPath(env::Var::StatsOut, g_path.c_str(), "w");

bool
sidecarWantsCsv()
{
    return g_path.size() >= 4
        && g_path.compare(g_path.size() - 4, 4, ".csv") == 0;
}

void
flushSidecar()
{
    Sidecar &s = sidecar();
    std::lock_guard<std::mutex> lock(s.mutex);

    // Deterministic order regardless of worker scheduling.
    std::sort(s.records.begin(), s.records.end(),
              [](const SidecarRecord &a, const SidecarRecord &b) {
                  if (a.app != b.app)
                      return a.app < b.app;
                  if (a.config_hash != b.config_hash)
                      return a.config_hash < b.config_hash;
                  return a.seq < b.seq;
              });

    std::ostringstream out;
    if (sidecarWantsCsv()) {
        out << "run,path,value\n";
        for (const auto &rec : s.records)
            out << rec.csv;
    } else {
        out << "{\n  \"format\": \"desc-stats\",\n  \"version\": 1,\n"
            << "  \"runs\": [";
        for (std::size_t i = 0; i < s.records.size(); i++) {
            out << (i ? ",\n    " : "\n    ");
            out << s.records[i].json;
        }
        out << (s.records.empty() ? "]\n}\n" : "\n  ]\n}\n");
    }
    const std::string bytes = out.str();
    std::fwrite(bytes.data(), 1, bytes.size(), g_file);
    std::fflush(g_file);
}

} // namespace

bool
statsSidecarEnabled()
{
    return g_file != nullptr;
}

void
recordRunStats(const SystemConfig &cfg, const AppRun &run,
               std::uint64_t config_hash)
{
    if (!statsSidecarEnabled())
        return;

    StatRegistry reg = buildRunRegistry(cfg, run, config_hash);

    SidecarRecord rec;
    rec.app = cfg.app.name;
    rec.config_hash = config_hash;

    std::ostringstream json;
    writeRegistryJson(json, reg, 2);
    rec.json = json.str();

    std::ostringstream csv;
    writeRegistryCsv(csv, reg, runLabel(cfg, config_hash));
    rec.csv = csv.str();

    Sidecar &s = sidecar();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.next_seq == 0)
        std::atexit(flushSidecar);
    rec.seq = s.next_seq++;
    s.records.push_back(std::move(rec));
}

} // namespace desc::sim
