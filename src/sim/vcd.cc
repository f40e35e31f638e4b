#include "sim/vcd.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::sim {

namespace {

/** VCD identifier codes: base-94 strings over the printable ASCII
 *  range '!'..'~' (multi-character beyond 94 signals). */
std::string
idCode(unsigned index)
{
    std::string code;
    do {
        code.push_back(char('!' + index % 94));
        index /= 94;
    } while (index);
    return code;
}

} // namespace

bool
VcdWriter::open(const std::string &path, const std::string &timescale)
{
    DESC_ASSERT(!_out, "VcdWriter::open called twice");
    _out = std::fopen(path.c_str(), "w");
    if (!_out) {
        warn(detail::concat("cannot open VCD file \"", path, "\""));
        return false;
    }
    _path = path;
    std::fprintf(_out,
                 "$version desc-repro VCD export $end\n"
                 "$timescale %s $end\n",
                 timescale.c_str());
    return true;
}

unsigned
VcdWriter::addSignal(const std::string &scope, const std::string &name)
{
    DESC_ASSERT(_out, "addSignal on a closed VcdWriter");
    DESC_ASSERT(!_header_done, "addSignal after endHeader");
    Signal s;
    s.scope = scope;
    s.name = name;
    s.id = idCode(unsigned(_signals.size()));
    _signals.push_back(std::move(s));
    return unsigned(_signals.size() - 1);
}

VcdWriter::BundleSignals
VcdWriter::addBundle(const std::string &scope, unsigned wires)
{
    BundleSignals sigs;
    sigs.reset_skip = addSignal(scope, "reset_skip");
    sigs.data.reserve(wires);
    for (unsigned w = 0; w < wires; w++)
        sigs.data.push_back(
            addSignal(scope, detail::concat("data", w)));
    sigs.sync = addSignal(scope, "sync");
    sigs.shadow = unsigned(_shadows.size());
    _shadows.push_back({BitVec(wires), false});
    return sigs;
}

void
VcdWriter::endHeader()
{
    DESC_ASSERT(_out, "endHeader on a closed VcdWriter");
    DESC_ASSERT(!_header_done, "endHeader called twice");

    // Signals are grouped by scope in declaration order.
    const std::string *open_scope = nullptr;
    for (const auto &s : _signals) {
        if (!open_scope || *open_scope != s.scope) {
            if (open_scope)
                std::fprintf(_out, "$upscope $end\n");
            std::fprintf(_out, "$scope module %s $end\n",
                         s.scope.c_str());
            open_scope = &s.scope;
        }
        std::fprintf(_out, "$var wire 1 %s %s $end\n", s.id.c_str(),
                     s.name.c_str());
    }
    if (open_scope)
        std::fprintf(_out, "$upscope $end\n");
    std::fprintf(_out, "$enddefinitions $end\n");
    _header_done = true;
}

void
VcdWriter::set(unsigned sig, bool v)
{
    DESC_ASSERT(sig < _signals.size(), "bad VCD signal index ", sig);
    Signal &s = _signals[sig];
    if (s.staged) { // latest set before a timestep wins
        s.level = v;
        return;
    }
    if (s.dumped && v == s.last_emitted)
        return; // no change to emit — stage nothing
    s.staged = true;
    s.level = v;
    _dirty.push_back(sig);
}

void
VcdWriter::setBundle(const BundleSignals &sigs, const core::WireBundle &w)
{
    DESC_ASSERT(w.data.width() == sigs.data.size(),
                "bundle width mismatch");
    DESC_ASSERT(sigs.shadow < _shadows.size(), "foreign BundleSignals");
    set(sigs.reset_skip, w.reset_skip);
    BundleShadow &sh = _shadows[sigs.shadow];
    if (!sh.primed) {
        // First sample: every wire must appear in the $dumpvars block.
        for (unsigned i = 0; i < sigs.data.size(); i++)
            set(sigs.data[i], w.data.bit(i));
        sh.primed = true;
    } else {
        // Steady state: stage only the wires that toggled since the
        // previous sample (word-wide plane diff).
        const std::vector<std::uint64_t> &now = w.data.words();
        for (unsigned k = 0; k < now.size(); k++) {
            std::uint64_t diff = now[k] ^ sh.plane.words()[k];
            while (diff) {
                unsigned b = k * 64 + unsigned(std::countr_zero(diff));
                diff &= diff - 1;
                set(sigs.data[b], w.data.bit(b));
            }
        }
    }
    sh.plane = w.data;
    set(sigs.sync, w.sync);
}

void
VcdWriter::timestep(std::uint64_t t)
{
    DESC_ASSERT(_out && _header_done,
                "timestep before endHeader / after close");
    DESC_ASSERT(!_any_time || t > _last_time,
                "VCD times must be strictly increasing: ", t,
                " after ", _last_time);

    // Emission order is declaration order, as the full-scan loop
    // produced before the dirty list existed.
    std::sort(_dirty.begin(), _dirty.end());
    bool stamped = false;
    for (unsigned idx : _dirty) {
        Signal &s = _signals[idx];
        s.staged = false;
        if (s.dumped && s.level == s.last_emitted)
            continue;
        if (!stamped) {
            std::fprintf(_out, "#%llu\n", (unsigned long long)t);
            if (!_any_time)
                std::fprintf(_out, "$dumpvars\n");
            stamped = true;
        }
        std::fprintf(_out, "%d%s\n", s.level ? 1 : 0, s.id.c_str());
        s.last_emitted = s.level;
        s.dumped = true;
    }
    _dirty.clear();
    if (stamped && !_any_time) {
        std::fprintf(_out, "$end\n");
        _any_time = true;
    }
    if (stamped)
        _last_time = t;
}

void
VcdWriter::sampleBundle(const BundleSignals &sigs, Cycle t,
                        const core::WireBundle &w)
{
    setBundle(sigs, w);
    timestep(t);
}

void
VcdWriter::close()
{
    if (!_out)
        return;
    std::fclose(_out);
    _out = nullptr;
}

} // namespace desc::sim
