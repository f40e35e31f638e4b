#include "dram/ddr3.hh"

#include <cmath>

#include "common/contract.hh"
#include "common/prof.hh"
#include "common/trace.hh"

namespace desc::dram {

DramSystem::DramSystem(sim::EventQueue &eq, const DramConfig &cfg)
    : _eq(eq), _cfg(cfg), _channels(cfg.channels)
{
    // Timing-parameter windows: zero timings would collapse the
    // pipeline into same-cycle completions and a zero clock would
    // divide by zero in the core-cycle conversion.
    DESC_ASSERT(cfg.channels >= 1 && cfg.channels <= 64,
                "DRAM channels out of range: ", cfg.channels);
    DESC_ASSERT(cfg.banks_per_channel >= 1 && cfg.banks_per_channel <= 64,
                "DRAM banks per channel out of range: ",
                cfg.banks_per_channel);
    DESC_ASSERT(cfg.mem_ghz > 0.0 && cfg.core_ghz > 0.0,
                "DRAM clocks must be positive: mem ", cfg.mem_ghz,
                " GHz, core ", cfg.core_ghz, " GHz");
    DESC_ASSERT(cfg.tCL >= 1 && cfg.tRCD >= 1 && cfg.tRP >= 1
                    && cfg.tBurst >= 1,
                "DDR3 timings must be at least one memory cycle: tCL=",
                cfg.tCL, " tRCD=", cfg.tRCD, " tRP=", cfg.tRP,
                " tBurst=", cfg.tBurst);
    DESC_ASSERT(cfg.max_overlap >= 1,
                "channel overlap window must admit one request");
    for (auto &ch : _channels)
        ch.banks.assign(cfg.banks_per_channel, Bank{});
}

unsigned
DramSystem::channelOf(Addr addr) const
{
    return unsigned((addr >> 6) % _cfg.channels); // block-interleaved
}

unsigned
DramSystem::bankOf(Addr addr) const
{
    return unsigned((addr >> 7) % _cfg.banks_per_channel);
}

Addr
DramSystem::rowOf(Addr addr) const
{
    return addr >> 16; // 64KB rows per bank slice
}

Cycle
DramSystem::toCore(unsigned mem_cycles) const
{
    return Cycle(std::ceil(mem_cycles * _cfg.core_ghz / _cfg.mem_ghz));
}

Cycle
DramSystem::rowHitLatency() const
{
    return toCore(_cfg.tCL + _cfg.tBurst);
}

void
DramSystem::access(Addr addr, bool is_write, DoneFn done)
{
    DESC_PROF_SCOPE(Dram);
    unsigned ch = channelOf(addr);
    Bank &bank = _channels[ch].banks[bankOf(addr)];
    if (bank.open_row == rowOf(addr))
        bank.queued_hits++;
    _channels[ch].queue.push_back(
        Request{addr, is_write, _eq.now(), std::move(done)});
    trySchedule(ch);
}

void
DramSystem::trySchedule(unsigned ch_idx)
{
    Channel &ch = _channels[ch_idx];
    if (ch.queue.empty() || ch.in_flight >= _cfg.max_overlap)
        return;

    // FR-FCFS: the oldest row-buffer hit wins; otherwise the oldest
    // request overall. The per-bank queued_hits index tells in O(banks)
    // whether any ready row hit can exist; only then is the queue
    // scanned, so the hitless worst case no longer walks every entry.
    std::size_t pick = 0;
    bool found_hit = false;
    bool maybe_hit = false;
    for (const Bank &b : ch.banks) {
        if (b.queued_hits > 0 && b.ready_at <= _eq.now()) {
            maybe_hit = true;
            break;
        }
    }
    if (maybe_hit) {
        for (std::size_t i = 0; i < ch.queue.size(); i++) {
            const Request &r = ch.queue[i];
            const Bank &bank = ch.banks[bankOf(r.addr)];
            if (bank.open_row == rowOf(r.addr)
                && bank.ready_at <= _eq.now()) {
                pick = i;
                found_hit = true;
                break;
            }
        }
        DESC_DCHECK(found_hit, "queued_hits index promised a ready row "
                    "hit the queue scan did not find");
    }

    Request req = std::move(ch.queue[pick]);
    ch.queue.erase(ch.queue.begin() + pick);

    const unsigned bank_idx = bankOf(req.addr);
    Bank &bank = ch.banks[bank_idx];
    bool row_hit = bank.open_row == rowOf(req.addr);
    if (row_hit) {
        DESC_DCHECK(bank.queued_hits >= 1,
                    "issuing a row hit the index did not count");
        bank.queued_hits--;
    }
    (void)found_hit;

    unsigned prep_mem = row_hit ? 0 : _cfg.tRP + _cfg.tRCD;
    Cycle bank_start = std::max(_eq.now(), bank.ready_at);
    Cycle data_start = std::max(bank_start + toCore(prep_mem + _cfg.tCL),
                                ch.data_bus_free);
    Cycle complete = data_start + toCore(_cfg.tBurst);

    // A burst takes at least one core cycle, so every completion is
    // strictly in the future and bank/bus busy times only advance.
    DESC_DCHECK(complete > _eq.now(), "DRAM completion at ", complete,
                " not after now ", _eq.now());
    bank.open_row = rowOf(req.addr);
    bank.ready_at = complete;
    if (!row_hit) {
        // The open row changed: recount this bank's queued hits.
        bank.queued_hits = 0;
        for (const Request &r : ch.queue) {
            if (bankOf(r.addr) == bank_idx
                && rowOf(r.addr) == bank.open_row) {
                bank.queued_hits++;
            }
        }
    }
    ch.data_bus_free = data_start + toCore(_cfg.tBurst);
    ch.in_flight++;

    if (row_hit)
        _stats.row_hits.inc();
    else
        _stats.row_misses.inc();
    if (req.is_write)
        _stats.writes.inc();
    else
        _stats.reads.inc();

    DESC_TRACE_EVENT(Dram, _eq.now(), req.is_write ? "write" : "read",
                     " ch ", ch_idx, " bank ", bankOf(req.addr),
                     row_hit ? " row hit" : " row miss", ", addr 0x",
                     std::hex, req.addr, std::dec, ", complete @",
                     complete);

    CompletionEvent &ev = _completions.acquire(this);
    ev.ch = ch_idx;
    ev.issued = req.issued;
    ev.done = std::move(req.done);
    _eq.schedule(ev, complete);

    // Keep dispatching while overlap slots remain.
    trySchedule(ch_idx);
}

void
DramSystem::complete(CompletionEvent &ev)
{
    DESC_PROF_SCOPE(Dram);
    const unsigned ch_idx = ev.ch;
    DESC_DCHECK(_eq.now() >= ev.issued, "completion at ", _eq.now(),
                " before issue at ", ev.issued);
    DESC_DCHECK(_channels[ch_idx].in_flight >= 1,
                "completion on idle channel ", ch_idx);
    _stats.latency.sample(double(_eq.now() - ev.issued));
    _channels[ch_idx].in_flight--;
    DoneFn done = std::move(ev.done);
    ev.done = nullptr;
    _completions.release(ev);
    if (done)
        done();
    trySchedule(ch_idx);
}

} // namespace desc::dram
