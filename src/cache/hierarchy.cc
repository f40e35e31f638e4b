#include "cache/hierarchy.hh"

#include "common/contract.hh"
#include "common/prof.hh"
#include "common/trace.hh"

namespace desc::cache {

encoding::SchemeConfig
L2Config::effectiveSchemeConfig() const
{
    encoding::SchemeConfig c = scheme_cfg;
    if (!ecc)
        return c;

    ecc::BlockCodec codec(c.block_bits, ecc_segment_bits);
    if (isDesc()) {
        // Parity chunks ride on extra wires (Figure 9): e.g. the
        // (137,128) code adds nine 4-bit parity chunks to a 128-wire
        // interface.
        unsigned parity_chunks = codec.totalParityBits() / c.chunk_bits;
        DESC_ASSERT(codec.totalParityBits() % c.chunk_bits == 0,
                    "parity bits not chunk-aligned");
        c.bus_wires += parity_chunks;
    } else {
        // Binary-style buses keep their beat count and widen by the
        // parity wires per beat (e.g. 64 -> 72 for (72,64)).
        unsigned beats = c.block_bits / c.bus_wires;
        DESC_ASSERT(codec.busBits() % beats == 0,
                    "ECC bus word not beat-aligned");
        c.bus_wires = codec.busBits() / beats;
    }
    c.block_bits = codec.busBits();
    return c;
}

MemHierarchy::MemHierarchy(sim::EventQueue &eq, const L2Config &l2cfg,
                           BackingStore &backing, unsigned num_cores,
                           const L1Config &l1cfg,
                           const dram::DramConfig &dram_cfg,
                           core::SchemeFactory make_scheme)
    : _eq(eq), _cfg(l2cfg), _energy_model(l2cfg.org), _backing(backing),
      _dram(eq, dram_cfg),
      _l2(l2cfg.org.capacity_bytes, l2cfg.org.assoc, l2cfg.org.block_bytes),
      _l2_data(std::make_unique_for_overwrite<Block512[]>(
          std::size_t(_l2.numSets()) * _l2.assoc())),
      _scratch(0), _scratch_raw(l2cfg.scheme_cfg.block_bits),
      _chunk_stats(l2cfg.scheme_cfg.chunk_bits == 0
                       ? 4
                       : l2cfg.scheme_cfg.chunk_bits,
                   128)
{
    DESC_ASSERT(num_cores >= 1 && num_cores <= 8,
                "directory bitmap supports up to 8 cores");
    // Payloads, bank interleaving and block addresses are all fixed
    // to 64-byte lines (Block512).
    DESC_ASSERT(l2cfg.org.block_bytes == sizeof(Block512)
                    && l1cfg.block_bytes == sizeof(Block512)
                    && l2cfg.scheme_cfg.block_bits == 8 * sizeof(Block512),
                "blocks must be ", sizeof(Block512), " bytes: L2 ",
                l2cfg.org.block_bytes, ", L1 ", l1cfg.block_bytes,
                ", transfer ", l2cfg.scheme_cfg.block_bits, " bits");

    for (unsigned c = 0; c < num_cores; c++) {
        _l1i.emplace_back(l1cfg.capacity_bytes, l1cfg.assoc_i,
                          l1cfg.block_bytes);
        _l1d.emplace_back(l1cfg.capacity_bytes, l1cfg.assoc_d,
                          l1cfg.block_bytes);
    }

    auto eff = _cfg.effectiveSchemeConfig();
    if (_cfg.ecc) {
        _codec = std::make_unique<ecc::BlockCodec>(
            _cfg.scheme_cfg.block_bits, _cfg.ecc_segment_bits);
        _scratch = BitVec(_codec->busBits());
    }

    unsigned banks = _cfg.org.banks;
    _banks.resize(banks);
    for (unsigned b = 0; b < banks; b++) {
        _banks[b].read_scheme = make_scheme(_cfg.scheme, eff);
        _banks[b].write_scheme = make_scheme(_cfg.scheme, eff);
        if (_cfg.snuca && banks > 1) {
            double frac = double(b) / double(banks - 1);
            _banks[b].route_latency = Cycle(
                _cfg.snuca_min_latency
                + frac * (_cfg.snuca_max_latency - _cfg.snuca_min_latency));
            // Flip energy scales with routing distance; mean stays 1.
            _banks[b].energy_weight = 0.4 + 1.2 * frac;
        }
    }

    // Timing from the geometry model.
    const double cycle_ps = 1000.0 / _cfg.org.clock_ghz;
    const auto &dev = energy::tech22().device(_cfg.org.cell_dev);
    _array_read_cycles = std::max<unsigned>(
        1, unsigned(250.0 * dev.access_time_factor / cycle_ps + 0.999));
    _array_write_cycles = _array_read_cycles;
    _flight = _energy_model.htreeFlightCycles();
}

unsigned
MemHierarchy::bankOf(Addr addr) const
{
    return unsigned((addr >> 6) % _cfg.org.banks);
}

Cycle
MemHierarchy::transfer(unsigned bank_idx, const Block512 &data,
                       bool write_dir, Cycle earliest)
{
    Bank &bank = _banks[bank_idx];

    toBitVec(data, _scratch_raw);
    const BitVec *word = &_scratch_raw;
    if (_codec) {
        _codec->encodeInto(_scratch_raw, _scratch);
        word = &_scratch;
    }
    if (_cfg.collect_chunk_stats)
        _chunk_stats.observe(_scratch_raw);

    auto &scheme = write_dir ? *bank.write_scheme : *bank.read_scheme;
    encoding::TransferResult r;
    {
        DESC_PROF_SCOPE(Encoder);
        r = scheme.transfer(*word);
    }
    DESC_PROF_CYCLES(Encoder, r.cycles);

    Cycle window = r.cycles
        + (_cfg.isDesc() ? _cfg.desc_interface_delay : 0);
    unsigned array = write_dir ? _array_write_cycles : _array_read_cycles;

    Cycle start = std::max(earliest, bank.free_at);
    Cycle complete = start + array + window;
    // Array access of the next request can overlap this transfer.
    bank.free_at = start + std::max<Cycle>(array, window);

    _stats.data_flips += double(r.data_flips) * bank.energy_weight;
    _stats.ctrl_flips += double(r.control_flips) * bank.energy_weight;
    _stats.bank_busy_cycles += window;
    _stats.transfer_window.sample(double(window));
    (write_dir ? _stats.write_transfers : _stats.read_transfers).inc();

    DESC_TRACE_EVENT(Cache, _eq.now(), "bank ", bank_idx,
                     write_dir ? " write" : " read",
                     " transfer: window ", window, " cyc, ",
                     r.data_flips, " data + ", r.control_flips,
                     " ctrl flips, complete @", complete);

    return complete;
}

void
MemHierarchy::evictL1Victim(unsigned core, L1Array &l1, Addr addr,
                            bool ifetch)
{
    auto v = l1.victim(addr);
    if (!l1.valid(v))
        return;
    Addr va = l1.addrOf(v);
    L1Meta &vm = l1.meta(v);
    if (!ifetch) {
        auto l2way = _l2.lookup(va);
        if (vm.state == MesiState::Modified) {
            _stats.l2_writebacks_in.inc();
            if (l2way != L2Array::kNoWay) {
                setL2Data(l2way, vm.data);
                _l2.meta(l2way).dirty = true;
            }
            transfer(bankOf(va), vm.data, true,
                     _eq.now() + _cfg.ctrl_latency + _flight);
        }
        if (l2way != L2Array::kNoWay) {
            L2Meta &lm = _l2.meta(l2way);
            lm.sharers &= std::uint8_t(~(1u << core));
            if (lm.owner == core)
                lm.owner = kNoOwner;
        }
    }
    l1.invalidate(v);
}

bool
MemHierarchy::recallForShared(L2Array::Way way, Addr addr,
                              Cycle earliest, Cycle *ready)
{
    L2Meta &lm = _l2.meta(way);
    *ready = earliest;
    if (lm.owner == kNoOwner)
        return false;
    unsigned owner = lm.owner;
    lm.owner = kNoOwner;
    auto l1way = _l1d[owner].lookup(addr);
    if (l1way == L1Array::kNoWay)
        return false;
    L1Meta &l1m = _l1d[owner].meta(l1way);
    bool was_dirty = l1m.state == MesiState::Modified;
    l1m.state = MesiState::Shared;
    if (was_dirty) {
        _stats.recalls.inc();
        DESC_TRACE_EVENT(Cache, _eq.now(),
                         "coherence recall: owner core ", owner,
                         " addr 0x", std::hex, addr, std::dec);
        setL2Data(way, l1m.data);
        lm.dirty = true;
        *ready = transfer(bankOf(addr), l1m.data, true, earliest);
        return true;
    }
    return false;
}

bool
MemHierarchy::invalidateSharers(L2Array::Way way, Addr addr,
                                unsigned except_core, Cycle earliest,
                                Cycle *ready)
{
    L2Meta &lm = _l2.meta(way);
    *ready = earliest;
    bool recalled = false;
    std::uint8_t sharers = lm.sharers;
    for (unsigned c = 0; c < _l1d.size(); c++) {
        if (c == except_core || !(sharers & (1u << c)))
            continue;
        auto l1way = _l1d[c].lookup(addr);
        if (l1way != L1Array::kNoWay) {
            L1Meta &l1m = _l1d[c].meta(l1way);
            if (l1m.state == MesiState::Modified) {
                _stats.recalls.inc();
                setL2Data(way, l1m.data);
                lm.dirty = true;
                *ready = transfer(bankOf(addr), l1m.data, true, earliest);
                recalled = true;
            }
            _l1d[c].invalidate(l1way);
        }
        lm.sharers &= std::uint8_t(~(1u << c));
    }
    if (lm.owner != kNoOwner && lm.owner != except_core)
        lm.owner = kNoOwner;
    // Postcondition: only the exempted core may still share the line,
    // and the directory cannot name an evicted sharer as owner.
    DESC_DCHECK(except_core >= 8
                    || (lm.sharers
                        & std::uint8_t(~(1u << except_core))) == 0,
                "sharers survived invalidation: bitmap ",
                unsigned(lm.sharers), " except core ", except_core);
    DESC_DCHECK(lm.owner == kNoOwner || lm.owner == except_core,
                "stale owner ", unsigned(lm.owner),
                " after invalidation");
    return recalled;
}

void
MemHierarchy::fillL1(const MshrEntry::Waiter &w, Addr addr,
                     L2Array::Way l2way)
{
    L1Array &l1 = w.ifetch ? _l1i[w.core] : _l1d[w.core];
    auto way = l1.lookup(addr);
    if (way == L1Array::kNoWay) {
        evictL1Victim(w.core, l1, addr, w.ifetch);
        way = l1.victim(addr);
        l1.fill(way, addr);
    }
    L1Meta &l1m = l1.meta(way);
    l1m.data = l2Data(l2way);
    L2Meta &l2m = _l2.meta(l2way);
    if (w.ifetch) {
        // Instruction lines are read-only and not directory-tracked.
        l1m.state = MesiState::Shared;
        return;
    }
    if (w.exclusive) {
        l1m.state = MesiState::Exclusive;
        l2m.owner = std::uint8_t(w.core);
        l2m.sharers = std::uint8_t(1u << w.core);
    } else {
        bool alone = l2m.sharers == 0;
        l1m.state = alone ? MesiState::Exclusive : MesiState::Shared;
        l2m.sharers |= std::uint8_t(1u << w.core);
        l2m.owner = alone ? std::uint8_t(w.core) : kNoOwner;
    }
}

void
MemHierarchy::accessEvent(AccessEvent &ev)
{
    DESC_PROF_SCOPE(CacheRequest);
    const Addr ba = ev.ba;
    const Cycle t0 = ev.t0;
    MshrEntry::Waiter w = ev.w;
    ev.w.done = DoneCb{};
    _access_events.release(ev);
    l2Request(ba, t0, w);
}

void
MemHierarchy::tagProbe(TagProbeEvent &ev)
{
    DESC_PROF_SCOPE(CacheMiss);
    const Addr addr = ev.addr;
    _tag_events.release(ev);
    _dram.access(addr, false, [this, addr]() { finishMiss(addr); });
}

void
MemHierarchy::respond(ResponseEvent &ev)
{
    DESC_PROF_SCOPE(CacheRespond);
    if (ev.sample_hit)
        _stats.hit_latency.sample(double(_eq.now() - ev.t0));
    auto way = _l2.lookup(ev.addr);
    for (auto &w : ev.waiters) {
        if (way != L2Array::kNoWay) {
            fillL1(w, ev.addr, way);
            _l2.touch(way);
        }
        if (w.is_store) {
            auto lw = _l1d[w.core].lookup(w.req_addr);
            if (lw != L1Array::kNoWay) {
                L1Meta &lm = _l1d[w.core].meta(lw);
                lm.state = MesiState::Modified;
                lm.data[unsigned((w.req_addr >> 3) & 7)] = w.store_value;
            }
        }
        if (w.done)
            w.done();
    }
    ev.waiters.clear(); // keeps the capacity
    _response_events.release(ev);
}

void
MemHierarchy::deliver(DeliverEvent &ev)
{
    DoneCb cb = ev.cb;
    ev.cb = DoneCb{};
    _deliver_events.release(ev);
    if (cb)
        cb();
}

void
MemHierarchy::l2Request(Addr addr, Cycle t0, MshrEntry::Waiter w)
{
    _stats.l2_requests.inc();

    if (MshrEntry *mshr = findMshr(addr)) {
        mshr->waiters.push_back(w);
        mshr->exclusive_needed |= w.exclusive;
        return;
    }

    auto way = _l2.lookup(addr);
    if (way == L2Array::kNoWay) {
        startMiss(addr, t0, std::move(w));
        return;
    }

    _stats.l2_hits.inc();
    DESC_TRACE_EVENT(Cache, _eq.now(), "L2 hit: core ", w.core,
                     w.exclusive ? " excl" : " shared",
                     w.ifetch ? " ifetch" : "", " addr 0x", std::hex,
                     addr, std::dec);
    unsigned bank = bankOf(addr);
    Cycle flight = _cfg.snuca ? _banks[bank].route_latency : _flight;
    Cycle earliest = t0 + _cfg.ctrl_latency + flight;

    Cycle ready = earliest;
    if (w.exclusive) {
        if (invalidateSharers(way, addr, w.core, earliest, &ready))
            ready += _cfg.recall_latency;
    } else if (_l2.meta(way).owner != kNoOwner
               && _l2.meta(way).owner != w.core) {
        if (recallForShared(way, addr, earliest, &ready))
            ready += _cfg.recall_latency;
    }

    Cycle complete = transfer(bank, l2Data(way), false, ready);

    ResponseEvent &ev = _response_events.acquire(this);
    ev.waiters.push_back(std::move(w));
    ev.addr = addr;
    ev.t0 = t0;
    ev.sample_hit = true;
    _eq.schedule(ev, complete + flight);
}

void
MemHierarchy::startMiss(Addr addr, Cycle t0, MshrEntry::Waiter w)
{
    _stats.l2_misses.inc();
    DESC_TRACE_EVENT(Cache, _eq.now(), "L2 miss: core ", w.core,
                     w.exclusive ? " excl" : " shared",
                     w.ifetch ? " ifetch" : "", " addr 0x", std::hex,
                     addr, std::dec, ", to DRAM");
    // MSHR occupancy contract: one entry per block address (merges go
    // through l2Request), and entries only die in finishMiss.
    DESC_DCHECK(!findMshr(addr),
                "duplicate MSHR allocation for addr 0x", std::hex, addr,
                std::dec);
    MshrEntry &entry = _mshrs.acquire();
    entry.exclusive_needed = w.exclusive;
    entry.waiters.push_back(std::move(w));
    _mshr_active.emplace_back(addr, &entry);

    // Tag probe detects the miss, then the request goes to memory.
    TagProbeEvent &tev = _tag_events.acquire(this);
    tev.addr = addr;
    _eq.schedule(tev, t0 + _cfg.ctrl_latency + _flight + 2);
}

void
MemHierarchy::finishMiss(Addr addr)
{
    DESC_PROF_SCOPE(CacheMiss);
    const Block512 &mem = _backing.fetch(addr);

    // Prefer victims without live L1 copies: evicting an L1-resident
    // line forces an inclusive back-invalidation that would wipe the
    // cores' hot sets whenever the L2 churns.
    auto v = _l2.victimPreferring(addr, [](const L2Meta &m) {
        return m.sharers != 0 || m.owner != kNoOwner;
    });
    unsigned bank = bankOf(addr);
    if (_l2.valid(v)) {
        Addr va = _l2.addrOf(v);
        // Inclusive hierarchy: L1 copies of the victim must go.
        Cycle ready;
        invalidateSharers(v, va, unsigned(-1), _eq.now(), &ready);
        if (_l2.meta(v).dirty) {
            _stats.l2_evictions_out.inc();
            DESC_TRACE_EVENT(Cache, _eq.now(),
                             "L2 dirty eviction: addr 0x", std::hex,
                             va, std::dec, " to DRAM");
            // Dirty implies materialized, so this l2Data() never
            // re-enters the backing store (whose fetch() scratch
            // still holds `mem` when the block was never written).
            const Block512 &victim_data = l2Data(v);
            transfer(bank, victim_data, false, _eq.now());
            _backing.store(va, victim_data);
            _dram.access(va, true, nullptr);
        }
        _l2.invalidate(v);
    }
    _l2.fill(v, addr);
    setL2Data(v, mem);
    _stats.l2_fills.inc();

    // Fill the data array through the bank's write port; the reply to
    // the cores leaves the controller in parallel.
    transfer(bank, mem, true, _eq.now() + _cfg.ctrl_latency);

    Cycle resp = _eq.now() + _cfg.ctrl_latency;
    MshrEntry *entry = findMshr(addr);
    DESC_ASSERT(entry, "miss completion without MSHR");

    ResponseEvent &ev = _response_events.acquire(this);
    ev.addr = addr;
    ev.t0 = 0;
    ev.sample_hit = false;
    for (auto &w : entry->waiters)
        ev.waiters.push_back(w);
    entry->waiters.clear(); // keeps the capacity for the next miss
    for (auto &slot : _mshr_active) {
        if (slot.first == addr) {
            slot = _mshr_active.back();
            _mshr_active.pop_back();
            break;
        }
    }
    _mshrs.release(*entry);

    _eq.schedule(ev, resp);
}

void
MemHierarchy::prefill(Addr addr)
{
    addr = blockAddr(addr);
    if (_l2.lookup(addr) != L2Array::kNoWay)
        return;
    auto v = _l2.victimPreferring(addr, [](const L2Meta &m) {
        return m.sharers != 0 || m.owner != kNoOwner;
    });
    if (_l2.valid(v) && _l2.meta(v).dirty)
        _backing.store(_l2.addrOf(v), _l2_data[v]);
    _l2.invalidate(v);
    _l2.fill(v, addr);
    // Tag-only install: the payload stays virgin until the first read
    // materializes it (l2Data()). Warming ~70% of the L2 then costs
    // tag walks instead of a value-model synthesis per block, and a
    // line that is never read never pays one at all.
    _l2.meta(v).virgin = true;
}

const Block512 &
MemHierarchy::l2Data(L2Array::Way way)
{
    if (_l2.meta(way).virgin)
        setL2Data(way, _backing.fetch(_l2.addrOf(way)));
    return _l2_data[way];
}

void
MemHierarchy::prefillRuns(std::span<const BlockRun> runs)
{
    _l2.fillRuns(runs, L2Meta{.virgin = true});
}

std::optional<Cycle>
MemHierarchy::access(unsigned core, Addr addr, bool is_write,
                     std::uint64_t store_value, bool ifetch, DoneCb done)
{
    DESC_PROF_SCOPE(CacheAccess);
    DESC_ASSERT(core < _l1d.size(), "core id out of range");
    DESC_ASSERT(!(ifetch && is_write), "cannot write instructions");

    L1Array &l1 = ifetch ? _l1i[core] : _l1d[core];
    (ifetch ? _stats.l1i_accesses : _stats.l1d_accesses).inc();

    const unsigned word = unsigned((addr >> 3) & 7);
    auto way = l1.lookup(addr);
    if (way != L1Array::kNoWay) {
        L1Meta &lm = l1.meta(way);
        if (!is_write) {
            l1.touch(way);
            return Cycle{2};
        }
        if (lm.state == MesiState::Modified
            || lm.state == MesiState::Exclusive) {
            lm.state = MesiState::Modified;
            lm.data[word] = store_value;
            l1.touch(way);
            return Cycle{2};
        }
        // Store hit on a Shared line: upgrade (invalidate peers, no
        // data transfer).
        _stats.upgrades.inc();
        Addr ba = blockAddr(addr);
        auto l2way = _l2.lookup(ba);
        if (l2way != L2Array::kNoWay) {
            Cycle ready;
            invalidateSharers(l2way, ba, core,
                              _eq.now() + _cfg.ctrl_latency, &ready);
            _l2.meta(l2way).owner = std::uint8_t(core);
            _l2.meta(l2way).sharers = std::uint8_t(1u << core);
        }
        lm.state = MesiState::Modified;
        lm.data[word] = store_value;
        l1.touch(way);
        Cycle lat = 2 * (_cfg.ctrl_latency + _flight);
        DeliverEvent &dev = _deliver_events.acquire(this);
        dev.cb = done;
        _eq.scheduleIn(dev, lat);
        return std::nullopt;
    }

    (ifetch ? _stats.l1i_misses : _stats.l1d_misses).inc();

    Addr ba = blockAddr(addr);
    Cycle t0 = _eq.now() + 2; // L1 probe detects the miss
    AccessEvent &ev = _access_events.acquire(this);
    ev.ba = ba;
    ev.t0 = t0;
    ev.w = {core, is_write, ifetch, is_write, addr, store_value, done};
    _eq.schedule(ev, t0);
    return std::nullopt;
}

} // namespace desc::cache
