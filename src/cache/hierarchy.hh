/**
 * @file
 * The full memory hierarchy of Table 1: per-core L1 I/D caches kept
 * coherent with MESI, an inclusive shared L2 (banked UCA or S-NUCA-1)
 * whose data ports use a pluggable TransferScheme, and DDR3 memory.
 *
 * Every 512-bit block that crosses the L2 H-tree — read hits, write
 * backs, fills, dirty evictions, and coherence flushes — goes through
 * the bank's TransferScheme instance, which yields the serialization
 * window (performance) and the wire transitions (energy) for that
 * exact data value. Bank conflicts arise naturally because a bank is
 * busy for the duration of each transfer window.
 */

#ifndef DESC_CACHE_HIERARCHY_HH
#define DESC_CACHE_HIERARCHY_HH

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cache/array.hh"
#include "cache/blockdata.hh"
#include "common/stats.hh"
#include "core/chunk.hh"
#include "core/factory.hh"
#include "dram/ddr3.hh"
#include "ecc/blockcodec.hh"
#include "encoding/scheme.hh"
#include "energy/cacti.hh"
#include "sim/eventq.hh"

namespace desc::cache {

/**
 * Completion callback for an asynchronous access: a plain function
 * pointer plus a context pointer and a small integer argument. All
 * core models key their continuations on (object, thread id), so this
 * covers every caller without the type erasure and heap spill of
 * std::function (whose captures exceed the libstdc++ small-buffer
 * size on the hot miss path).
 */
struct DoneCb
{
    using Fn = void (*)(void *ctx, unsigned arg);

    Fn fn = nullptr;
    void *ctx = nullptr;
    unsigned arg = 0;

    explicit operator bool() const { return fn != nullptr; }
    void operator()() const { fn(ctx, arg); }
};

/** MESI coherence states of an L1 line. */
enum class MesiState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

struct L1Config
{
    std::uint64_t capacity_bytes = 16 * 1024;
    unsigned assoc_d = 4; //!< DL1: 4-way (Table 1)
    unsigned assoc_i = 1; //!< IL1: direct-mapped (Table 1)
    unsigned block_bytes = 64;
    Cycle hit_latency = 2;
};

struct L2Config
{
    /** Geometry/device organization (shared with the energy model). */
    energy::CacheOrg org{};

    encoding::SchemeKind scheme = encoding::SchemeKind::Binary;
    encoding::SchemeConfig scheme_cfg{};

    /** S-NUCA-1 mode: statically routed banks, distance latency. */
    bool snuca = false;
    unsigned snuca_min_latency = 3;
    unsigned snuca_max_latency = 13;

    /** Controller decode/queue latency. */
    Cycle ctrl_latency = 2;

    /** Extra logic delay of the DESC TX/RX pair (synthesis: ~625ps). */
    Cycle desc_interface_delay = 2;

    /** Coherence recall (L1 flush) round-trip penalty. */
    Cycle recall_latency = 10;

    /** SECDED protection on the H-trees (Section 3.2.3). */
    bool ecc = false;
    unsigned ecc_segment_bits = 128;

    /** Collect the Figure 12/13 chunk statistics (costs time). */
    bool collect_chunk_stats = false;

    /**
     * The scheme configuration actually used on the wires: with ECC
     * the bus word grows by the parity bits and the bus by the parity
     * wires (Figure 9), for every scheme.
     */
    encoding::SchemeConfig effectiveSchemeConfig() const;

    bool
    isDesc() const
    {
        using encoding::SchemeKind;
        return scheme == SchemeKind::DescBasic
            || scheme == SchemeKind::DescZeroSkip
            || scheme == SchemeKind::DescLastValueSkip;
    }
};

struct HierarchyStats
{
    Counter l1i_accesses, l1i_misses;
    Counter l1d_accesses, l1d_misses;
    Counter upgrades;

    Counter l2_requests, l2_hits, l2_misses;
    Counter l2_writebacks_in;  //!< dirty L1 evictions into L2
    Counter l2_fills;          //!< DRAM fills into L2
    Counter l2_evictions_out;  //!< dirty L2 evictions to DRAM
    Counter recalls;           //!< coherence flushes from an L1 owner

    Counter read_transfers, write_transfers;

    /** Transition counts (weighted by bank distance under S-NUCA). */
    double data_flips = 0.0;
    double ctrl_flips = 0.0;

    /** Total cycles any bank port spent transferring (DESC power). */
    Cycle bank_busy_cycles = 0;

    Average hit_latency;      //!< request arrival to data response
    Average transfer_window;  //!< serialization cycles per transfer
};

class MemHierarchy
{
  public:
    MemHierarchy(sim::EventQueue &eq, const L2Config &l2cfg,
                 BackingStore &backing, unsigned num_cores,
                 const L1Config &l1cfg = L1Config{},
                 const dram::DramConfig &dram_cfg = dram::DramConfig{},
                 core::SchemeFactory make_scheme = core::makeScheme);

    /**
     * One core memory access. Returns the access latency if it
     * completes synchronously (L1 hit / upgrade-free store); otherwise
     * returns nullopt and @p done fires at the completion cycle.
     *
     * @param store_value for writes: the 64-bit word the core stores
     *        (keeps the data stream through the hierarchy realistic).
     */
    std::optional<Cycle> access(unsigned core, Addr addr, bool is_write,
                                std::uint64_t store_value, bool ifetch,
                                DoneCb done);

    const HierarchyStats &stats() const { return _stats; }
    const dram::DramSystem &dramSystem() const { return _dram; }
    const core::ChunkStats &chunkStats() const { return _chunk_stats; }
    const L2Config &config() const { return _cfg; }

    /**
     * Functional warmup: install the block at @p addr into the L2
     * without consuming simulated time or charging activity. Used to
     * reach steady-state cache contents before the timed region, as
     * SimPoint-style sampled simulation requires.
     *
     * The install is lazy: only the tag is placed, the payload stays
     * virgin and is materialized from the backing store at the first
     * data read (l2Data()). Since the backing contents of a
     * never-written block are a pure function of its address, the
     * observable data stream is identical to an eager fill.
     */
    void prefill(Addr addr);

    /**
     * Functional warmup in one build: the same L2 state as prefill()
     * of every block of @p runs in order, on a hierarchy that has
     * seen nothing else (see SetAssocArray::fillRuns()).
     */
    void prefillRuns(std::span<const BlockRun> runs);

    /** Read-only view of the L2 tag array, for equivalence tests. */
    const auto &l2Array() const { return _l2; }

  private:
    struct L1Meta
    {
        MesiState state = MesiState::Invalid;
        Block512 data{};
    };

    /**
     * Directory state of an L2 line. The payload lives apart, in
     * _l2_data under the same Way handle, so victim choice, sharer
     * and owner checks and the prefill walk read 4 bytes per line.
     */
    struct L2Meta
    {
        bool dirty = false;
        std::uint8_t sharers = 0; //!< DL1 sharer bitmap
        std::uint8_t owner = kNoOwner;
        /** Prefilled line whose payload was never materialized: the
         *  payload slot is indeterminate and must be loaded from the
         *  backing store before the first read (see l2Data()).
         *  Cleared by any full-block write (setL2Data()). */
        bool virgin = false;
    };

    static constexpr std::uint8_t kNoOwner = 0xff;
    static_assert(sizeof(L2Meta) <= 4);

    using L1Array = SetAssocArray<L1Meta>;
    using L2Array = SetAssocArray<L2Meta>;

    struct Bank
    {
        Cycle free_at = 0;
        std::unique_ptr<encoding::TransferScheme> read_scheme;
        std::unique_ptr<encoding::TransferScheme> write_scheme;
        double energy_weight = 1.0;
        Cycle route_latency = 0;
    };

    struct MshrEntry
    {
        /**
         * One core access waiting on an L2 response. Carries the
         * store payload so the response path can apply the write
         * after filling the L1 — no per-request closure needed.
         */
        struct Waiter
        {
            unsigned core = 0;
            bool exclusive = false;
            bool ifetch = false;
            bool is_store = false;
            Addr req_addr = 0;
            std::uint64_t store_value = 0;
            DoneCb done{};
        };
        std::vector<Waiter> waiters;
        bool exclusive_needed = false;
    };

    /** L1-miss probe done; forward the request to the L2. */
    struct AccessEvent final : sim::Event
    {
        explicit AccessEvent(MemHierarchy *m) : mh(m) {}
        void process() override { mh->accessEvent(*this); }
        MemHierarchy *const mh;
        Addr ba = 0;
        Cycle t0 = 0;
        MshrEntry::Waiter w{};
    };

    /** L2 tag probe confirmed a miss; issue the DRAM read. */
    struct TagProbeEvent final : sim::Event
    {
        explicit TagProbeEvent(MemHierarchy *m) : mh(m) {}
        void process() override { mh->tagProbe(*this); }
        MemHierarchy *const mh;
        Addr addr = 0;
    };

    /**
     * Data response reaching the cores: fill L1s, apply the store,
     * run the completions. The waiters vector's capacity is reused
     * across acquisitions.
     */
    struct ResponseEvent final : sim::Event
    {
        explicit ResponseEvent(MemHierarchy *m) : mh(m) {}
        void process() override { mh->respond(*this); }
        MemHierarchy *const mh;
        Addr addr = 0;
        Cycle t0 = 0;
        bool sample_hit = false;
        std::vector<MshrEntry::Waiter> waiters;
    };

    /** Plain delayed completion (store-upgrade acknowledgement). */
    struct DeliverEvent final : sim::Event
    {
        explicit DeliverEvent(MemHierarchy *m) : mh(m) {}
        void process() override { mh->deliver(*this); }
        MemHierarchy *const mh;
        DoneCb cb{};
    };

    unsigned bankOf(Addr addr) const;
    Addr blockAddr(Addr addr) const { return addr & ~Addr{63}; }

    /** The in-flight miss entry for @p addr, or nullptr. */
    MshrEntry *
    findMshr(Addr addr) const
    {
        for (const auto &[a, entry] : _mshr_active) {
            if (a == addr)
                return entry;
        }
        return nullptr;
    }

    /**
     * Run @p data through a bank port. Returns the completion cycle
     * (transfer fully delivered); the bank stays busy until then.
     */
    Cycle transfer(unsigned bank, const Block512 &data, bool write_dir,
                   Cycle earliest);

    /**
     * The payload of L2 line @p way, materializing a virgin prefill
     * from the backing store first. Every read of L2 data must come
     * through here, except the prefill walk's dirty-victim store (a
     * dirty line was written, so it is never virgin).
     */
    const Block512 &l2Data(L2Array::Way way);

    /** Overwrite the whole payload of L2 line @p way and clear its
     *  virgin flag: the one write path into _l2_data. */
    void
    setL2Data(L2Array::Way way, const Block512 &data)
    {
        _l2_data[way] = data;
        _l2.meta(way).virgin = false;
    }

    void accessEvent(AccessEvent &ev);
    void tagProbe(TagProbeEvent &ev);
    void respond(ResponseEvent &ev);
    void deliver(DeliverEvent &ev);

    void l2Request(Addr addr, Cycle t0, MshrEntry::Waiter w);
    void startMiss(Addr addr, Cycle t0, MshrEntry::Waiter w);
    void finishMiss(Addr addr);

    /** Flush/downgrade coherence copies; returns true if a recall
     *  transfer was needed (owner had a Modified copy). */
    bool recallForShared(L2Array::Way way, Addr addr, Cycle earliest,
                         Cycle *ready);
    bool invalidateSharers(L2Array::Way way, Addr addr,
                           unsigned except_core, Cycle earliest,
                           Cycle *ready);

    void fillL1(const MshrEntry::Waiter &w, Addr addr, L2Array::Way l2way);
    void evictL1Victim(unsigned core, L1Array &l1, Addr addr, bool ifetch);

    sim::EventQueue &_eq;
    L2Config _cfg;
    energy::CacheEnergyModel _energy_model;
    BackingStore &_backing;
    dram::DramSystem _dram;

    std::vector<L1Array> _l1i;
    std::vector<L1Array> _l1d;
    L2Array _l2;
    /** L2 payloads, one per line, indexed by L2Array::Way. Allocated
     *  without zeroing: a slot is written (setL2Data()) before any
     *  read, and never-read prefilled lines never touch theirs. */
    std::unique_ptr<Block512[]> _l2_data;
    std::vector<Bank> _banks;

    /**
     * MSHRs as a pool plus a small active list. The handful of misses
     * in flight make a linear scan cheaper than hashing, and recycled
     * entries keep their waiters capacity.
     */
    sim::Pool<MshrEntry> _mshrs;
    std::vector<std::pair<Addr, MshrEntry *>> _mshr_active;

    /** One pool per transaction step; each event is released at the
     *  top of its own process(). */
    sim::Pool<AccessEvent> _access_events;
    sim::Pool<TagProbeEvent> _tag_events;
    sim::Pool<ResponseEvent> _response_events;
    sim::Pool<DeliverEvent> _deliver_events;

    std::unique_ptr<ecc::BlockCodec> _codec;
    BitVec _scratch;     //!< reusable transfer word
    BitVec _scratch_raw; //!< reusable 512-bit word (pre-ECC)

    unsigned _array_read_cycles;
    unsigned _array_write_cycles;
    Cycle _flight;

    HierarchyStats _stats;
    core::ChunkStats _chunk_stats;
};

} // namespace desc::cache

#endif // DESC_CACHE_HIERARCHY_HH
