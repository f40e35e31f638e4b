/**
 * @file
 * Synthetic per-thread instruction/address stream.
 *
 * Each thread mixes sequential streaming through its region with
 * random accesses inside the working set, splits traffic between a
 * thread-private region and the application's shared region, and
 * walks a code footprint for instruction fetches. Gaps between memory
 * operations are geometric with the application's memory intensity.
 *
 * A thread's op stream is a pure function of its application
 * parameters, the seed and the thread id, and a figure sweep runs the
 * same (app, seed) under many transfer schemes. The generator
 * therefore records every op it produces into a per-thread trace that
 * runSystem() publishes process-wide; a later stream with the same
 * key replays the trace and, past its end, resumes the generator from
 * the state saved with it. The published traces share one byte cap
 * (kTraceCacheCap); past it, streams generate live with O(1) memory.
 */

#ifndef DESC_WORKLOADS_STREAM_HH
#define DESC_WORKLOADS_STREAM_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "cpu/stream.hh"
#include "workloads/valuemodel.hh"

namespace desc::workloads {

/** Bytes all published op traces may hold together. */
inline constexpr std::size_t kTraceCacheCap = std::size_t{64} << 20;

struct OpTrace;

class AppStream : public cpu::InstructionStream
{
  public:
    /**
     * @param thread_id  global hardware-thread index (0..31)
     * @param core_id    owning core (threads on a core share code)
     */
    AppStream(const AppParams &params, const ValueModel &values,
              unsigned thread_id, unsigned core_id, std::uint64_t seed);
    ~AppStream() override;
    AppStream(AppStream &&other) noexcept;
    AppStream &operator=(AppStream &&) = delete;

    unsigned nextGap(cpu::MemOp &op) override;
    Addr fetchAddr() const override;

    /**
     * Publish the trace this stream extended (the replayed prefix
     * plus every op it generated after it) if it is longer than the
     * published one and fits under the cap; otherwise drop it. Called
     * once a run is over; the stream stays usable (it generates live
     * from then on).
     */
    void publishTrace();

    /** Ops of the published trace this stream started replaying. */
    std::size_t tracedOps() const;

    /** Region bases (shared with the warmup runs of sim::warmupRuns). */
    static Addr privateBase(unsigned thread_id);
    static Addr sharedBase();
    static Addr hotBase(unsigned thread_id);
    static Addr codeBase(unsigned core_id);

    /** The generator's whole state between two ops. */
    struct GenState
    {
        Rng rng;
        Addr seq_cursor_priv = 0;
        Addr seq_cursor_shared = 0;
    };

  private:
    unsigned generate(cpu::MemOp &op);
    Addr pickAddr();
    void record(unsigned gap, const cpu::MemOp &op);
    bool grow(std::vector<std::uint64_t> &buf);
    void stopRecording();

    const AppParams &_p;
    const ValueModel &_values;
    unsigned _thread_id;
    std::uint64_t _seed;
    /** log(1 - mem_per_inst), the gap distribution's loop-invariant
     *  denominator. */
    double _log_no_mem;

    GenState _gen;
    Addr _private_base;
    Addr _shared_base;
    Addr _code_base;
    Addr _hot_base;
    Addr _fetch_cursor = 0;

    /** Replay cursors into _trace (all null without a trace). */
    std::shared_ptr<const OpTrace> _trace;
    const std::uint64_t *_next = nullptr;
    const std::uint64_t *_end = nullptr;
    const std::uint64_t *_next_value = nullptr;
    /** False while _gen has not been restored from _trace's end. */
    bool _live = true;

    /** Ops (and store values) generated after the trace, in the
     *  trace's format, while the cap has room for them. */
    bool _recording = false;
    std::vector<std::uint64_t> _rec_ops;
    std::vector<std::uint64_t> _rec_values;
    std::size_t _reserved = 0; //!< buffer bytes held against the cap
};

/**
 * Drop every published trace and set the cap to @p cap_bytes (tests
 * use a small cap to exercise the insert-if-fits path). Streams alive
 * across the call keep what they replay and what they reserved.
 */
void resetTraceCache(std::size_t cap_bytes = kTraceCacheCap);

/** Bytes the published traces hold now. */
std::size_t traceCacheBytes();

} // namespace desc::workloads

#endif // DESC_WORKLOADS_STREAM_HH
