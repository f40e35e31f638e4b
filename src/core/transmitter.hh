/**
 * @file
 * Cycle-accurate DESC transmitter (Sections 3.1, 3.2.1, 3.3).
 *
 * The transmitter signals each chunk by toggling its wire after
 * chunkCycles(value) cycles. Without value skipping, a single reset
 * pulse opens the block and the wires stream their chunks back to
 * back. With value skipping the transfer proceeds in waves of one
 * chunk per wire: a reset/skip pulse opens each wave, chunks equal to
 * the wire's skip value stay silent, and the pulse that opens the
 * next wave (or the final close pulse) tells the receiver to
 * substitute the skip value for every silent wire.
 *
 * Timing convention: the opening pulse occupies one cycle; a chunk's
 * data strobe fires chunkCycles(v) cycles after the wave opens (or
 * after the wire's previous strobe in basic mode). The wave-closing
 * pulse is merged with the next wave's opening pulse and may be
 * concurrent with the last data strobe of its wave (the receiver
 * processes data strobes first).
 *
 * The ticked engine is bit-plane SWAR (DESIGN.md §15): loadBlock()
 * precomputes the whole block's toggle schedule as packed fire
 * planes — the strobe pattern of a cycle is invisible to any
 * observer until that cycle's wires() snapshot, so the schedule can
 * be resolved up front — and tick() reduces to XORing one plane into
 * the level plane plus two scalar control toggles. All schedule
 * storage is sized at construction; the per-block path never
 * allocates.
 */

#ifndef DESC_CORE_TRANSMITTER_HH
#define DESC_CORE_TRANSMITTER_HH

#include <vector>

#include "common/bitvec.hh"
#include "core/config.hh"
#include "core/adaptive.hh"
#include "core/toggle.hh"
#include "core/wires.hh"

namespace desc::core {

class DescTransmitter
{
  public:
    explicit DescTransmitter(const DescConfig &cfg);

    /** True while a block transfer is in flight. */
    bool busy() const { return _busy; }

    /** Begin transmitting @p block. @pre !busy(). */
    void loadBlock(const BitVec &block);

    /** Advance one clock cycle, updating the driven wire levels. */
    void tick();

    /** Wire levels after the latest tick. */
    const WireBundle &wires() const { return _wires; }

    /** Last value transmitted per wire (the last-value skip table). */
    const std::vector<std::uint8_t> &lastValues() const { return _last; }

    /** The frequent-value tracker driving adaptive skipping. */
    const AdaptiveTracker &adaptive() const { return _adaptive; }

    /** Return all wires and internal state to idle. */
    void reset();

  private:
    std::uint8_t skipValueFor(unsigned wire) const;
    std::uint64_t *planeAt(unsigned cycle);
    void scheduleBasic(const BitVec &block);
    void scheduleWaves(const BitVec &block);

    DescConfig _cfg;
    WireBundle _wires;

    /** Lifetime tick count (trace timestamps only). */
    std::uint64_t _ticks = 0;

    ToggleGenerator _reset_tg;
    ToggleGenerator _sync_tg;

    std::vector<std::uint8_t> _last;
    AdaptiveTracker _adaptive;

    bool _busy = false;

    // Precomputed block schedule. Cycle i of the block
    // (1-based) XORs fire plane i-1 into the data levels; _sched_reset
    // flags the cycles whose (merged) reset/skip pulse fires.
    unsigned _plane_words;                  //!< words per fire plane
    std::vector<std::uint64_t> _sched_fire; //!< flattened fire planes
    std::vector<std::uint8_t> _sched_reset;
    unsigned _sched_len = 0; //!< cycles in the scheduled block
    unsigned _sched_pos = 0; //!< cycles already ticked

    // Wave-open trace metadata: wave g's merged pulse fires in block
    // cycle _wave_open_cycle[g] with the recorded window (skip modes).
    std::vector<unsigned> _wave_open_cycle;
    std::vector<unsigned> _wave_window_of;
    std::vector<std::uint8_t> _wave_skipped_of;
    unsigned _next_trace_wave = 0;

    /** Per-wire running strobe time (basic-mode scheduling scratch). */
    std::vector<unsigned> _basic_cum;
};

} // namespace desc::core

#endif // DESC_CORE_TRANSMITTER_HH
