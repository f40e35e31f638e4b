/**
 * @file
 * The toggle circuits of Figure 8: generator and detector.
 *
 * DESC signals by toggling wire levels rather than driving absolute
 * values; these two primitives are the building blocks of every
 * strobe path in the transmitter and receiver.
 */

#ifndef DESC_CORE_TOGGLE_HH
#define DESC_CORE_TOGGLE_HH

#include <cstdint>

#include "common/bitvec.hh"

namespace desc::core {

/**
 * Toggle generator (Figure 8a): a flop whose output inverts every
 * time it is fired.
 */
class ToggleGenerator
{
  public:
    /** Invert the driven level (send one strobe). */
    void fire() { _level = !_level; }

    bool level() const { return _level; }
    void reset() { _level = false; }

  private:
    bool _level = false;
};

/**
 * Toggle detector (Figure 8b): compares the wire against a delayed
 * copy of itself and reports a pulse whenever the level changed.
 */
class ToggleDetector
{
  public:
    /** Sample the wire; true if a toggle arrived this cycle. */
    bool
    sample(bool level)
    {
        bool toggled = level != _prev;
        _prev = level;
        return toggled;
    }

    void reset() { _prev = false; }

  private:
    bool _prev = false;
};

/**
 * A whole bank of toggle detectors sampled word-wide (Figure 8b, one
 * lane per data wire): the delayed copies live in a BitVec, so one
 * cycle's toggles for the entire bus are the XOR of the sampled
 * levels against the delayed copy. Behaviorally identical to one
 * ToggleDetector per lane.
 */
class ToggleDetectorBank
{
  public:
    explicit ToggleDetectorBank(unsigned lanes) : _prev(lanes) {}

    /**
     * Sample all lanes at once: @p toggles receives levels XOR
     * delayed-copies, and the delayed copies become @p levels.
     */
    void
    sample(const BitVec &levels, BitVec &toggles)
    {
        const std::size_t n = _prev.words().size();
        const std::uint64_t *in = levels.words().data();
        std::uint64_t *prev = _prev.mutableWords().data();
        std::uint64_t *out = toggles.mutableWords().data();
        for (std::size_t i = 0; i < n; i++) {
            out[i] = in[i] ^ prev[i];
            prev[i] = in[i];
        }
    }

    void reset() { _prev.clear(); }

  private:
    BitVec _prev;
};

} // namespace desc::core

#endif // DESC_CORE_TOGGLE_HH
