/**
 * @file
 * The physical wire levels connecting a DESC transmitter and receiver.
 *
 * The data wire levels are one BitVec, wire i at bit i, so the ticked
 * engine can advance, diff, and count a whole bus with a handful of
 * word operations (DESIGN.md §15): one cycle's data strobes are a
 * single XOR of a fire plane into the levels, transition counts are
 * popcounts of level XORs, and the receiver's toggle detectors are
 * one XOR against a delayed copy.
 */

#ifndef DESC_CORE_WIRES_HH
#define DESC_CORE_WIRES_HH

#include "common/bitvec.hh"

namespace desc::core {

/**
 * Levels of all wires of one DESC link at one clock cycle: the data
 * strobes, the shared reset/skip strobe, and the half-frequency
 * synchronization strobe.
 */
struct WireBundle
{
    BitVec data;
    bool reset_skip = false;
    bool sync = false;

    explicit WireBundle(unsigned wires = 0) : data(wires) {}

    void
    clear()
    {
        data.clear();
        reset_skip = false;
        sync = false;
    }
};

} // namespace desc::core

#endif // DESC_CORE_WIRES_HH
