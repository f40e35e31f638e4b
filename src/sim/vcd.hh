/**
 * @file
 * Value Change Dump (IEEE 1364) waveform export.
 *
 * DESC encodes data as the delay between wire toggles, so the
 * wire-level waveform *is* the experiment: this writer snapshots a
 * link's WireBundle each cycle (via the DescLink wire hook) and emits
 * a GTKWave/vcdcat-loadable .vcd file with one module scope per
 * traced link and one 1-bit signal per wire. Only level changes are
 * written, as VCD requires.
 *
 * Typical use (see examples/waveforms.cpp):
 *
 *     VcdWriter vcd;
 *     vcd.open("waves.vcd");
 *     auto sigs = vcd.addBundle("fig5", cfg.activeWires());
 *     vcd.endHeader();
 *     link.setWireHook([&](Cycle t, const WireBundle &w) {
 *         vcd.sampleBundle(sigs, t, w);
 *     });
 *     ... transfer blocks ...
 *     vcd.close();
 */

#ifndef DESC_SIM_VCD_HH
#define DESC_SIM_VCD_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/wires.hh"

namespace desc::sim {

class VcdWriter
{
  public:
    VcdWriter() = default;
    ~VcdWriter() { close(); }

    VcdWriter(const VcdWriter &) = delete;
    VcdWriter &operator=(const VcdWriter &) = delete;

    /**
     * Open @p path for writing; one simulated cycle maps to one
     * @p timescale unit. Returns false (with a warning) on failure.
     */
    bool open(const std::string &path,
              const std::string &timescale = "1ns");

    bool isOpen() const { return _out != nullptr; }
    const std::string &path() const { return _path; }

    /**
     * Declare a 1-bit signal named @p name inside module scope
     * @p scope. All declarations must precede endHeader(). Returns
     * the signal index used with set().
     */
    unsigned addSignal(const std::string &scope,
                       const std::string &name);

    /** Signal indices of one DESC link's wires within @p scope. */
    struct BundleSignals
    {
        unsigned reset_skip = 0;
        std::vector<unsigned> data;
        unsigned sync = 0;
        unsigned shadow = 0; //!< writer-owned plane-diff state index
    };

    /** Declare reset_skip, data[0..wires), sync under @p scope. */
    BundleSignals addBundle(const std::string &scope, unsigned wires);

    /** Finish the declaration section ($enddefinitions). */
    void endHeader();

    /**
     * Stage signal @p sig at level @p v for the next timestep().
     * Staging a level equal to the last emitted one is a no-op, so
     * repeated same-level sets cost O(1) and stage nothing.
     */
    void set(unsigned sig, bool v);

    /**
     * Stage a whole wire bundle. The data wires are diffed word-wide
     * against a writer-owned shadow of the previous sample, so only
     * wires that actually toggled are staged — the per-cycle cost is
     * proportional to the changes, not the bus width. Output is
     * byte-identical to calling set() on every signal.
     */
    void setBundle(const BundleSignals &sigs,
                   const core::WireBundle &w);

    /**
     * Emit all staged changes at time @p t. Times must be strictly
     * increasing; only signals whose level differs from the previous
     * timestep are written (the first timestep dumps every signal).
     */
    void timestep(std::uint64_t t);

    /** Convenience: setBundle() + timestep(). */
    void sampleBundle(const BundleSignals &sigs, Cycle t,
                      const core::WireBundle &w);

    /** Flush and close the file (also run by the destructor). */
    void close();

  private:
    struct Signal
    {
        std::string scope;
        std::string name;
        std::string id; //!< VCD identifier code
        bool level = false;        //!< staged value
        bool staged = false;
        bool last_emitted = false; //!< last level written to the file
        bool dumped = false;       //!< written at least once
    };

    /** Previous sampled data plane of one bundle (diff reference). */
    struct BundleShadow
    {
        BitVec plane;
        bool primed = false; //!< false until the first sample
    };

    std::FILE *_out = nullptr;
    std::string _path;
    bool _header_done = false;
    bool _any_time = false;
    std::uint64_t _last_time = 0;
    std::vector<Signal> _signals;
    std::vector<BundleShadow> _shadows;
    std::vector<unsigned> _dirty; //!< staged signal indices
};

} // namespace desc::sim

#endif // DESC_SIM_VCD_HH
