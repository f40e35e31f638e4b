/**
 * @file
 * Synthetic per-thread instruction/address stream.
 *
 * Each thread mixes sequential streaming through its region with
 * random accesses inside the working set, splits traffic between a
 * thread-private region and the application's shared region, and
 * walks a code footprint for instruction fetches. Gaps between memory
 * operations are geometric with the application's memory intensity.
 */

#ifndef DESC_WORKLOADS_STREAM_HH
#define DESC_WORKLOADS_STREAM_HH

#include "common/rng.hh"
#include "cpu/stream.hh"
#include "workloads/valuemodel.hh"

namespace desc::workloads {

class AppStream : public cpu::InstructionStream
{
  public:
    /**
     * @param thread_id  global hardware-thread index (0..31)
     * @param core_id    owning core (threads on a core share code)
     */
    AppStream(const AppParams &params, const ValueModel &values,
              unsigned thread_id, unsigned core_id, std::uint64_t seed);

    unsigned nextGap(cpu::MemOp &op) override;
    Addr fetchAddr() const override;

    /** Region bases (shared with the warmup logic in sim::runSystem). */
    static Addr privateBase(unsigned thread_id);
    static Addr sharedBase();
    static Addr hotBase(unsigned thread_id);
    static Addr codeBase(unsigned core_id);

  private:
    Addr pickAddr();

    const AppParams &_p;
    const ValueModel &_values;
    Rng _rng;
    /** log(1 - mem_per_inst), the gap distribution's loop-invariant
     *  denominator. */
    double _log_no_mem;

    Addr _private_base;
    Addr _shared_base;
    Addr _code_base;
    Addr _hot_base;
    Addr _seq_cursor_priv;
    Addr _seq_cursor_shared;
    Addr _fetch_cursor = 0;
};

} // namespace desc::workloads

#endif // DESC_WORKLOADS_STREAM_HH
