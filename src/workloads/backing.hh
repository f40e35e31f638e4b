/**
 * @file
 * DRAM backing store materialized from the application value model.
 */

#ifndef DESC_WORKLOADS_BACKING_HH
#define DESC_WORKLOADS_BACKING_HH

#include <unordered_map>

#include "cache/blockdata.hh"
#include "workloads/valuemodel.hh"

namespace desc::workloads {

class ValueBackingStore : public cache::BackingStore
{
  public:
    ValueBackingStore(const AppParams &params, std::uint64_t seed);

    const cache::Block512 &fetch(Addr block_addr) override;
    void store(Addr block_addr, const cache::Block512 &data) override;

  private:
    ValueModel _model;
    std::unordered_map<Addr, cache::Block512> _mem;
    cache::Block512 _gen{}; //!< fetch() scratch for unwritten blocks
};

} // namespace desc::workloads

#endif // DESC_WORKLOADS_BACKING_HH
