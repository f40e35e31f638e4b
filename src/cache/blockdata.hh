/**
 * @file
 * Inline 64-byte block payload storage.
 *
 * Cache lines and the DRAM backing store keep block contents in a
 * flat 8-word array (cheap to copy, no heap traffic); the transfer
 * schemes operate on BitVec, which toBitVec() fills.
 */

#ifndef DESC_CACHE_BLOCKDATA_HH
#define DESC_CACHE_BLOCKDATA_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/bitvec.hh"
#include "common/contract.hh"
#include "common/types.hh"

namespace desc::cache {

/** One 512-bit cache block payload. */
using Block512 = std::array<std::uint64_t, 8>;

inline Block512
zeroBlock()
{
    return Block512{};
}

/** Copy a block payload into a (pre-sized, 512-bit) BitVec. */
inline void
toBitVec(const Block512 &block, BitVec &out)
{
    DESC_DCHECK(out.width() == 8 * sizeof(Block512),
                "toBitVec into a ", out.width(), "-bit vector");
    std::copy(block.begin(), block.end(), out.mutableWords().begin());
}

/** Interface the cache hierarchy uses to materialize memory contents. */
class BackingStore
{
  public:
    virtual ~BackingStore() = default;

    /** Fetch (creating on first touch) the block at @p block_addr. */
    virtual const Block512 &fetch(Addr block_addr) = 0;

    /** Write a block back to memory. */
    virtual void store(Addr block_addr, const Block512 &data) = 0;
};

} // namespace desc::cache

#endif // DESC_CACHE_BLOCKDATA_HH
