/**
 * @file
 * Scalar reference walks of the transfer schemes and chunk statistics,
 * for differential tests only. Each oracle derives from its production
 * class and replaces only the walk, moving a block one chunk or one
 * segment at a time over the same wire state: the semantic definition
 * each word-parallel kernel is checked against. src/ never links it.
 */

#ifndef DESC_TESTS_ORACLE_ORACLE_HH
#define DESC_TESTS_ORACLE_ORACLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/chunk.hh"
#include "core/descscheme.hh"
#include "encoding/businvert.hh"
#include "encoding/dzc.hh"

namespace desc::oracle {

/** DESC, one chunk per wire per wave. */
class DescScalar : public core::DescScheme
{
  public:
    explicit DescScalar(const core::DescConfig &cfg);

    encoding::TransferResult transfer(const BitVec &block) override;
    void reset() override;

  private:
    std::vector<std::uint8_t> _last; //!< one byte per wire
};

/** Dynamic zero compression, one segment at a time. */
class DzcScalar : public encoding::DynamicZeroScheme
{
  public:
    using DynamicZeroScheme::DynamicZeroScheme;

    encoding::TransferResult transfer(const BitVec &block) override;
};

/** Bus-invert coding and its zero-skip variants, segment by segment. */
class BusInvertScalar : public encoding::BusInvertScheme
{
  public:
    using BusInvertScheme::BusInvertScheme;

    encoding::TransferResult transfer(const BitVec &block) override;
};

/** Chunk value histogram and per-wire last-value matches, per chunk. */
class ChunkStatsScalar : public core::ChunkStats
{
  public:
    ChunkStatsScalar(unsigned chunk_bits, unsigned wires);

    void observe(const BitVec &block);

  private:
    std::vector<std::uint8_t> _last;
    std::vector<bool> _last_valid;
};

/**
 * core::makeScheme with every kernel replaced by its scalar oracle
 * (Binary has a single walk and is built as is).
 */
std::unique_ptr<encoding::TransferScheme>
makeScheme(encoding::SchemeKind kind, const encoding::SchemeConfig &cfg);

} // namespace desc::oracle

#endif // DESC_TESTS_ORACLE_ORACLE_HH
