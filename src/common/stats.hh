/**
 * @file
 * Lightweight statistics primitives used by all simulated components,
 * and the hierarchical registry the observability layer dumps.
 *
 * Components keep explicit stat structs (Counter/Average/Histogram
 * members); at harvest time the run driver registers those objects in
 * a StatRegistry under dotted paths ("l2.hits", "link.data_flips"),
 * from which the human-readable report and the machine-readable
 * JSON dump (sim/statdump.hh) are both produced — one source of truth
 * for every reported number.
 */

#ifndef DESC_COMMON_STATS_HH
#define DESC_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { _value += n; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

    Counter &operator+=(const Counter &o) { _value += o._value; return *this; }

  private:
    std::uint64_t _value = 0;
};

/** Running mean/min/max of a sampled quantity. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        _count++;
        if (v < _min || _count == 1)
            _min = v;
        if (v > _max || _count == 1)
            _max = v;
    }

    double mean() const { return _count ? _sum / double(_count) : 0.0; }
    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double min() const { return _min; }
    double max() const { return _max; }

    /** Reinstate a previously harvested state (run-cache reload). */
    void
    restore(double sum, double min, double max, std::uint64_t count)
    {
        _sum = sum;
        _min = min;
        _max = max;
        _count = count;
    }

    void
    merge(const Average &o)
    {
        if (o._count == 0)
            return;
        if (_count == 0) {
            *this = o;
            return;
        }
        _sum += o._sum;
        _count += o._count;
        if (o._min < _min)
            _min = o._min;
        if (o._max > _max)
            _max = o._max;
    }

  private:
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    std::uint64_t _count = 0;
};

/**
 * Fixed-bin histogram over integer samples [0, bins).
 *
 * Overflow contract: samples >= numBins() land in a dedicated
 * overflow bucket. total() counts every sample, in range or not;
 * bin(i)/fraction(i) describe only in-range samples, so the bin
 * fractions sum to 1 - overflowFraction(); mean() is the mean of the
 * in-range samples only (the overflow bucket does not remember exact
 * values, so including it would silently clamp them — callers that
 * care report overflowFraction() alongside).
 */
class Histogram
{
  public:
    explicit Histogram(unsigned bins = 0) : _bins(bins, 0) {}

    void
    sample(std::uint64_t v, std::uint64_t n = 1)
    {
        if (v >= _bins.size())
            _overflow += n;
        else
            _bins[v] += n;
        _total += n;
    }

    std::uint64_t
    bin(unsigned i) const
    {
        DESC_ASSERT(i < _bins.size(), "histogram bin ", i,
                    " out of range [0, ", _bins.size(), ")");
        return _bins[i];
    }

    std::size_t numBins() const { return _bins.size(); }
    std::uint64_t total() const { return _total; }
    std::uint64_t overflow() const { return _overflow; }

    /** Samples that fell inside [0, numBins()). */
    std::uint64_t inRange() const { return _total - _overflow; }

    /** Fraction of all samples that fell into bin @p i. */
    double
    fraction(unsigned i) const
    {
        return _total ? double(bin(i)) / double(_total) : 0.0;
    }

    /** Fraction of all samples that overflowed the binned range. */
    double
    overflowFraction() const
    {
        return _total ? double(_overflow) / double(_total) : 0.0;
    }

    /** Mean of the in-range samples (see the overflow contract). */
    double mean() const;

    void merge(const Histogram &o);

    /** Reinstate a previously harvested state (run-cache reload). */
    void
    restore(std::vector<std::uint64_t> bins, std::uint64_t total,
            std::uint64_t overflow)
    {
        _bins = std::move(bins);
        _total = total;
        _overflow = overflow;
    }

  private:
    std::vector<std::uint64_t> _bins;
    std::uint64_t _total = 0;
    std::uint64_t _overflow = 0;
};

/** Geometric mean of a series (used for the per-app Geomean rows). */
double geomean(const std::vector<double> &values);

/**
 * A tree of named statistics, keyed by dotted paths
 * ("l2.bank3.desc.transitions"). Stat objects are registered by
 * reference — the registry does not own them and must not outlive
 * them — while derived quantities (rates, energies) are registered as
 * value snapshots. Paths are unique and a leaf can never also be an
 * interior node, so the tree always serializes cleanly.
 *
 * Entries iterate in lexicographic path order, which makes every dump
 * deterministic.
 */
class StatRegistry
{
  public:
    enum class Kind { Counter, Average, Histogram, Scalar, Int, Text };

    struct Entry
    {
        Kind kind;
        const desc::Counter *counter = nullptr;
        const desc::Average *average = nullptr;
        const desc::Histogram *histogram = nullptr;
        double scalar = 0.0;
        std::uint64_t integer = 0;
        std::string text;
        std::string description;
    };

    /**
     * Registration requires a non-empty human-readable description —
     * the registry is the one source of truth for reported numbers,
     * so every number must say what it measures. Enforced at runtime
     * here and statically by desc-lint (tools/lint).
     */
    void add(const std::string &path, const Counter &c,
             std::string description);
    void add(const std::string &path, const Average &a,
             std::string description);
    void add(const std::string &path, const Histogram &h,
             std::string description);
    void addScalar(const std::string &path, double v,
                   std::string description);
    void addInt(const std::string &path, std::uint64_t v,
                std::string description);
    void addText(const std::string &path, std::string v,
                 std::string description);

    bool contains(const std::string &path) const;

    /** The registered description of @p path (panics if unknown). */
    const std::string &description(const std::string &path) const;

    /** Typed lookups; missing path or kind mismatch is a panic. */
    std::uint64_t counterValue(const std::string &path) const;
    const Average &average(const std::string &path) const;
    const Histogram &histogram(const std::string &path) const;
    double scalar(const std::string &path) const;
    std::uint64_t integer(const std::string &path) const;
    const std::string &text(const std::string &path) const;

    std::size_t size() const { return _entries.size(); }
    bool empty() const { return _entries.empty(); }

    /** All entries, sorted by path. */
    const std::map<std::string, Entry> &entries() const
    {
        return _entries;
    }

  private:
    Entry &insert(const std::string &path, Kind kind,
                  std::string description);
    const Entry &lookup(const std::string &path, Kind kind) const;

    std::map<std::string, Entry> _entries;
};

} // namespace desc

#endif // DESC_COMMON_STATS_HH
