/**
 * @file
 * Generic physically-indexed set-associative cache tag array.
 *
 * This class provides the mechanics every cache level shares: lookup,
 * fill with victim selection, invalidation, and MSHR occupancy
 * accounting. It takes no coherence decisions — the bus (coherence/) and
 * the MuonTrap controller (muontrap/) drive state transitions through
 * the accessors here.
 */

#ifndef MTRAP_CACHE_CACHE_HH
#define MTRAP_CACHE_CACHE_HH

#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/line.hh"
#include "common/buffer_pool.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{

class Serializer;
class Deserializer;

/** Geometry and timing of one cache. */
struct CacheParams
{
    StatName name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    Cycle hitLatency = 1;
    unsigned mshrs = 4;
};

/** Description of a line pushed out by a fill. */
struct Eviction
{
    bool valid = false;
    Addr ptag = kAddrInvalid;
    CoherState state = CoherState::Invalid;
    bool dirty = false;
    bool committed = true;
};

/**
 * Lazily-initialised cache-line storage over a pooled buffer.
 *
 * A Table-1 L2's line array is ~2 MB of metadata, and eagerly
 * default-constructing it dominated System construction (~0.5 ms) for
 * the short-run sweeps (attack choreographies, harness job churn) that
 * build thousands of systems while touching a handful of sets each.
 * Storage comes raw from the BufferPool; a per-set bitmap records which
 * sets have been constructed, and a set's lines are default-initialised
 * on first *fill* touch. Probes of untouched sets report a miss without
 * faulting the set in, so construction cost is O(sets/64) words instead
 * of O(size).
 */
class LineArray
{
  public:
    LineArray() = default;
    LineArray(const LineArray &) = delete;
    LineArray &operator=(const LineArray &) = delete;

    ~LineArray()
    {
        BufferPool::instance().release(data_, bytes());
    }

    /** Allocate (uninitialised) storage for sets*ways lines. */
    void allocate(unsigned sets, unsigned ways)
    {
        static_assert(std::is_trivially_destructible_v<CacheLine>,
                      "lazy storage skips destructors");
        sets_ = sets;
        ways_ = ways;
        data_ = static_cast<CacheLine *>(
            BufferPool::instance().acquire(bytes()));
        if (!data_)
            throw std::bad_alloc();
        initBits_.assign((sets + 63) / 64, 0);
    }

    std::size_t size() const
    {
        return static_cast<std::size_t>(sets_) * ways_;
    }
    CacheLine *data() { return data_; }
    const CacheLine *data() const { return data_; }

    /** Line `i` of the flat array; the caller must know its set has
     *  been touched (e.g. FilterCache's valid-bit bookkeeping). */
    CacheLine &operator[](std::size_t i) { return data_[i]; }

    /** Base of `set`'s ways, constructing them on first touch. */
    CacheLine *set(unsigned set)
    {
        std::uint64_t &word = initBits_[set >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (set & 63);
        CacheLine *base = data_ + static_cast<std::size_t>(set) * ways_;
        if (!(word & bit)) {
            word |= bit;
            for (unsigned w = 0; w < ways_; ++w)
                new (base + w) CacheLine();
        }
        return base;
    }

    /** Base of `set`'s ways, or nullptr while untouched (probes of
     *  never-filled sets miss without faulting the set in). */
    CacheLine *setIfTouched(unsigned set)
    {
        if (!(initBits_[set >> 6] & (std::uint64_t{1} << (set & 63))))
            return nullptr;
        return data_ + static_cast<std::size_t>(set) * ways_;
    }

    const CacheLine *setIfTouched(unsigned set) const
    {
        return const_cast<LineArray *>(this)->setIfTouched(set);
    }

    /** Visit every touched set in ascending index order: fn(set, base).
     *  The deterministic sparse walk the snapshot layer serialises. */
    template <typename Fn>
    void forEachTouchedSet(Fn &&fn) const
    {
        for (unsigned s = 0; s < sets_; ++s) {
            const CacheLine *base = setIfTouched(s);
            if (base)
                fn(s, base);
        }
    }

    /** Count of touched (constructed) sets. */
    unsigned touchedSetCount() const
    {
        unsigned n = 0;
        for (std::uint64_t w : initBits_)
            n += static_cast<unsigned>(__builtin_popcountll(w));
        return n;
    }

    /** Forget every touched set (storage stays; sets re-construct on
     *  next touch). Restore paths call this before repopulating. */
    void resetTouched()
    {
        initBits_.assign(initBits_.size(), 0);
    }

    /** Visit every line of every touched set. */
    template <typename Fn>
    void forEachTouchedLine(Fn &&fn)
    {
        for (unsigned s = 0; s < sets_; ++s) {
            CacheLine *base = setIfTouched(s);
            if (!base)
                continue;
            for (unsigned w = 0; w < ways_; ++w)
                fn(base[w]);
        }
    }
    template <typename Fn>
    void forEachTouchedLine(Fn &&fn) const
    {
        for (unsigned s = 0; s < sets_; ++s) {
            const CacheLine *base = setIfTouched(s);
            if (!base)
                continue;
            for (unsigned w = 0; w < ways_; ++w)
                fn(base[w]);
        }
    }

  private:
    std::size_t bytes() const { return size() * sizeof(CacheLine); }

    CacheLine *data_ = nullptr;
    unsigned sets_ = 0;
    unsigned ways_ = 0;
    /** Bit per set: ways constructed. */
    std::vector<std::uint64_t> initBits_;
};

/**
 * Set-associative tag array with LRU replacement, statistics and MSHR
 * accounting.
 */
class Cache
{
  public:
    Cache(const CacheParams &params, StatGroup *parent);

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return sets_; }
    unsigned numWays() const { return params_.assoc; }

    /**
     * Look up a physical address. Returns the line (marking it most
     * recently used) or nullptr on miss. `paddr` is a full byte address.
     * Defined inline: this is the single hottest call in the memory
     * system and is dispatched from several translation units.
     */
    CacheLine *lookup(Addr paddr)
    {
        const Addr ln = lineNum(paddr);
        const unsigned set = setIndex(paddr);
        CacheLine *base = lines_.setIfTouched(set);
        if (!base)
            return nullptr;
        for (unsigned w = 0; w < params_.assoc; ++w) {
            CacheLine &l = base[w];
            if (l.valid() && l.ptag == ln) {
                l.replStamp = ++stamp_;
                return &l;
            }
        }
        return nullptr;
    }

    /** Look up without marking the line used (for probes and snoops). */
    CacheLine *peek(Addr paddr)
    {
        const Addr ln = lineNum(paddr);
        const unsigned set = setIndex(paddr);
        CacheLine *base = lines_.setIfTouched(set);
        if (!base)
            return nullptr;
        for (unsigned w = 0; w < params_.assoc; ++w)
            if (base[w].valid() && base[w].ptag == ln)
                return &base[w];
        return nullptr;
    }
    const CacheLine *peek(Addr paddr) const
    {
        return const_cast<Cache *>(this)->peek(paddr);
    }

    /**
     * Install a line for `paddr` with state `st`. If the set is full the
     * least recently used line is evicted (the lowest way on a tie); the
     * victim is described in `ev` (may be nullptr if the caller doesn't
     * care). Returns the filled line.
     */
    CacheLine &fill(Addr paddr, CoherState st, Eviction *ev = nullptr);

    /** Invalidate a specific address if present. True if it was.
     *  Virtual so the filter cache can clear its register valid bit. */
    virtual bool invalidate(Addr paddr);

    /** Invalidate the whole cache (slow path; the filter cache overrides
     *  this with a flash clear). */
    virtual void invalidateAll();

    /** Iterate over every valid line (snoop helpers, verification).
     *  Templated visitor — the callable is inlined into the loop, no
     *  std::function construction or indirect call per line. */
    template <typename Fn>
    void forEachLine(Fn &&fn)
    {
        lines_.forEachTouchedLine([&](CacheLine &l) {
            if (l.valid())
                fn(l);
        });
    }

    /** Number of currently valid lines. */
    unsigned validLineCount() const;

    /**
     * MSHR contention: reserve a miss-handling slot for a miss to
     * `paddr`'s line starting at `when` that would complete after
     * `miss_latency`. Returns the extra queueing delay (0 when a slot is
     * free). A miss to a line that already has an outstanding fill is
     * *merged* into the existing MSHR (no new slot; the data arrives
     * when the first fill does).
     */
    Cycle reserveMshr(Addr paddr, Cycle when, Cycle miss_latency);

    /**
     * Checkpoint the cache's mutable state: touched line sets (sparse),
     * the LRU stamp counter, MSHR slots and in-flight fills. Stats
     * sheets are handled by the System-level stats section. FilterCache
     * extends this with its virtual-tag arrays.
     */
    virtual void saveState(Serializer &s) const;
    virtual void restoreState(Deserializer &d);

    virtual ~Cache() = default;

  protected:
    unsigned setIndex(Addr paddr) const
    {
        return static_cast<unsigned>(lineNum(paddr) & (sets_ - 1));
    }

    CacheParams params_;
    unsigned sets_;
    /** Pool-backed and lazily constructed: systems are built and torn
     *  down constantly (the attack choreographies, every harness job);
     *  recycling avoids first-touch page faults and the per-set lazy
     *  init avoids paying for megabytes of untouched metadata. */
    LineArray lines_;
    /** LRU clock: every hit and fill writes ++stamp_ to the line's
     *  replStamp, so the smallest stamp in a set is its LRU line. */
    std::uint64_t stamp_ = 0;
    std::vector<Cycle> mshrFree_;
    /** Outstanding fills: line number -> data-arrival cycle. Sized to
     *  twice the erase threshold in reserveMshr (8 entries per MSHR),
     *  so the map normally never grows and eraseIf rebuilds a small
     *  table. */
    FlatWordMap inflightFills_;

    StatGroup stats_;

  public:
    Counter hits;
    Counter misses;
    Counter fills;
    Counter evictions;
    Counter invalidations;
    Counter mshrStalls;
    Counter mshrMerges;
    Formula missRate;
};

} // namespace mtrap

#endif // MTRAP_CACHE_CACHE_HH
