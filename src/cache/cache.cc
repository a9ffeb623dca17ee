#include "cache/cache.hh"

#include <algorithm>

#include "common/first_min.hh"
#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

namespace
{

/** Interned once per process; shared by every cache of every level. */
StatSchema &
cacheStatSchema()
{
    static StatSchema s("cache");
    return s;
}

double
cacheMissRate(const void *ctx)
{
    const Cache *c = static_cast<const Cache *>(ctx);
    const double h = static_cast<double>(c->hits.value());
    const double m = static_cast<double>(c->misses.value());
    return (h + m) > 0 ? m / (h + m) : 0.0;
}

} // namespace

const char *
coherStateName(CoherState s)
{
    switch (s) {
      case CoherState::Invalid: return "I";
      case CoherState::Shared: return "S";
      case CoherState::Exclusive: return "E";
      case CoherState::Modified: return "M";
    }
    return "?";
}

Cache::Cache(const CacheParams &params, StatGroup *parent)
    : params_(params),
      inflightFills_(16 * std::size_t{std::max(1u, params.mshrs)}),
      stats_(cacheStatSchema(), params.name, parent),
      hits(&stats_, "hits", "demand hits"),
      misses(&stats_, "misses", "demand misses"),
      fills(&stats_, "fills", "lines installed"),
      evictions(&stats_, "evictions", "valid lines evicted by fills"),
      invalidations(&stats_, "invalidations", "lines invalidated"),
      mshrStalls(&stats_, "mshr_stalls", "misses delayed by full MSHRs"),
      mshrMerges(&stats_, "mshr_merges",
                 "misses merged into an outstanding same-line fill"),
      missRate(&stats_, "miss_rate", "misses / (hits+misses)",
               &cacheMissRate, this)
{
    if (params.sizeBytes % (static_cast<std::uint64_t>(params.assoc)
                            * kLineBytes) != 0) {
        fatal("%s: size %llu not divisible by assoc %u * line %u",
              params.name.c_str(),
              static_cast<unsigned long long>(params.sizeBytes),
              params.assoc, kLineBytes);
    }
    sets_ = static_cast<unsigned>(params.sizeBytes
                                  / (params.assoc * kLineBytes));
    if (!isPow2(sets_))
        fatal("%s: set count %u must be a power of two",
              params.name.c_str(), sets_);
    lines_.allocate(sets_, params.assoc);
    mshrFree_.assign(std::max(1u, params.mshrs), 0);
}

CacheLine &
Cache::fill(Addr paddr, CoherState st, Eviction *ev)
{
    if (st == CoherState::Invalid)
        panic("%s: filling with Invalid state", params_.name.c_str());

    const Addr ln = lineNum(paddr);
    const unsigned set = setIndex(paddr);
    CacheLine *base = lines_.set(set); // first fill touch constructs

    // Refill of a line already present just updates state.
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid() && base[w].ptag == ln) {
            base[w].state = st;
            base[w].replStamp = ++stamp_;
            if (ev)
                *ev = Eviction{};
            return base[w];
        }
    }

    // Prefer an invalid way.
    unsigned way = params_.assoc;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid()) {
            way = w;
            break;
        }
    }

    Eviction local{};
    if (way == params_.assoc) {
        way = 0;
        for (unsigned w = 1; w < params_.assoc; ++w)
            if (base[w].replStamp < base[way].replStamp)
                way = w;
        CacheLine &v = base[way];
        local.valid = true;
        local.ptag = v.ptag;
        local.state = v.state;
        local.dirty = v.dirty;
        local.committed = v.committed;
        ++evictions;
    }
    if (ev)
        *ev = local;

    CacheLine &l = base[way];
    l.clear();
    l.ptag = ln;
    l.state = st;
    l.replStamp = ++stamp_;
    ++fills;
    return l;
}

bool
Cache::invalidate(Addr paddr)
{
    CacheLine *l = peek(paddr);
    if (!l)
        return false;
    l->clear();
    ++invalidations;
    return true;
}

void
Cache::invalidateAll()
{
    lines_.forEachTouchedLine([this](CacheLine &l) {
        if (l.valid()) {
            l.clear();
            ++invalidations;
        }
    });
}

unsigned
Cache::validLineCount() const
{
    unsigned n = 0;
    lines_.forEachTouchedLine([&n](const CacheLine &l) {
        if (l.valid())
            ++n;
    });
    return n;
}

void
Cache::saveState(Serializer &s) const
{
    // Touched sets, sparse, in ascending index order. Lines are
    // trivially-copyable PODs; the format version covers their layout.
    s.u32(lines_.touchedSetCount());
    lines_.forEachTouchedSet([&](unsigned set, const CacheLine *base) {
        s.u32(set);
        s.raw(base, sizeof(CacheLine) * params_.assoc);
    });

    s.u64(stamp_);
    s.vec(mshrFree_);

    // FlatWordMap iteration order is unspecified; sort for a
    // deterministic byte stream.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> fills_vec;
    fills_vec.reserve(inflightFills_.size());
    inflightFills_.forEach([&](std::uint64_t k, std::uint64_t v) {
        fills_vec.emplace_back(k, v);
    });
    std::sort(fills_vec.begin(), fills_vec.end());
    s.u64(fills_vec.size());
    for (const auto &[k, v] : fills_vec) {
        s.u64(k);
        s.u64(v);
    }
}

void
Cache::restoreState(Deserializer &d)
{
    lines_.resetTouched();
    const std::uint32_t touched = d.u32();
    for (std::uint32_t i = 0; i < touched; ++i) {
        const std::uint32_t set = d.u32();
        if (set >= sets_)
            throw SnapshotError("cache set index out of range");
        d.raw(lines_.set(set), sizeof(CacheLine) * params_.assoc);
    }

    stamp_ = d.u64();
    std::vector<Cycle> mshr;
    d.vec(mshr);
    if (mshr.size() != mshrFree_.size())
        throw SnapshotError("MSHR slot count mismatch");
    mshrFree_ = std::move(mshr);

    inflightFills_.clear();
    const std::uint64_t nfills = d.u64();
    for (std::uint64_t i = 0; i < nfills; ++i) {
        const std::uint64_t k = d.u64();
        const std::uint64_t v = d.u64();
        inflightFills_.put(k, v);
    }
}

Cycle
Cache::reserveMshr(Addr paddr, Cycle when, Cycle miss_latency)
{
    const Addr line = lineNum(paddr);

    // Merge with an outstanding fill of the same line: the data arrives
    // with the first fill, no new slot is consumed.
    if (const Cycle *arr = inflightFills_.find(line)) {
        if (*arr > when) {
            ++mshrMerges;
            const Cycle arrival = *arr;
            return arrival > when + miss_latency
                       ? arrival - when - miss_latency
                       : 0;
        }
    }

    // Pick the slot that frees earliest.
    const FirstMin slot = firstMin(
        mshrFree_.data(), static_cast<unsigned>(mshrFree_.size()));
    Cycle delay = 0;
    if (slot.value > when) {
        delay = slot.value - when;
        ++mshrStalls;
    }
    const Cycle arrival = when + delay + miss_latency;
    mshrFree_[slot.index] = arrival;
    inflightFills_.put(line, arrival);

    // Bound the tracking map (timestamps are not globally monotonic —
    // wrong-path issues run "in the past" — so dropping an entry whose
    // arrival has passed *this* access's time is a semantic decision,
    // not just a space one; keep the historical threshold and filter).
    if (inflightFills_.size() > 8 * mshrFree_.size()) {
        inflightFills_.eraseIf(
            [when](std::uint64_t, std::uint64_t arrival) {
                return arrival <= when;
            });
    }
    return delay;
}

} // namespace mtrap
