#include "muontrap/filter_cache.hh"

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

namespace
{

StatSchema &
filterStatSchema()
{
    static StatSchema s("filter_cache");
    return s;
}

} // namespace

FilterCache::FilterCache(const CacheParams &params, StatGroup *parent)
    : Cache(params, parent),
      validBit_(lines_.size(), false),
      vtags_(lines_.size()),
      fstats_(filterStatSchema(), params.name.withSuffix("_filter"),
              parent),
      flashClears(&fstats_, "flash_clears",
                  "single-cycle whole-cache invalidations"),
      aliasOverwrites(&fstats_, "alias_overwrites",
                      "fills displacing a virtual alias of the same "
                      "physical line"),
      speculativeFills(&fstats_, "speculative_fills",
                       "fills with the committed bit clear"),
      committedFills(&fstats_, "committed_fills",
                     "fills by non-speculative instructions"),
      uncommittedEvictions(&fstats_, "uncommitted_evictions",
                           "speculative lines evicted before commit")
{
}

unsigned
FilterCache::wayOf(const CacheLine *l) const
{
    return static_cast<unsigned>(l - lines_.data());
}

CacheLine *
FilterCache::lookupVirt(Asid asid, Addr vaddr, Addr paddr)
{
    // The set index uses the physical/virtual shared low bits: with a
    // 2KiB 4-way cache the index bits sit entirely inside the page
    // offset, so virtual and physical indexing agree (§4.4).
    CacheLine *l = Cache::lookup(paddr);
    if (!l)
        return nullptr;
    const unsigned way = wayOf(l);
    if (!validBit_[way]) {
        // SRAM content survives a flash clear but must be invisible.
        return nullptr;
    }
    if (vtags_[way].vtag != lineNum(vaddr) || vtags_[way].asid != asid) {
        // Physical hit through a different virtual alias or another
        // address space: treated as a miss on the CPU side; the fill
        // path will overwrite it (physical addressing on fill).
        return nullptr;
    }
    return l;
}

CacheLine &
FilterCache::fillVirt(Asid asid, Addr vaddr, Addr paddr, bool speculative,
                      std::uint8_t fill_level, bool se_pending,
                      Eviction *ev)
{
    // Detect an alias about to be displaced (same physical line under a
    // different virtual tag) for accounting.
    if (CacheLine *prev = Cache::peek(paddr)) {
        const unsigned way = wayOf(prev);
        if (validBit_[way] && (vtags_[way].vtag != lineNum(vaddr) ||
                               vtags_[way].asid != asid))
            ++aliasOverwrites;
    }

    Eviction local{};
    CacheLine &l = Cache::fill(paddr, CoherState::Shared, &local);
    // A victim that was still uncommitted vanished before its data could
    // be written through (paper §4.10 "Contention": it will simply be
    // re-fetched if the instruction commits).
    if (local.valid && !local.committed)
        ++uncommittedEvictions;
    if (ev)
        *ev = local;

    const unsigned way = wayOf(&l);
    vtags_[way].vtag = lineNum(vaddr);
    vtags_[way].asid = asid;
    l.committed = !speculative;
    l.sePending = se_pending;
    l.fillLevel = fill_level;
    l.dirty = false;            // write-through: never dirty
    validBit_[way] = true;

    if (speculative)
        ++speculativeFills;
    else
        ++committedFills;
    return l;
}

void
FilterCache::flashClear()
{
    // Constant-time: one pass clearing register bits, independent of how
    // many lines are valid. We also scrub the line metadata so the
    // physical-side peek path cannot see stale lines.
    for (std::size_t i = 0; i < validBit_.size(); ++i) {
        if (validBit_[i]) {
            ++invalidations;
            lines_[i].clear();
        }
        validBit_[i] = false;
    }
    ++flashClears;
}

bool
FilterCache::invalidate(Addr paddr)
{
    CacheLine *l = Cache::peek(paddr);
    if (!l || !validBit_[wayOf(l)])
        return false;
    validBit_[wayOf(l)] = false;
    l->clear();
    ++invalidations;
    return true;
}

bool
FilterCache::presentValid(Addr paddr)
{
    CacheLine *l = Cache::peek(paddr);
    return l && validBit_[wayOf(l)];
}

void
FilterCache::saveState(Serializer &s) const
{
    Cache::saveState(s);
    s.boolVec(validBit_);
    s.u64(vtags_.size());
    for (const VirtTag &t : vtags_) {
        s.u64(t.vtag);
        s.u32(t.asid);
    }
}

void
FilterCache::restoreState(Deserializer &d)
{
    Cache::restoreState(d);
    std::vector<bool> valid;
    d.boolVec(valid);
    if (valid.size() != validBit_.size())
        throw SnapshotError("filter-cache valid-bit count mismatch");
    validBit_ = std::move(valid);
    const std::uint64_t n = d.u64();
    if (n != vtags_.size())
        throw SnapshotError("filter-cache vtag count mismatch");
    for (VirtTag &t : vtags_) {
        t.vtag = d.u64();
        t.asid = d.u32();
    }
}

} // namespace mtrap
