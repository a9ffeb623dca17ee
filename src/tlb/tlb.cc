#include "tlb/tlb.hh"

#include "common/log.hh"
#include "common/rng.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

namespace
{

StatSchema &
tlbStatSchema()
{
    static StatSchema s("tlb");
    return s;
}

} // namespace

AddressSpace::AddressSpace() = default;

std::uint64_t
AddressSpace::key(Asid asid, Addr vpn)
{
    return (static_cast<std::uint64_t>(asid) << 40) ^ vpn;
}

Addr
AddressSpace::translate(Asid asid, Addr vaddr) const
{
    const Addr vpn = pageNum(vaddr);
    const std::uint64_t k = key(asid, vpn);
    if (k == mruKey_)
        return (mruPpn_ << kPageShift) | (vaddr & (kPageBytes - 1));

    Addr ppn;
    // Most workloads install no aliases at all; skip the hash probe
    // (this sits under every functional load and every page walk).
    auto it = aliases_.empty() ? aliases_.end() : aliases_.find(k);
    if (it != aliases_.end()) {
        ppn = it->second;
    } else {
        // Deterministic private page in a 38-bit physical space, away
        // from the page-table region (which has bit 45 set).
        ppn = mix64(k) & ((1ull << 26) - 1);
        ppn |= static_cast<Addr>(asid & 0xff) << 26;
    }
    mruKey_ = k;
    mruPpn_ = ppn;
    return (ppn << kPageShift) | (vaddr & (kPageBytes - 1));
}

void
AddressSpace::alias(Asid asid, Addr vaddr, Addr paddr, std::uint64_t bytes)
{
    if ((vaddr & (kPageBytes - 1)) || (paddr & (kPageBytes - 1)))
        fatal("alias: vaddr/paddr must be page aligned");
    const std::uint64_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    for (std::uint64_t p = 0; p < pages; ++p)
        aliases_[key(asid, pageNum(vaddr) + p)] = pageNum(paddr) + p;
    // The cached translation may be superseded by the new mapping.
    mruKey_ = ~std::uint64_t{0};
    mruPpn_ = kAddrInvalid;
}

Addr
AddressSpace::pteAddr(Asid asid, Addr vaddr, unsigned level) const
{
    if (level >= kWalkLevels)
        panic("pteAddr: level %u out of range", level);
    // 9 bits of VPN per level, root (level 0) uses the top bits.
    const Addr vpn = pageNum(vaddr);
    const unsigned shift = 9 * (kWalkLevels - 1 - level);
    const Addr index = (vpn >> shift) & 0x1ff;
    // Each (asid, level, upper-bits) group gets its own table page.
    const Addr table_id = mix64(key(asid, (vpn >> (shift + 9)) + 1)
                              ^ (static_cast<std::uint64_t>(level) << 56))
                          & ((1ull << 24) - 1);
    return (1ull << 45) | (table_id << kPageShift) | (index * 8);
}

Tlb::Tlb(const TlbParams &params, StatGroup *parent)
    : params_(params), entries_(params.entries),
      allFreeMask_(params.entries >= 64
                       ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << params.entries) - 1),
      freeMask_(params.entries > 64 ? 0 : allFreeMask_),
      stats_(tlbStatSchema(), params.name, parent),
      hits(&stats_, "hits", "translation hits"),
      misses(&stats_, "misses", "translation misses"),
      insertions(&stats_, "insertions", "entries installed"),
      evictions(&stats_, "evictions", "valid entries evicted"),
      flushes(&stats_, "flushes", "full flushes")
{
    if (params.entries == 0)
        fatal("tlb %s: zero entries", params.name.c_str());
}

const TlbEntry *
Tlb::lookupSlow(Asid asid, Addr vpn)
{
    for (auto &e : entries_) {
        if (e.valid && e.asid == asid && e.vpn == vpn) {
            e.lastUse = ++stamp_;
            ++hits;
            mru_ = &e;
            return &e;
        }
    }
    ++misses;
    return nullptr;
}

bool
Tlb::installAt(TlbEntry *victim, bool evicted, Asid asid, Addr vpn,
               Addr paddr)
{
    if (evicted)
        ++evictions;
    else if (trackFree())
        freeMask_ &= ~(std::uint64_t{1}
                       << static_cast<unsigned>(victim - entries_.data()));
    victim->valid = true;
    victim->asid = asid;
    victim->vpn = vpn;
    victim->ppn = pageNum(paddr);
    victim->lastUse = ++stamp_;
    ++insertions;
    return evicted;
}

bool
Tlb::insert(Asid asid, Addr vaddr, Addr paddr)
{
    const Addr vpn = pageNum(vaddr);
    // MRU shortcut: commit-time promotions overwhelmingly refresh the
    // translation the last lookup hit; same updates as the scan's
    // refresh arm below.
    if (mru_ && mru_->valid && mru_->asid == asid && mru_->vpn == vpn) {
        mru_->ppn = pageNum(paddr);
        mru_->lastUse = ++stamp_;
        return false;
    }
    // One pass: refresh if present, else remember the first invalid
    // slot and the LRU entry (same victim the two-pass version chose).
    TlbEntry *first_invalid = nullptr;
    TlbEntry *lru = &entries_[0];
    for (auto &e : entries_) {
        if (e.valid && e.asid == asid && e.vpn == vpn) {
            e.ppn = pageNum(paddr);
            e.lastUse = ++stamp_;
            return false;
        }
        if (!e.valid && !first_invalid)
            first_invalid = &e;
        if (e.lastUse < lru->lastUse)
            lru = &e;
    }
    if (first_invalid)
        return installAt(first_invalid, false, asid, vpn, paddr);
    return installAt(lru, true, asid, vpn, paddr);
}

bool
Tlb::insertAbsent(Asid asid, Addr vaddr, Addr paddr)
{
    const Addr vpn = pageNum(vaddr);
    if (trackFree()) {
        if (freeMask_) {
            // Lowest free index == the fused scan's first-invalid slot.
            TlbEntry *victim =
                &entries_[static_cast<unsigned>(
                    __builtin_ctzll(freeMask_))];
            return installAt(victim, false, asid, vpn, paddr);
        }
        // Full: same first-minimum LRU scan as insert().
        TlbEntry *lru = &entries_[0];
        for (auto &e : entries_)
            if (e.lastUse < lru->lastUse)
                lru = &e;
        return installAt(lru, true, asid, vpn, paddr);
    }
    // Oversized TLB (no free mask): fall back to the full protocol.
    return insert(asid, vaddr, paddr);
}

bool
Tlb::invalidate(Asid asid, Addr vaddr)
{
    const Addr vpn = pageNum(vaddr);
    for (auto &e : entries_) {
        if (e.valid && e.asid == asid && e.vpn == vpn) {
            e.valid = false;
            if (trackFree())
                freeMask_ |=
                    std::uint64_t{1}
                    << static_cast<unsigned>(&e - entries_.data());
            return true;
        }
    }
    return false;
}

void
Tlb::flush()
{
    for (auto &e : entries_)
        e.valid = false;
    freeMask_ = params_.entries > 64 ? 0 : allFreeMask_;
    ++flushes;
}

void
Tlb::saveState(Serializer &s) const
{
    s.u64(entries_.size());
    for (const TlbEntry &e : entries_) {
        s.u32(e.asid);
        s.u64(e.vpn);
        s.u64(e.ppn);
        s.u64(e.lastUse);
        s.b(e.valid);
    }
    s.u64(freeMask_);
    s.u64(stamp_);
}

void
Tlb::restoreState(Deserializer &d)
{
    if (d.u64() != entries_.size())
        throw SnapshotError("TLB entry count mismatch");
    for (TlbEntry &e : entries_) {
        e.asid = d.u32();
        e.vpn = d.u64();
        e.ppn = d.u64();
        e.lastUse = d.u64();
        e.valid = d.b();
    }
    freeMask_ = d.u64();
    stamp_ = d.u64();
    mru_ = nullptr;
}

unsigned
Tlb::validCount() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        if (e.valid)
            ++n;
    return n;
}

} // namespace mtrap
