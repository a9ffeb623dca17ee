#include "mem/memory.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

const char *
accessKindName(AccessKind k)
{
    switch (k) {
      case AccessKind::Load: return "load";
      case AccessKind::Store: return "store";
      case AccessKind::Ifetch: return "ifetch";
      case AccessKind::Ptw: return "ptw";
      case AccessKind::Prefetch: return "prefetch";
    }
    return "?";
}

namespace
{

StatSchema &
memoryStatSchema()
{
    static StatSchema s("memory");
    return s;
}

} // namespace

MainMemory::MainMemory(const MemoryParams &params, StatGroup *parent)
    : params_(params),
      openRow_(params.banks, kAddrInvalid),
      stats_(memoryStatSchema(), "mem", parent),
      reads(&stats_, "reads", "line reads serviced"),
      writes(&stats_, "writes", "line writebacks serviced"),
      rowHits(&stats_, "row_hits", "row-buffer hits"),
      rowMisses(&stats_, "row_misses", "row-buffer misses")
{
    if (params.banks == 0 || !isPow2(params.rowBytes))
        fatal("memory: banks must be nonzero and rowBytes a power of two");
}

unsigned
MainMemory::bankOf(Addr addr) const
{
    return static_cast<unsigned>((addr / params_.rowBytes) % params_.banks);
}

Addr
MainMemory::rowOf(Addr addr) const
{
    return addr / params_.rowBytes;
}

void
MainMemory::write(Addr addr, std::uint64_t value)
{
    const Addr word = addr & ~static_cast<Addr>(7);
    const std::uint64_t ppn = word >> kPageShift;
    Page *page;
    if (const std::uint64_t *found = pageIndex_.find(ppn)) {
        page = reinterpret_cast<Page *>(*found);
    } else {
        page = &pages_.emplace_back();
        pageIndex_.put(ppn, reinterpret_cast<std::uintptr_t>(page));
    }
    Page &p = *page;
    const unsigned off = pageOffset(word);
    const std::size_t rank = p.rank(off);
    if (p.has(off)) {
        p.words[rank] = value;
        return;
    }
    p.words.insert(p.words.begin() + static_cast<std::ptrdiff_t>(rank),
                   value);
    p.written[off / 64] |= std::uint64_t{1} << (off % 64);
    for (unsigned j = off / 64 + 1; j < kPageWords / 64; ++j)
        ++p.before[j];
}

std::size_t
MainMemory::footprintWords() const
{
    std::size_t n = 0;
    for (const Page &p : pages_)
        n += p.words.size();
    return n;
}

void
MainMemory::saveState(Serializer &s) const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
    order.reserve(pages_.size());
    pageIndex_.forEach([&](std::uint64_t ppn, std::uint64_t rec) {
        order.emplace_back(ppn, rec);
    });
    std::sort(order.begin(), order.end());
    s.u64(footprintWords());
    for (const auto &[ppn, rec] : order) {
        const Page &p = *reinterpret_cast<const Page *>(rec);
        std::size_t rank = 0;
        for (unsigned j = 0; j < kPageWords / 64; ++j) {
            for (std::uint64_t bits = p.written[j]; bits;
                 bits &= bits - 1) {
                const unsigned off =
                    64 * j + static_cast<unsigned>(std::countr_zero(bits));
                s.u64((ppn << kPageShift) | (Addr{off} << 3));
                s.u64(p.words[rank++]);
            }
        }
    }
    s.vec(openRow_);
}

void
MainMemory::restoreState(Deserializer &d)
{
    pageIndex_.clear();
    pages_.clear();
    const std::uint64_t n = d.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t k = d.u64();
        const std::uint64_t v = d.u64();
        write(k, v);
    }
    std::vector<Addr> rows;
    d.vec(rows);
    if (rows.size() != openRow_.size())
        throw SnapshotError("memory bank count mismatch");
    openRow_ = std::move(rows);
}

Cycle
MainMemory::access(const Access &acc)
{
    if (acc.isWrite())
        ++writes;
    else
        ++reads;

    const unsigned bank = bankOf(acc.paddr);
    const Addr row = rowOf(acc.paddr);
    Cycle lat;
    if (openRow_[bank] == row) {
        ++rowHits;
        lat = params_.rowHitLatency;
    } else {
        ++rowMisses;
        lat = params_.rowMissLatency;
        openRow_[bank] = row;
    }
    return lat;
}

} // namespace mtrap
