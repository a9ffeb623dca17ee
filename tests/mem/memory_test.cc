/**
 * @file
 * Unit tests for the main-memory model: functional store semantics and
 * the row-buffer timing model.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "mem/memory.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{
namespace
{

TEST(Memory, UnwrittenReadsDeterministicNonzeroHash)
{
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    const std::uint64_t v1 = m.read(0x1000);
    const std::uint64_t v2 = m.read(0x1000);
    EXPECT_EQ(v1, v2);
    EXPECT_NE(v1, 0u);
    EXPECT_NE(m.read(0x1000), m.read(0x1008));
}

TEST(Memory, WriteThenRead)
{
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    m.write(0x2000, 42);
    EXPECT_EQ(m.read(0x2000), 42u);
    EXPECT_EQ(m.footprintWords(), 1u);
}

TEST(Memory, WordGranularity)
{
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    m.write(0x2004, 7); // unaligned address maps to its word
    EXPECT_EQ(m.read(0x2000), 7u);
    EXPECT_EQ(m.read(0x2007), 7u);
}

/** Little-endian bytes of a sequence of 64-bit words: the layout the
 *  Serializer writes on the little-endian hosts the simulator targets. */
std::vector<std::uint8_t>
wordBytes(const std::vector<std::uint64_t> &words)
{
    std::vector<std::uint8_t> out;
    for (std::uint64_t w : words)
        for (unsigned i = 0; i < 8; ++i)
            out.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    return out;
}

std::vector<std::uint8_t>
saveBytes(const MainMemory &m)
{
    Serializer s;
    m.saveState(s);
    return s.bytes();
}

/** A fixed write set: out-of-order writes within one page, page
 *  offsets 0 and 511, a page boundary between mask words (offsets 63
 *  and 64), an overwrite, and a second page below the first holding a
 *  single word. Also opens one DRAM row. */
void
writeFixedSet(MainMemory &m)
{
    m.write(0x7028, 0xa5);     // page 7, offset 5
    m.write(0x7ff8, 0xb511);   // page 7, offset 511
    m.write(0x7000, 0xc000);   // page 7, offset 0
    m.write(0x7200, 0xd064);   // page 7, offset 64
    m.write(0x71f8, 0xe063);   // page 7, offset 63
    m.write(0x3320, 0xf100);   // page 3, offset 100 (only word)
    m.write(0x702c, 0xa55);    // overwrites offset 5 (unaligned)
    Access a;
    a.paddr = 0x10000;         // bank 8, row 8
    m.access(a);
}

TEST(Memory, SaveStateBytesArePinned)
{
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    writeFixedSet(m);
    EXPECT_EQ(m.footprintWords(), 6u) << "an overwrite is not a new word";

    // Word count, then (address, value) pairs in address order, then
    // the per-bank open rows (16 banks, only bank 8 open).
    std::vector<std::uint64_t> expect = {
        6,
        0x3320, 0xf100,
        0x7000, 0xc000,
        0x7028, 0xa55,
        0x71f8, 0xe063,
        0x7200, 0xd064,
        0x7ff8, 0xb511,
        16};
    for (unsigned bank = 0; bank < 16; ++bank)
        expect.push_back(bank == 8 ? 8 : kAddrInvalid);
    EXPECT_EQ(saveBytes(m), wordBytes(expect));
}

TEST(Memory, SaveRestoreSaveIsByteIdentical)
{
    StatGroup g("g");
    MainMemory a(MemoryParams{}, &g);
    writeFixedSet(a);
    const std::vector<std::uint8_t> first = saveBytes(a);

    Serializer s;
    s.beginSection(1);
    a.saveState(s);
    s.endSection();
    MainMemory b(MemoryParams{}, &g);
    b.write(0x9000, 1); // dropped by the restore
    Deserializer d(frameSnapshot(s, 1, 2), 1, 2);
    d.beginSection(1);
    b.restoreState(d);
    d.endSection();

    EXPECT_EQ(saveBytes(b), first);
    EXPECT_EQ(b.footprintWords(), 6u);
    EXPECT_EQ(b.read(0x7028), 0xa55u);
    EXPECT_EQ(b.read(0x3320), 0xf100u);
    EXPECT_EQ(b.read(0x9000), mix64(0x9000));
}

TEST(Memory, UnwrittenWordInWrittenPageReadsPseudoContents)
{
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    writeFixedSet(m);
    for (Addr a : {Addr{0x7008}, Addr{0x7030}, Addr{0x7ff0},
                   Addr{0x7208}, Addr{0x3318}, Addr{0x3328}})
        EXPECT_EQ(m.read(a), mix64(a)) << std::hex << a;
    EXPECT_EQ(m.read(0x7ffd), 0xb511u);
    EXPECT_EQ(m.read(0x71ff), 0xe063u);
}

TEST(Memory, RandomWritesMatchAWordMap)
{
    // Dense and sparse pages, random order, many overwrites: every
    // read, the footprint and the checkpoint order must match a plain
    // ordered word map.
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    std::map<Addr, std::uint64_t> ref;
    Rng rng(12345);
    for (unsigned i = 0; i < 20000; ++i) {
        const Addr page = rng.below(6) * 0x1000 + (i % 7 == 0 ? 0x400000
                                                              : 0);
        const Addr word = page + rng.below(512) * 8;
        const std::uint64_t v = rng.next();
        m.write(word + rng.below(8), v);
        ref[word] = v;
        const Addr probe = page + rng.below(512) * 8;
        const auto it = ref.find(probe);
        ASSERT_EQ(m.read(probe), it == ref.end() ? mix64(probe)
                                                  : it->second)
            << "write " << i;
    }
    EXPECT_EQ(m.footprintWords(), ref.size());
    std::vector<std::uint64_t> expect = {ref.size()};
    for (const auto &[k, v] : ref) {
        expect.push_back(k);
        expect.push_back(v);
    }
    expect.push_back(16);
    for (unsigned bank = 0; bank < 16; ++bank)
        expect.push_back(kAddrInvalid);
    EXPECT_EQ(saveBytes(m), wordBytes(expect));
}

TEST(Memory, RowBufferHitFasterThanMiss)
{
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    Access a;
    a.paddr = 0x10000;
    const Cycle first = m.access(a);   // row miss
    const Cycle second = m.access(a);  // row hit
    EXPECT_GT(first, second);
    EXPECT_EQ(m.rowMisses.value(), 1u);
    EXPECT_EQ(m.rowHits.value(), 1u);
}

TEST(Memory, DifferentRowsConflict)
{
    StatGroup g("g");
    MemoryParams p;
    MainMemory m(p, &g);
    Access a, b;
    a.paddr = 0x10000;
    // Same bank, different row: banks stride by rowBytes.
    b.paddr = 0x10000 + p.rowBytes * p.banks;
    m.access(a);
    const Cycle t = m.access(b);
    EXPECT_EQ(t, p.rowMissLatency);
}

TEST(Memory, IndependentBanksBothOpen)
{
    StatGroup g("g");
    MemoryParams p;
    MainMemory m(p, &g);
    Access a, b;
    a.paddr = 0;
    b.paddr = p.rowBytes; // next bank
    m.access(a);
    m.access(b);
    EXPECT_EQ(m.access(a), p.rowHitLatency);
    EXPECT_EQ(m.access(b), p.rowHitLatency);
}

TEST(Memory, WritesCounted)
{
    StatGroup g("g");
    MainMemory m(MemoryParams{}, &g);
    Access a;
    a.paddr = 0x100;
    a.kind = AccessKind::Store;
    m.access(a);
    EXPECT_EQ(m.writes.value(), 1u);
    EXPECT_EQ(m.reads.value(), 0u);
}

TEST(Memory, AccessKindNames)
{
    EXPECT_STREQ(accessKindName(AccessKind::Load), "load");
    EXPECT_STREQ(accessKindName(AccessKind::Prefetch), "prefetch");
}

} // namespace
} // namespace mtrap
