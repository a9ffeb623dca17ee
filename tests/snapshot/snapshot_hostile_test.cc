/**
 * @file
 * Hostile-snapshot suite: every malformed, truncated or mismatched
 * image must be rejected with SnapshotError before any component state
 * mutates — no UB, no partial restores, no trust in on-disk bytes.
 * Component-level cases forge single fields (a cache line's stamp or
 * flag byte, a BTB entry) that the framing cannot catch.
 * CI runs this under ASan/UBSan, so an out-of-bounds read provoked by
 * a crafted length field fails the build even if the clean-rejection
 * assertion would have passed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cpu/branch_predictor.hh"
#include "sim/json_stats.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

constexpr std::uint64_t kCtx = 11;
/** magic 4 + endian 4 + version 4 + cfg fp 8 + ctx fp 8. */
constexpr std::size_t kHeaderBytes = 28;

SystemConfig
testConfig()
{
    return SystemConfig::forScheme(Scheme::MuonTrap, 1);
}

/** Shared workload: loadWorkload keeps pointers into it, so it must
 *  outlive every System in the suite. */
const Workload &
testWorkload()
{
    static const Workload w = buildSpecWorkload("gcc");
    return w;
}

/** A small but fully-populated image (caches, filters, window state). */
std::vector<std::uint8_t>
makeImage()
{
    System sys(testConfig());
    sys.loadWorkload(testWorkload());
    sys.run(1'500);
    return sys.saveSnapshot(kCtx);
}

/** Fresh restore target with the workload replayed, as restore
 *  requires. */
std::unique_ptr<System>
makeTarget()
{
    auto sys = std::make_unique<System>(testConfig());
    sys->loadWorkload(testWorkload());
    return sys;
}

/** Patch `n` little-endian bytes at `off` and re-seal the CRC so the
 *  mutation exercises the *semantic* check, not just the checksum. */
void
patchAndReseal(std::vector<std::uint8_t> &img, std::size_t off,
               std::uint64_t value, std::size_t n)
{
    ASSERT_LE(off + n, img.size());
    for (std::size_t i = 0; i < n; ++i)
        img[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
    // Trailer = u32 kTagEnd | u64 4 | u32 CRC over all preceding bytes.
    const std::size_t crc_off = img.size() - 4;
    const std::uint32_t crc = crc32(img.data(), img.size() - 16);
    for (std::size_t i = 0; i < 4; ++i)
        img[crc_off + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

void
expectRejected(const std::vector<std::uint8_t> &img,
               const std::string &what)
{
    auto target = makeTarget();
    std::vector<std::uint8_t> copy = img;
    EXPECT_THROW(target->restoreSnapshot(std::move(copy), kCtx),
                 SnapshotError)
        << what;
}

TEST(SnapshotHostile, TruncatedImagesRejected)
{
    const std::vector<std::uint8_t> img = makeImage();
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{27},
          kHeaderBytes, img.size() / 2, img.size() - 1}) {
        std::vector<std::uint8_t> cut(img.begin(),
                                      img.begin()
                                          + static_cast<long>(keep));
        expectRejected(cut, "truncated to " + std::to_string(keep));
    }
}

TEST(SnapshotHostile, FlippedMagicRejected)
{
    std::vector<std::uint8_t> img = makeImage();
    img[0] ^= 0xff;
    expectRejected(img, "flipped magic");
}

TEST(SnapshotHostile, WrongEndianTagRejected)
{
    std::vector<std::uint8_t> img = makeImage();
    patchAndReseal(img, 4, 0x04030201u, 4);
    expectRejected(img, "byte-swapped endian tag");
}

TEST(SnapshotHostile, WrongFormatVersionRejected)
{
    std::vector<std::uint8_t> img = makeImage();
    patchAndReseal(img, 8, kSnapshotFormatVersion + 1, 4);
    expectRejected(img, "future format version");
}

TEST(SnapshotHostile, WrongConfigFingerprintRejected)
{
    // Genuine mismatch: image saved under MuonTrap, restored into a
    // Baseline machine (valid CRC, valid framing — wrong machine).
    const std::vector<std::uint8_t> img = makeImage();
    auto other = std::make_unique<System>(
        SystemConfig::forScheme(Scheme::Baseline, 1));
    other->loadWorkload(testWorkload());
    std::vector<std::uint8_t> copy = img;
    EXPECT_THROW(other->restoreSnapshot(std::move(copy), kCtx),
                 SnapshotError);

    // And a forged header fingerprint is caught too.
    std::vector<std::uint8_t> forged = img;
    patchAndReseal(forged, 12, 0xdeadbeefcafef00dull, 8);
    expectRejected(forged, "forged config fingerprint");
}

TEST(SnapshotHostile, WrongContextFingerprintRejected)
{
    const std::vector<std::uint8_t> img = makeImage();
    auto target = makeTarget();
    std::vector<std::uint8_t> copy = img;
    EXPECT_THROW(target->restoreSnapshot(std::move(copy), kCtx + 1),
                 SnapshotError);
}

TEST(SnapshotHostile, CorruptBodyFailsCrc)
{
    std::vector<std::uint8_t> img = makeImage();
    img[img.size() / 2] ^= 0x40; // body bit-flip, CRC left stale
    expectRejected(img, "body bit-flip");
}

TEST(SnapshotHostile, OversizedSectionLengthRejected)
{
    // First section header sits right after the file header:
    // u32 tag at 28, u64 length at 32. Claim a payload far beyond the
    // file, CRC re-sealed so only the section-table bound check can
    // catch it.
    std::vector<std::uint8_t> img = makeImage();
    patchAndReseal(img, kHeaderBytes + 4, 0x7fff'ffff'ffff'ffffull, 8);
    expectRejected(img, "oversized section length");

    // Same with a length that overflows pos + len arithmetic.
    std::vector<std::uint8_t> wrap = makeImage();
    patchAndReseal(wrap, kHeaderBytes + 4, 0xffff'ffff'ffff'fff0ull, 8);
    expectRejected(wrap, "wrapping section length");
}

TEST(SnapshotHostile, OversizedElementCountRejected)
{
    // A structurally-valid image whose payload claims a vector of 2^60
    // elements: the framing all checks out, so this exercises the
    // per-read checkCount bound inside component restores.
    Serializer s;
    s.beginSection(kTagMemSystem);
    s.u64(1ull << 60);
    s.endSection();
    const std::vector<std::uint8_t> img = frameSnapshot(s, 1, 2);

    Deserializer d(img, 1, 2);
    d.beginSection(kTagMemSystem);
    std::vector<std::uint64_t> sink;
    EXPECT_THROW(d.vec(sink), SnapshotError);
}

TEST(SnapshotHostile, ImplausibleOccupancyRejected)
{
    // Valid framing, correct fingerprints, resealed CRC — but a
    // length prefix deep inside the first core section (the arch
    // context's call-stack count) claims 2^62 entries. The restore
    // must throw via checkCount, never attempt the resize.
    std::vector<std::uint8_t> img = makeImage();

    auto rd32 = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, img.data() + at, 4);
        return v;
    };
    auto rd64 = [&](std::size_t at) {
        std::uint64_t v = 0;
        std::memcpy(&v, img.data() + at, 8);
        return v;
    };
    std::size_t pos = kHeaderBytes;
    ASSERT_EQ(rd32(pos), kTagMemSystem);
    pos += 12 + rd64(pos + 4); // skip to the first core section
    ASSERT_EQ(rd32(pos), kTagCore);

    // Core payload layout opens with the arch context: u32 asid,
    // u64 pc, kNumRegs u64 registers, then the call-stack's u64
    // length prefix — the field we inflate.
    const std::size_t stack_len_off =
        pos + 12 + 4 + 8 + std::size_t{kNumRegs} * 8;
    patchAndReseal(img, stack_len_off, 1ull << 62, 8);
    expectRejected(img, "implausible call-stack length");

    // A pristine image still restores into a fresh target (nothing
    // above depended on mutating shared state).
    auto clean = makeTarget();
    std::vector<std::uint8_t> ok = makeImage();
    EXPECT_NO_THROW(clean->restoreSnapshot(std::move(ok), kCtx));
}

/** Restore one component from `payload` (its saveState bytes) inside
 *  a framed, CRC-valid image, so only the component's own checks can
 *  reject it. */
template <typename Component>
void
restorePayload(Component &c, const std::vector<std::uint8_t> &payload)
{
    Serializer s;
    s.beginSection(1);
    s.raw(payload.data(), payload.size());
    s.endSection();
    Deserializer d(frameSnapshot(s, 1, 2), 1, 2);
    d.beginSection(1);
    c.restoreState(d);
    d.endSection();
}

template <typename Component>
std::vector<std::uint8_t>
payloadOf(const Component &c)
{
    Serializer s;
    c.saveState(s);
    return s.bytes();
}

void
patchLe(std::vector<std::uint8_t> &bytes, std::size_t off,
        std::uint64_t value, std::size_t n)
{
    ASSERT_LE(off + n, bytes.size());
    for (std::size_t i = 0; i < n; ++i)
        bytes[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

CacheParams
twoWayCache()
{
    CacheParams p;
    p.name = "hostile";
    p.sizeBytes = 1024;
    p.assoc = 2;
    p.mshrs = 2;
    return p;
}

/** Payload of a 2-way cache with one touched set: u32 count, u32 set,
 *  then two 22-byte lines (u64 tag, u64 stamp, six u8 fields), then the
 *  u64 LRU clock. */
constexpr std::size_t kLine0 = 8;
constexpr std::size_t kLineStamp = kLine0 + 8;
constexpr std::size_t kLineSmallFields = kLine0 + 16;
constexpr std::size_t kCacheClock = kLine0 + 2 * 22;

std::vector<std::uint8_t>
oneSetCachePayload()
{
    StatGroup g("g");
    Cache c(twoWayCache(), &g);
    c.fill(0x0040, CoherState::Shared);
    return payloadOf(c);
}

void
expectCacheRejects(const std::vector<std::uint8_t> &payload,
                   const std::string &what)
{
    StatGroup g("g");
    Cache c(twoWayCache(), &g);
    EXPECT_THROW(restorePayload(c, payload), SnapshotError) << what;
}

TEST(SnapshotHostile, ForgedLineStampRejected)
{
    std::vector<std::uint8_t> p = oneSetCachePayload();
    patchLe(p, kLineStamp, CacheLine::kStampLimit, 8);
    expectCacheRejects(p, "line stamp of 2^48");
    patchLe(p, kLineStamp, ~std::uint64_t{0}, 8);
    expectCacheRejects(p, "line stamp of 2^64 - 1");

    patchLe(p, kLineStamp, CacheLine::kStampLimit - 1, 8);
    StatGroup g("g");
    Cache c(twoWayCache(), &g);
    restorePayload(c, p);
    EXPECT_EQ(c.peek(0x0040)->replStamp, CacheLine::kStampLimit - 1);

    std::vector<std::uint8_t> clock = oneSetCachePayload();
    patchLe(clock, kCacheClock, CacheLine::kStampLimit, 8);
    expectCacheRejects(clock, "LRU clock of 2^48");
}

TEST(SnapshotHostile, EveryLineFieldByteIsValidOrRejected)
{
    // Each of a line's six one-byte fields (state, committed,
    // sePending, dirty, fillLevel, prefetched) takes all 256 values:
    // a value restores only if the line holds it exactly (the re-saved
    // byte is the same), and everything else is a SnapshotError, never
    // a truncated bit-field or an invalid bool.
    const std::vector<std::uint8_t> clean = oneSetCachePayload();
    const unsigned expect_accepted[6] = {4, 2, 2, 2, 4, 2};
    for (unsigned field = 0; field < 6; ++field) {
        const std::size_t off = kLineSmallFields + field;
        unsigned accepted = 0;
        for (unsigned v = 0; v < 256; ++v) {
            std::vector<std::uint8_t> p = clean;
            p[off] = static_cast<std::uint8_t>(v);
            StatGroup g("g");
            Cache c(twoWayCache(), &g);
            try {
                restorePayload(c, p);
            } catch (const SnapshotError &) {
                continue;
            }
            ++accepted;
            EXPECT_EQ(payloadOf(c), p) << "field " << field << " = " << v;
        }
        EXPECT_EQ(accepted, expect_accepted[field]) << "field " << field;
    }
}

TEST(SnapshotHostile, BtbEntryWiderThan32BitsRejected)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    bp.trainTarget(0x5a5a5, 0x3c3c3);
    const std::vector<std::uint8_t> clean = payloadOf(bp);
    std::vector<std::uint8_t> entry;
    for (std::uint64_t w : {std::uint64_t{0x5a5a5}, std::uint64_t{0x3c3c3}})
        for (unsigned i = 0; i < 8; ++i)
            entry.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    const auto at = std::search(clean.begin(), clean.end(), entry.begin(),
                                entry.end());
    ASSERT_NE(at, clean.end());
    const std::size_t pc_off = static_cast<std::size_t>(at - clean.begin());

    for (const std::size_t off : {pc_off, pc_off + 8}) {
        for (const std::uint64_t bad :
             {std::uint64_t{1} << 32, std::uint64_t{0xffff'ffff},
              kAddrInvalid - 1}) {
            std::vector<std::uint8_t> p = clean;
            patchLe(p, off, bad, 8);
            StatGroup tg("t");
            BranchPredictor target(BranchPredictorParams{}, &tg);
            EXPECT_THROW(restorePayload(target, p), SnapshotError)
                << (off == pc_off ? "pc " : "target ") << bad;
        }
    }

    // An entry with a pc but an empty target cannot be trained.
    std::vector<std::uint8_t> half = clean;
    patchLe(half, pc_off + 8, kAddrInvalid, 8);
    StatGroup hg("h");
    BranchPredictor half_bp(BranchPredictorParams{}, &hg);
    EXPECT_THROW(restorePayload(half_bp, half), SnapshotError);

    // kAddrInvalid is an empty field, not a forged one.
    std::vector<std::uint8_t> p = clean;
    patchLe(p, pc_off, kAddrInvalid, 8);
    StatGroup tg("t");
    BranchPredictor target(BranchPredictorParams{}, &tg);
    restorePayload(target, p);
    EXPECT_EQ(target.predictTarget(0x5a5a5), kAddrInvalid);
    EXPECT_EQ(payloadOf(target), p);
}

} // namespace
} // namespace mtrap
