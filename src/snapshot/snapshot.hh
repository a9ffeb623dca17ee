/**
 * @file
 * Versioned binary System snapshots.
 *
 * Layout (all integers little-endian):
 *
 *   +----------------------------------------------------------+
 *   | magic "MTSN" | u32 endian tag 0x01020304 | u32 version   |
 *   | u64 config fingerprint | u64 context fingerprint         |
 *   +----------------------------------------------------------+
 *   | section: u32 tag | u64 length | payload bytes ...        |  (repeated)
 *   +----------------------------------------------------------+
 *   | u32 kTagEnd | u64 4 | u32 CRC-32 of every preceding byte |
 *   +----------------------------------------------------------+
 *
 * Sections appear in a fixed order (System::save defines it); each
 * stateful component writes its payload through the Serializer visitor
 * and reads it back through the Deserializer. The Deserializer
 * validates magic / endianness / version / fingerprints / CRC before
 * any component sees a byte, and bounds-checks every primitive read
 * against its enclosing section, so hostile or truncated files are
 * rejected with SnapshotError instead of invoking UB.
 *
 * Versioning policy: kFormatVersion bumps on ANY layout change — there
 * is no cross-version migration (snapshots are cheap to regenerate and
 * warm-state is config-coupled anyway). Restoring a snapshot whose
 * version, config fingerprint or context fingerprint differs from the
 * restoring process is an error.
 */

#ifndef MTRAP_SNAPSHOT_SNAPSHOT_HH
#define MTRAP_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mtrap
{

/** Clean rejection of an unreadable / corrupt / mismatched snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &msg)
        : std::runtime_error("snapshot: " + msg)
    {}
};

/** Current snapshot format version; bump on any layout change.
 *  v2: scheduler Task/CoreState gained the open-system fields (service
 *  accounting, arrival/finish stamps, weights, sleep state, busy
 *  cycles).
 *  v3: the memory-system section lost the prefetch commit channel's
 *  (always empty) queue, and the stats section its stat sheet.
 *  v4: the cache section records each line's fields instead of the raw
 *  CacheLine bytes (which became a packed 16-byte layout).
 *  v5: the core's stat sheet gained the taint_delayed counter ahead of
 *  its load-latency words, which move up one slot. */
constexpr std::uint32_t kSnapshotFormatVersion = 5;

/** Section tags, one per top-level component (fixed save order). */
enum SnapshotTag : std::uint32_t {
    kTagEnd = 0,
    kTagMemSystem = 1,
    kTagCore = 2,      // one section per core, in core-id order
    kTagScheduler = 3, // present iff a scheduler is attached
    kTagTracer = 4,    // present iff a tracer is attached
    kTagStats = 5,
    /** Outer frame of an open-system server snapshot: admission count +
     *  the embedded System image (sim/arrival.hh). */
    kTagArrival = 6,
};

/** CRC-32 (IEEE 802.3, reflected) over `n` bytes, seeded by `crc`. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t crc = 0);

/**
 * Byte-building save visitor. Components write primitives; sections
 * group one component's payload and back-patch their length.
 */
class Serializer
{
  public:
    Serializer() = default;

    void u8(std::uint8_t v) { raw(&v, 1); }
    void u16(std::uint16_t v) { raw(&v, 2); }
    void u32(std::uint32_t v) { raw(&v, 4); }
    void u64(std::uint64_t v) { raw(&v, 8); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Length-prefixed vector of any integral element type. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_integral_v<T>, "vec: integral only");
        u64(v.size());
        for (const T &x : v)
            u64(static_cast<std::uint64_t>(
                static_cast<std::make_unsigned_t<T>>(x)));
    }

    /** Length-prefixed vector<bool>. */
    void
    boolVec(const std::vector<bool> &v)
    {
        u64(v.size());
        for (bool x : v)
            u8(x ? 1 : 0);
    }

    /** Length-prefixed deque of an integral element type. */
    template <typename T>
    void
    deq(const std::deque<T> &d)
    {
        static_assert(std::is_integral_v<T>, "deq: integral only");
        u64(d.size());
        for (const T &x : d)
            u64(static_cast<std::uint64_t>(x));
    }

    /** Raw bytes for trivially-copyable PODs (caller owns layout). */
    void
    raw(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    /** Open a TLV section; every begin must be matched by endSection. */
    void beginSection(std::uint32_t tag);
    void endSection();

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> &bytes() { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> open_; // offsets of length fields
};

/**
 * Bounds-checked load visitor over an in-memory snapshot image. The
 * constructor validates framing (magic, endian tag, version,
 * fingerprints, section table, CRC); reads then mirror the Serializer
 * call sequence exactly. Any overrun of the current section or the
 * buffer throws SnapshotError.
 */
class Deserializer
{
  public:
    /**
     * Validate the image. `expect_cfg_fp` / `expect_ctx_fp` must match
     * the header or the constructor throws; pass through the values the
     * restoring System computed for itself.
     */
    Deserializer(std::vector<std::uint8_t> image,
                 std::uint64_t expect_cfg_fp, std::uint64_t expect_ctx_fp);

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    std::string str();

    template <typename T>
    void
    vec(std::vector<T> &out)
    {
        static_assert(std::is_integral_v<T>, "vec: integral only");
        const std::uint64_t n = u64();
        checkCount(n, 8);
        out.clear();
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(static_cast<T>(u64()));
    }

    void
    boolVec(std::vector<bool> &out)
    {
        const std::uint64_t n = u64();
        checkCount(n, 1);
        out.assign(n, false);
        for (std::uint64_t i = 0; i < n; ++i)
            out[i] = u8() != 0;
    }

    template <typename T>
    void
    deq(std::deque<T> &out)
    {
        static_assert(std::is_integral_v<T>, "deq: integral only");
        const std::uint64_t n = u64();
        checkCount(n, 8);
        out.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(static_cast<T>(u64()));
    }

    void raw(void *out, std::size_t n);

    /**
     * Enter the next section, which must carry `tag`; reads are then
     * bounded by its length. endSection verifies the payload was
     * consumed exactly.
     */
    void beginSection(std::uint32_t tag);
    void endSection();

    /** Tag of the next section without consuming it (kTagEnd at end). */
    std::uint32_t peekTag() const;

    std::uint32_t version() const { return version_; }
    std::uint64_t configFingerprint() const { return cfgFp_; }
    std::uint64_t contextFingerprint() const { return ctxFp_; }

    /** Reject a length prefix that could not possibly fit in what
     *  remains of the current section ("oversized element count"). */
    void checkCount(std::uint64_t n, std::size_t elem_bytes) const;

  private:
    void need(std::size_t n) const;

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0; // 0 when not inside a section
    std::size_t bodyEnd_ = 0;    // first byte of the trailer
    std::uint32_t version_ = 0;
    std::uint64_t cfgFp_ = 0;
    std::uint64_t ctxFp_ = 0;
};

/**
 * Frame a finished Serializer body into a complete snapshot image:
 * header (fingerprints), body bytes, CRC trailer.
 */
std::vector<std::uint8_t> frameSnapshot(const Serializer &body,
                                        std::uint64_t cfg_fp,
                                        std::uint64_t ctx_fp);

/** Read a whole file; throws SnapshotError if unreadable. */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path);

/** Write a snapshot image atomically (temp + rename); throws on error. */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &image);

/**
 * Order-sensitive 64-bit fingerprint accumulator: fold values with
 * mix() to build config/context fingerprints. Deterministic across
 * runs and processes.
 */
class Fingerprint
{
  public:
    void mix(std::uint64_t v);
    void mix(const std::string &s);
    void mixDouble(double v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0x6d747261702d736eull; // "mtrap-sn"
};

} // namespace mtrap

#endif // MTRAP_SNAPSHOT_SNAPSHOT_HH
