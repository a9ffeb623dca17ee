#include "snapshot/snapshot.hh"

#include <algorithm>
#include <array>
#include <fstream>

#include "common/checked_io.hh"
#include "common/rng.hh"

namespace mtrap
{

namespace
{

constexpr std::array<char, 4> kMagic = {'M', 'T', 'S', 'N'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8;
constexpr std::size_t kTrailerBytes = 4 + 8 + 4;

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

/** Little-endian store/load helpers (layout is explicit, not host). */
void
storeLe(std::uint8_t *p, std::uint64_t v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
loadLe(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t crc)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return ~crc;
}

// --- Serializer ---------------------------------------------------------

void
Serializer::beginSection(std::uint32_t tag)
{
    u32(tag);
    open_.push_back(buf_.size());
    u64(0); // length placeholder, patched by endSection
}

void
Serializer::endSection()
{
    const std::size_t at = open_.back();
    open_.pop_back();
    const std::uint64_t len = buf_.size() - (at + 8);
    storeLe(buf_.data() + at, len, 8);
}

// --- Deserializer -------------------------------------------------------

Deserializer::Deserializer(std::vector<std::uint8_t> image,
                           std::uint64_t expect_cfg_fp,
                           std::uint64_t expect_ctx_fp)
    : buf_(std::move(image))
{
    if (buf_.size() < kHeaderBytes + kTrailerBytes)
        throw SnapshotError("file truncated (smaller than header"
                            " + trailer)");
    if (std::memcmp(buf_.data(), kMagic.data(), 4) != 0)
        throw SnapshotError("bad magic (not a MuonTrap snapshot)");
    if (loadLe(buf_.data() + 4, 4) != kEndianTag)
        throw SnapshotError("endianness mismatch");
    version_ = static_cast<std::uint32_t>(loadLe(buf_.data() + 8, 4));
    if (version_ != kSnapshotFormatVersion)
        throw SnapshotError(
            "format version " + std::to_string(version_)
            + " unsupported (this build reads version "
            + std::to_string(kSnapshotFormatVersion) + ")");
    cfgFp_ = loadLe(buf_.data() + 12, 8);
    ctxFp_ = loadLe(buf_.data() + 20, 8);

    // CRC trailer: tag kTagEnd, length 4, CRC over everything before it.
    const std::size_t tr = buf_.size() - kTrailerBytes;
    if (loadLe(buf_.data() + tr, 4) != kTagEnd
        || loadLe(buf_.data() + tr + 4, 8) != 4)
        throw SnapshotError("malformed trailer");
    const auto stored =
        static_cast<std::uint32_t>(loadLe(buf_.data() + tr + 12, 4));
    const std::uint32_t computed = crc32(buf_.data(), tr);
    if (stored != computed)
        throw SnapshotError("CRC mismatch (file corrupt)");
    bodyEnd_ = tr;

    // Validate the section table before any component reads: every
    // section must lie entirely within the body.
    std::size_t p = kHeaderBytes;
    while (p < bodyEnd_) {
        if (bodyEnd_ - p < 12)
            throw SnapshotError("truncated section header");
        const std::uint64_t len = loadLe(buf_.data() + p + 4, 8);
        if (len > bodyEnd_ - (p + 12))
            throw SnapshotError("section length exceeds file body");
        p += 12 + static_cast<std::size_t>(len);
    }

    if (cfgFp_ != expect_cfg_fp)
        throw SnapshotError("config fingerprint mismatch (snapshot was"
                            " taken under a different configuration)");
    if (ctxFp_ != expect_ctx_fp)
        throw SnapshotError("context fingerprint mismatch (snapshot was"
                            " taken with a different workload/run"
                            " setup)");

    pos_ = kHeaderBytes;
}

void
Deserializer::need(std::size_t n) const
{
    const std::size_t limit = sectionEnd_ ? sectionEnd_ : bodyEnd_;
    if (pos_ + n > limit)
        throw SnapshotError("read past end of "
                            + std::string(sectionEnd_ ? "section"
                                                      : "body"));
}

void
Deserializer::checkCount(std::uint64_t n, std::size_t elem_bytes) const
{
    // A hostile length prefix cannot demand more payload than remains.
    const std::size_t limit = sectionEnd_ ? sectionEnd_ : bodyEnd_;
    if (n > (limit - pos_) / elem_bytes)
        throw SnapshotError("oversized element count");
}

std::uint8_t
Deserializer::u8()
{
    need(1);
    return buf_[pos_++];
}

std::uint16_t
Deserializer::u16()
{
    need(2);
    const auto v = static_cast<std::uint16_t>(loadLe(&buf_[pos_], 2));
    pos_ += 2;
    return v;
}

std::uint32_t
Deserializer::u32()
{
    need(4);
    const auto v = static_cast<std::uint32_t>(loadLe(&buf_[pos_], 4));
    pos_ += 4;
    return v;
}

std::uint64_t
Deserializer::u64()
{
    need(8);
    const std::uint64_t v = loadLe(&buf_[pos_], 8);
    pos_ += 8;
    return v;
}

std::string
Deserializer::str()
{
    const std::uint64_t n = u64();
    checkCount(n, 1);
    std::string s(reinterpret_cast<const char *>(&buf_[pos_]),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

void
Deserializer::raw(void *out, std::size_t n)
{
    need(n);
    std::memcpy(out, &buf_[pos_], n);
    pos_ += n;
}

void
Deserializer::beginSection(std::uint32_t tag)
{
    if (sectionEnd_)
        throw SnapshotError("nested section read");
    if (pos_ + 12 > bodyEnd_)
        throw SnapshotError("expected section tag "
                            + std::to_string(tag)
                            + " but the body ended");
    const auto got = static_cast<std::uint32_t>(loadLe(&buf_[pos_], 4));
    if (got != tag)
        throw SnapshotError("expected section tag " + std::to_string(tag)
                            + " but found " + std::to_string(got));
    const std::uint64_t len = loadLe(&buf_[pos_ + 4], 8);
    pos_ += 12;
    // Already validated against the body in the constructor.
    sectionEnd_ = pos_ + static_cast<std::size_t>(len);
}

void
Deserializer::endSection()
{
    if (!sectionEnd_)
        throw SnapshotError("endSection outside a section");
    if (pos_ != sectionEnd_)
        throw SnapshotError("section payload size mismatch");
    sectionEnd_ = 0;
}

std::uint32_t
Deserializer::peekTag() const
{
    if (sectionEnd_)
        throw SnapshotError("peekTag inside a section");
    if (pos_ >= bodyEnd_)
        return kTagEnd;
    return static_cast<std::uint32_t>(loadLe(&buf_[pos_], 4));
}

// --- Framing / file I/O -------------------------------------------------

std::vector<std::uint8_t>
frameSnapshot(const Serializer &body, std::uint64_t cfg_fp,
              std::uint64_t ctx_fp)
{
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes + body.bytes().size() + kTrailerBytes);
    out.resize(kHeaderBytes);
    std::copy(kMagic.begin(), kMagic.end(), out.begin());
    storeLe(out.data() + 4, kEndianTag, 4);
    storeLe(out.data() + 8, kSnapshotFormatVersion, 4);
    storeLe(out.data() + 12, cfg_fp, 8);
    storeLe(out.data() + 20, ctx_fp, 8);
    out.insert(out.end(), body.bytes().begin(), body.bytes().end());

    const std::uint32_t crc = crc32(out.data(), out.size());
    const std::size_t tr = out.size();
    out.resize(tr + kTrailerBytes);
    storeLe(out.data() + tr, kTagEnd, 4);
    storeLe(out.data() + tr + 4, 4, 8);
    storeLe(out.data() + tr + 12, crc, 4);
    return out;
}

std::vector<std::uint8_t>
readSnapshotFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw SnapshotError("cannot open '" + path + "'");
    std::vector<std::uint8_t> buf(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    if (is.bad())
        throw SnapshotError("read error on '" + path + "'");
    return buf;
}

void
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &image)
{
    writeFileAtomicChecked(
        path,
        std::string(reinterpret_cast<const char *>(image.data()),
                    image.size()),
        "snapshot");
}

// --- Fingerprint --------------------------------------------------------

void
Fingerprint::mix(std::uint64_t v)
{
    h_ = mix64(h_ ^ v);
}

void
Fingerprint::mix(const std::string &s)
{
    mix(s.size());
    for (char c : s)
        h_ = mix64(h_ ^ static_cast<std::uint8_t>(c));
}

void
Fingerprint::mixDouble(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    mix(bits);
}

} // namespace mtrap
