#include "src/sim/checkpoint.hh"

#include <bit>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/util/error.hh"

namespace piso {

namespace {

/** Header size ahead of the payload: magic + version + flags +
 *  config digest + payload length. */
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

/** Trailer: FNV-1a checksum of the payload. */
constexpr std::size_t kTrailerBytes = 8;

void
appendLe(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
readLe(std::string_view in, std::size_t at, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    }
    return v;
}

[[noreturn]] void
badImage(const std::string &what)
{
    throw ConfigError("checkpoint image rejected: " + what);
}

} // namespace

std::uint64_t
ckptFnv1a(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
CkptWriter::u32(std::uint32_t v)
{
    appendLe(payload_, v, 4);
}

void
CkptWriter::u64(std::uint64_t v)
{
    appendLe(payload_, v, 8);
}

void
CkptWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
CkptWriter::str(std::string_view v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    payload_ += v;
}

std::string
CkptWriter::image(std::uint64_t configDigest) const
{
    std::string out;
    out.reserve(kHeaderBytes + payload_.size() + kTrailerBytes);
    out.append(kCkptMagic, sizeof(kCkptMagic));
    appendLe(out, kCkptVersion, 4);
    appendLe(out, 0, 4); // flags, reserved
    appendLe(out, configDigest, 8);
    appendLe(out, payload_.size(), 8);
    out += payload_;
    appendLe(out, ckptFnv1a(payload_), 8);
    return out;
}

void
CkptWriter::emit(std::ostream &out, std::uint64_t configDigest) const
{
    const std::string img = image(configDigest);
    out.write(img.data(), static_cast<std::streamsize>(img.size()));
}

CkptReader::CkptReader(std::string_view image)
{
    parse(image);
}

CkptReader::CkptReader(std::string &&image) : owned_(std::move(image))
{
    parse(owned_);
}

void
CkptReader::parse(std::string_view image)
{
    if (image.size() < kHeaderBytes + kTrailerBytes)
        badImage("truncated header (" + std::to_string(image.size()) +
                 " bytes)");
    if (std::memcmp(image.data(), kCkptMagic, sizeof(kCkptMagic)) != 0)
        badImage("bad magic (not a piso checkpoint)");
    const auto version =
        static_cast<std::uint32_t>(readLe(image, 8, 4));
    if (version != kCkptVersion)
        badImage("format version " + std::to_string(version) +
                 " (this build reads version " +
                 std::to_string(kCkptVersion) + ")");
    // The flags word is reserved: this reader must refuse any
    // bit it does not understand rather than silently misinterpret a
    // future image (or a corrupted one).
    if (const std::uint64_t flags = readLe(image, 12, 4); flags != 0)
        badImage("unknown feature flags 0x" + [flags] {
            char buf[16];
            std::snprintf(buf, sizeof buf, "%llx",
                          static_cast<unsigned long long>(flags));
            return std::string(buf);
        }());
    configDigest_ = readLe(image, 16, 8);
    const std::uint64_t len = readLe(image, 24, 8);
    if (len != image.size() - kHeaderBytes - kTrailerBytes)
        badImage("payload length " + std::to_string(len) +
                 " does not match the image size");
    payload_ = image.substr(kHeaderBytes, len);
    const std::uint64_t want =
        readLe(image, kHeaderBytes + payload_.size(), 8);
    if (ckptFnv1a(payload_) != want)
        badImage("payload checksum mismatch (corrupted image)");
}

CkptReader
CkptReader::fromStream(std::istream &in)
{
    std::ostringstream os;
    os << in.rdbuf();
    if (in.bad())
        badImage("stream read failed");
    return CkptReader(std::move(os).str());
}

void
CkptReader::requireDigest(std::uint64_t expected) const
{
    if (configDigest_ != expected) {
        badImage("config digest mismatch (image was taken from a "
                 "different machine/workload configuration)");
    }
}

void
CkptReader::need(std::size_t n) const
{
    if (payload_.size() - pos_ < n)
        badImage("payload ends mid-field (truncated image)");
}

std::uint8_t
CkptReader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(
        static_cast<unsigned char>(payload_[pos_++]));
}

std::uint32_t
CkptReader::u32()
{
    need(4);
    const auto v = static_cast<std::uint32_t>(readLe(payload_, pos_, 4));
    pos_ += 4;
    return v;
}

std::uint64_t
CkptReader::u64()
{
    need(8);
    const std::uint64_t v = readLe(payload_, pos_, 8);
    pos_ += 8;
    return v;
}

double
CkptReader::f64()
{
    return std::bit_cast<double>(u64());
}

void
CkptReader::expectEnd() const
{
    if (remaining() != 0)
        badImage(std::to_string(remaining()) +
                 " trailing payload bytes (layout mismatch)");
}

std::uint8_t
CkptIo::wire8(std::uint8_t v)
{
    if (r_)
        return r_->u8();
    w_->u8(v);
    return v;
}

std::uint32_t
CkptIo::wire32(std::uint32_t v)
{
    if (r_)
        return r_->u32();
    w_->u32(v);
    return v;
}

std::uint64_t
CkptIo::wire64(std::uint64_t v)
{
    if (r_)
        return r_->u64();
    w_->u64(v);
    return v;
}

void
CkptIo::f64(double &v)
{
    if (r_)
        v = r_->f64();
    else
        w_->f64(v);
}

std::size_t
CkptIo::count(std::size_t n)
{
    std::uint64_t v = n;
    u64(v);
    if (r_ && v > r_->remaining())
        badImage("section count " + std::to_string(v) +
                 " exceeds the payload");
    return static_cast<std::size_t>(v);
}

void
CkptIo::expect(std::size_t have, const char *what)
{
    std::uint64_t v = have;
    u64(v);
    if (v != have) {
        throw ConfigError(std::string("checkpoint ") + what + " count " +
                          std::to_string(v) +
                          " does not match the replayed configuration");
    }
}

} // namespace piso
