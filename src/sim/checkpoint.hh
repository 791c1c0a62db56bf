#ifndef PISO_SIM_CHECKPOINT_HH
#define PISO_SIM_CHECKPOINT_HH

/**
 * @file
 * Versioned binary serialisation for bit-exact checkpoint/restore.
 *
 * A checkpoint image is a strict container:
 *
 *     [magic "PISOCKPT" 8B][version u32][flags u32]
 *     [config digest u64][payload length u64]
 *     [payload bytes][FNV-1a(payload) u64]
 *
 * Every field is fixed-width little-endian, so an image written on one
 * host restores bit-exactly on any other. The reader validates the
 * container — magic, version, config digest, length, checksum — before
 * a single payload byte is interpreted, and every payload read is
 * bounds-checked, so truncated or corrupted images raise a structured
 * ConfigError, never undefined behaviour. Semantic inconsistencies
 * discovered while *applying* a well-formed image (e.g. a pid that the
 * replayed setup never created) are InvariantError instead.
 *
 * The writer/reader pair deliberately knows nothing about the
 * simulator: subsystems serialise themselves through
 * `save(CkptWriter&) const` / `load(CkptReader&)` pairs and the
 * Simulation owns field order and the config digest (docs/checkpoint.md
 * documents the format and the versioning policy).
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/util/time.hh"

namespace piso {

/** Image container constants. */
inline constexpr char kCkptMagic[8] = {'P', 'I', 'S', 'O',
                                       'C', 'K', 'P', 'T'};

/** Bump on any payload layout change; old images are rejected. */
inline constexpr std::uint32_t kCkptVersion = 1;

/** FNV-1a 64-bit over @p data (payload checksums, config digests). */
std::uint64_t ckptFnv1a(const std::string &data);

/**
 * Appends fixed-width little-endian fields to an in-memory payload.
 * Also used to build the canonical config serialisation whose hash is
 * the image's config digest.
 */
class CkptWriter
{
  public:
    void u8(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    // piso-lint: allow(determinism-wallclock) -- serialises a simulated Time field, not a wallclock read
    void time(Time v) { u64(v); }
    void f64(double v);
    void str(std::string_view v);

    const std::string &payload() const { return payload_; }

    /** Assemble the full image (header + payload + checksum). */
    std::string image(std::uint64_t configDigest) const;

    /** Write the full image to @p out. */
    void emit(std::ostream &out, std::uint64_t configDigest) const;

  private:
    std::string payload_;
};

/**
 * Validating reader over a checkpoint image. Construction parses and
 * checks the container; the typed accessors then consume the payload
 * with bounds checks. Any violation throws ConfigError.
 */
class CkptReader
{
  public:
    /** Parse an in-memory image; validates everything up front. */
    explicit CkptReader(const std::string &image);

    /** Slurp @p in to the end and parse it as an image. */
    static CkptReader fromStream(std::istream &in);

    /** Config digest recorded in the header. */
    std::uint64_t configDigest() const { return configDigest_; }

    /** Reject the image unless its digest matches @p expected. */
    void requireDigest(std::uint64_t expected) const;

    std::uint8_t u8();
    bool boolean() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    // piso-lint: allow(determinism-wallclock) -- deserialises a simulated Time field, not a wallclock read
    Time time() { return u64(); }
    double f64();
    std::string str();

    /** Bytes of payload not yet consumed. */
    std::size_t remaining() const { return payload_.size() - pos_; }

    /** Reject the image unless the payload was consumed exactly. */
    void expectEnd() const;

  private:
    void need(std::size_t n) const;

    std::string payload_;
    std::size_t pos_ = 0;
    std::uint64_t configDigest_ = 0;
};

} // namespace piso

#endif // PISO_SIM_CHECKPOINT_HH
