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
 * simulator: each subsystem images itself through one `ckpt(CkptIo&)`
 * walk that serves both directions, and the Simulation owns section
 * order and the config digest (docs/checkpoint.md documents the format
 * and the versioning policy).
 */

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/time.hh"

namespace piso {

/** Image container constants. */
inline constexpr char kCkptMagic[8] = {'P', 'I', 'S', 'O',
                                       'C', 'K', 'P', 'T'};

/** Bump on any payload layout change; old images are rejected. */
inline constexpr std::uint32_t kCkptVersion = 4;

/** FNV-1a 64-bit over @p data (payload checksums, config digests).
 *  Passing the hash of a prefix as @p h hashes the concatenation. */
std::uint64_t ckptFnv1a(std::string_view data,
                        std::uint64_t h = 0xcbf29ce484222325ull);

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
    /** Length-prefixed bytes. Only the config digest uses it; images
     *  carry no strings. */
    void str(std::string_view v);

    const std::string &payload() const { return payload_; }

    /** Reserve room for @p bytes of payload. */
    void reserve(std::size_t bytes) { payload_.reserve(bytes); }

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
 * in place, with bounds checks. Any violation throws ConfigError.
 * Neither copyable nor movable: the payload view may point into the
 * reader's own buffer.
 */
class CkptReader
{
  public:
    /** Parse an in-memory image without copying it; validates
     *  everything up front. @p image must outlive the reader. */
    explicit CkptReader(std::string_view image);

    /** Parse an image the reader takes over. */
    explicit CkptReader(std::string &&image);

    CkptReader(const CkptReader &) = delete;
    CkptReader &operator=(const CkptReader &) = delete;

    /** Slurp @p in to the end and parse it as an image. */
    static CkptReader fromStream(std::istream &in);

    /**
     * A second reader over this reader's image, at payload offset 0.
     * This reader checked the container when it was built, so the new
     * one reads the same bytes without checking or hashing them again:
     * a warm sweep's members each restore from their template's one
     * verified image. This reader must outlive the new one.
     */
    CkptReader rewound() const;

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

    /** Bytes of payload not yet consumed. */
    std::size_t remaining() const { return payload_.size() - pos_; }

    /** Reject the image unless the payload was consumed exactly. */
    void expectEnd() const;

  private:
    /** rewound()'s constructor: @p payload was validated by the
     *  reader that owns it. */
    CkptReader(std::string_view payload, std::uint64_t configDigest)
        : payload_(payload), configDigest_(configDigest)
    {
    }

    void need(std::size_t n) const;
    /** Validate @p image's container and point payload_ into it. */
    void parse(std::string_view image);

    std::string owned_;        //!< the image, when the reader owns it
    std::string_view payload_;
    std::size_t pos_ = 0;
    std::uint64_t configDigest_ = 0;
};

/**
 * One field walk for both directions: over a writer every call appends
 * the referenced field, over a reader it overwrites the field with the
 * next payload value. A class images itself with a single
 * `ckpt(CkptIo&)` that names its fields once, in image order, and
 * rebuilds derived state at the end under `if (io.loading())`.
 *
 * The primitives fix the wire width; the field may be any integer or
 * enum type the value fits (an `int` imaged as i64, an enum as u8).
 */
class CkptIo
{
  public:
    explicit CkptIo(CkptWriter &w) : w_(&w) {}
    explicit CkptIo(CkptReader &r) : r_(&r) {}

    bool loading() const { return r_ != nullptr; }

    /** The underlying container, for hooks that take one directly. */
    CkptWriter &writer() { return *w_; }
    CkptReader &reader() { return *r_; }

    template <typename T>
    void
    u8(T &v)
    {
        v = static_cast<T>(wire8(static_cast<std::uint8_t>(v)));
    }

    template <typename T>
    void
    u32(T &v)
    {
        v = static_cast<T>(wire32(static_cast<std::uint32_t>(v)));
    }

    template <typename T>
    void
    u64(T &v)
    {
        v = static_cast<T>(wire64(static_cast<std::uint64_t>(v)));
    }

    template <typename T>
    void
    i64(T &v)
    {
        v = static_cast<T>(static_cast<std::int64_t>(wire64(
            static_cast<std::uint64_t>(static_cast<std::int64_t>(v)))));
    }

    void boolean(bool &v) { u8(v); }
    // piso-lint: allow(determinism-wallclock) -- images a simulated Time field, not a wallclock read
    void time(Time &v) { u64(v); }
    void f64(double &v);

    /**
     * The length of a variable-length section: writes @p n, or reads
     * it back. Every element takes at least one byte, so a read count
     * larger than the unread payload is rejected (ConfigError) before
     * anything is sized by it.
     */
    std::size_t count(std::size_t n);

    /**
     * A count the replayed configuration already fixes (CPUs,
     * processes, locks, ...): writes @p have, or reads the image's
     * count and rejects it (ConfigError) unless it equals @p have.
     * @p what names the counted thing in the message.
     */
    void expect(std::size_t have, const char *what);

    /** A sequence container: its count(), then @p fn(element&) per
     *  element; loading clears @p c and appends value-initialised
     *  elements that @p fn fills. */
    template <typename C, typename Fn>
    void
    seq(C &c, Fn &&fn)
    {
        const std::size_t n = count(c.size());
        if (!loading()) {
            for (auto &v : c)
                fn(v);
            return;
        }
        c.clear();
        for (std::size_t i = 0; i < n; ++i) {
            typename C::value_type v{};
            fn(v);
            c.push_back(std::move(v));
        }
    }

    /** An ordered map: its count(), then @p fn(key&, value&) per
     *  entry in key order; loading rebuilds @p m from the image. */
    template <typename M, typename Fn>
    void
    map(M &m, Fn &&fn)
    {
        const std::size_t n = count(m.size());
        if (!loading()) {
            for (auto &[key, value] : m) {
                typename M::key_type k = key;
                fn(k, value);
            }
            return;
        }
        m.clear();
        for (std::size_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            fn(k, v);
            m.emplace(std::move(k), std::move(v));
        }
    }

  private:
    std::uint8_t wire8(std::uint8_t v);
    std::uint32_t wire32(std::uint32_t v);
    std::uint64_t wire64(std::uint64_t v);

    CkptWriter *w_ = nullptr;
    CkptReader *r_ = nullptr;
};

} // namespace piso

#endif // PISO_SIM_CHECKPOINT_HH
