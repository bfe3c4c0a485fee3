/**
 * @file
 * Byte-level serialization primitives for the checkpoint subsystem.
 *
 * Fixed-width little-endian encoders/decoders over a growable byte
 * buffer. Components expose saveState(SerialWriter&)/loadState(
 * SerialReader&) member pairs built on these; the lsqscale-ckpt-v1
 * container format (header, sections, CRC) lives one layer up in
 * sample/checkpoint.hh. See docs/SAMPLING.md. The frame codec at the
 * end of this file is the one framing of every journal, log, socket
 * and pipe byte stream (docs/ROBUSTNESS.md).
 *
 * Determinism contract: a component's saveState must produce identical
 * bytes for identical logical state — unordered containers are sorted
 * on save, doubles are stored as raw IEEE-754 bit patterns — so that
 * checkpoint files can be diffed byte-for-byte across runs and worker
 * threads (the fast-forward determinism test relies on this).
 *
 * Errors (underflow, malformed payloads) throw SerialError rather than
 * aborting: checkpoint files are external inputs, and callers (the
 * CLI, the sweep harness, tests) decide how a bad file is reported.
 */
// lsqlint: layer(common) -- serialization primitives; lsqscale_ckpt sits directly above common in CMake and every layer-1 subsystem includes this header

#ifndef LSQSCALE_SAMPLE_SERIALIZE_HH
#define LSQSCALE_SAMPLE_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace lsqscale {

/** Malformed or truncated serialized data. */
class SerialError : public std::runtime_error
{
  public:
    explicit SerialError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Appends fixed-width little-endian fields to a byte buffer. */
class SerialWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v & 0xff));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v & 0xffff));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v & 0xffffffffu));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    /** Raw IEEE-754 bit pattern: bit-exact and deterministic. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    void
    raw(const void *data, std::size_t n)
    {
        buf_.append(static_cast<const char *>(data), n);
    }

    const std::string &buffer() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Consumes fields written by SerialWriter; throws SerialError. */
class SerialReader
{
  public:
    SerialReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit SerialReader(const std::string &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    bool b() { return u8() != 0; }

    std::uint16_t
    u16()
    {
        std::uint16_t lo = u8();
        std::uint16_t hi = u8();
        return static_cast<std::uint16_t>(lo | (hi << 8));
    }

    std::uint32_t
    u32()
    {
        std::uint32_t lo = u16();
        std::uint32_t hi = u16();
        return lo | (hi << 16);
    }

    std::uint64_t
    u64()
    {
        std::uint64_t lo = u32();
        std::uint64_t hi = u32();
        return lo | (hi << 32);
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        need(n);
        std::string s(data_ + pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    void
    raw(void *out, std::size_t n)
    {
        need(n);
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

    /** Fail unless the stream was consumed exactly. */
    void
    expectEnd(const char *what)
    {
        if (!done())
            throw SerialError(std::string(what) +
                              ": trailing bytes in serialized state");
    }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            throw SerialError("serialized state truncated");
    }

    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** CRC-32 (IEEE 802.3 polynomial, the zlib convention). */
std::uint32_t crc32(const void *data, std::size_t n);

// ------------------------------------------------------ frame codec --
//
// The one frame of the journal, the reqlog, the lsqd socket and the
// cell result pipe (docs/ROBUSTNESS.md §Frames):
//
//   u32 payloadLength, u32 crc32(payload), payload    (little-endian)
//
// A frame is intact when its length is within 1..kMaxFrameBytes, all
// of its payload is present and the CRC matches; the first frame that
// is not ends the valid prefix. No payload is empty, and refusing a 0
// length keeps a run of zero bytes (CRC-32 of nothing is 0) from
// passing as frames.

/** Bytes in a frame header: u32 length + u32 CRC. */
inline constexpr std::size_t kFrameHeaderBytes = 8;

/** Cap on one payload, checked before anything is allocated. */
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/** A decoded frame header. */
struct FrameHeader
{
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
};

/**
 * Decode the kFrameHeaderBytes at @p head. False (with @p error) when
 * the declared length is 0 or exceeds kMaxFrameBytes.
 */
bool decodeFrameHeader(const char *head, FrameHeader &out,
                       std::string &error);

/** False (with @p error) unless @p payload (h.len bytes) has h's CRC. */
bool checkFramePayload(const FrameHeader &h, const char *payload,
                       std::string &error);

/**
 * Frame @p payload into @p frame. False (with @p error) when the
 * payload is empty or exceeds kMaxFrameBytes: no reader would accept
 * the frame.
 */
bool encodeFrame(const std::string &payload, std::string &frame,
                 std::string &error);

/** Frame @p payload and write all of it to @p fd, retrying EINTR. */
bool writeFrame(int fd, const std::string &payload, std::string &error);

/** The intact frames at the front of a byte buffer. */
struct FrameWalk
{
    std::vector<std::string> payloads; ///< in buffer order
    std::size_t validEnd = 0; ///< offset just past the last intact frame
    bool torn = false;        ///< bytes follow validEnd
};

/**
 * Walk the frames of @p data from offset @p pos (at most @p size) to
 * the end, stopping at the first short, oversized, or CRC-failing
 * frame.
 */
FrameWalk walkFrames(const char *data, std::size_t size,
                     std::size_t pos = 0);

/** A framed file format: an 8-byte magic, then frames. */
struct FramedFileFormat
{
    const char *magic; ///< exactly 8 bytes, not NUL-terminated
    const char *noun;  ///< "journal" — used in error messages
    const char *name;  ///< "lsqscale-journal-v1"
    bool durable;      ///< appends (and the magic) are fsync'd
};

/**
 * Read @p path whole, check @p fmt's magic, and walk its frames
 * (validEnd is a file offset). False (with @p error) only when the
 * file cannot be read or lacks the magic: a torn tail is not an error.
 */
bool readFramedFile(const std::string &path, const FramedFileFormat &fmt,
                    FrameWalk &out, std::string &error);

/**
 * Appends frames to a framed file. Opening writes the magic when the
 * file is new or empty (or @p fresh truncates it), and cuts a torn
 * tail back to the last intact frame, so that frames appended after a
 * crash stay readable. A durable format fsyncs every change.
 */
class FramedFileAppender
{
  public:
    FramedFileAppender() = default;
    ~FramedFileAppender() { close(); }
    FramedFileAppender(const FramedFileAppender &) = delete;
    FramedFileAppender &operator=(const FramedFileAppender &) = delete;

    /** False (with @p error) on an I/O failure or a foreign file. */
    bool open(const std::string &path, const FramedFileFormat &fmt,
              bool fresh, std::string &error);

    /** Append one framed @p payload (fsync'd when durable). */
    bool append(const std::string &payload, std::string &error);

    /** Close the file; false when close(2) reports a failure. */
    bool close();

    bool isOpen() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    bool durable_ = false;
};

} // namespace lsqscale

#endif // LSQSCALE_SAMPLE_SERIALIZE_HH
