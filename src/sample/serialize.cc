#include "sample/serialize.hh"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"

namespace lsqscale {

namespace {

constexpr std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = makeCrcTable();

/** write(2) all of @p n bytes, retrying EINTR and short writes. */
bool
writeAllFd(int fd, const char *p, std::size_t n, std::string &error)
{
    while (n > 0) {
        ssize_t rc = ::write(fd, p, n);
        if (rc > 0) {
            p += rc;
            n -= static_cast<std::size_t>(rc);
            continue;
        }
        if (rc < 0 && errno == EINTR)
            continue;
        error = strfmt("write failed: %s", std::strerror(errno));
        return false;
    }
    return true;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = kCrcTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// ------------------------------------------------------ frame codec --

bool
decodeFrameHeader(const char *head, FrameHeader &out, std::string &error)
{
    SerialReader r(head, kFrameHeaderBytes);
    out.len = r.u32();
    out.crc = r.u32();
    if (out.len == 0 || out.len > kMaxFrameBytes) {
        error = strfmt("frame length %u is outside the 1..%u-byte cap "
                       "(corrupt stream?)",
                       out.len, kMaxFrameBytes);
        return false;
    }
    return true;
}

bool
checkFramePayload(const FrameHeader &h, const char *payload,
                  std::string &error)
{
    if (crc32(payload, h.len) != h.crc) {
        error = "frame CRC mismatch (corrupted stream?)";
        return false;
    }
    return true;
}

bool
encodeFrame(const std::string &payload, std::string &frame,
            std::string &error)
{
    if (payload.empty() || payload.size() > kMaxFrameBytes) {
        error = strfmt("refusing to frame a %zu-byte payload",
                       payload.size());
        return false;
    }
    SerialWriter head;
    head.u32(static_cast<std::uint32_t>(payload.size()));
    head.u32(crc32(payload.data(), payload.size()));
    frame = head.buffer() + payload;
    return true;
}

bool
writeFrame(int fd, const std::string &payload, std::string &error)
{
    std::string frame;
    return encodeFrame(payload, frame, error) &&
           writeAllFd(fd, frame.data(), frame.size(), error);
}

FrameWalk
walkFrames(const char *data, std::size_t size, std::size_t pos)
{
    FrameWalk walk;
    std::string why;
    while (size - pos >= kFrameHeaderBytes) {
        FrameHeader h;
        const char *payload = data + pos + kFrameHeaderBytes;
        if (!decodeFrameHeader(data + pos, h, why) ||
            size - pos - kFrameHeaderBytes < h.len ||
            !checkFramePayload(h, payload, why))
            break;
        walk.payloads.emplace_back(payload, h.len);
        pos += kFrameHeaderBytes + h.len;
    }
    walk.validEnd = pos;
    walk.torn = pos < size;
    return walk;
}

bool
readFramedFile(const std::string &path, const FramedFileFormat &fmt,
               FrameWalk &out, std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        error = strfmt("cannot open %s %s", fmt.noun, path.c_str());
        return false;
    }
    std::string bytes;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    bool readErr = std::ferror(f) != 0;
    std::fclose(f);
    if (readErr) {
        error = strfmt("error reading %s %s", fmt.noun, path.c_str());
        return false;
    }
    if (bytes.compare(0, 8, fmt.magic, 8) != 0) {
        error = strfmt("%s is not an %s file", path.c_str(), fmt.name);
        return false;
    }
    out = walkFrames(bytes.data(), bytes.size(), 8);
    return true;
}

bool
FramedFileAppender::open(const std::string &path,
                         const FramedFileFormat &fmt, bool fresh,
                         std::string &error)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    fd_ = ::open(path.c_str(), fresh ? flags | O_TRUNC : flags, 0644);
    durable_ = fmt.durable;
    std::string why;
    off_t end = fd_ < 0 ? -1 : ::lseek(fd_, 0, SEEK_END);
    bool ok = end >= 0;
    if (ok && end == 0) {
        ok = writeAllFd(fd_, fmt.magic, 8, why);
    } else if (ok) {
        // Readers stop at a torn frame, so anything appended after one
        // would be invisible: cut the file back to its intact prefix.
        FrameWalk walk;
        ok = readFramedFile(path, fmt, walk, why);
        if (ok && walk.torn)
            ok = ::ftruncate(fd_, static_cast<off_t>(walk.validEnd)) == 0;
    }
    if (ok && durable_)
        ok = ::fsync(fd_) == 0;
    if (!ok) {
        error = strfmt("cannot open %s %s for appending: %s", fmt.noun,
                       path.c_str(),
                       why.empty() ? std::strerror(errno) : why.c_str());
        close();
    }
    return ok;
}

bool
FramedFileAppender::append(const std::string &payload,
                           std::string &error)
{
    if (!writeFrame(fd_, payload, error))
        return false;
    if (durable_ && ::fsync(fd_) != 0) {
        error = strfmt("fsync failed: %s", std::strerror(errno));
        return false;
    }
    return true;
}

bool
FramedFileAppender::close()
{
    bool ok = fd_ < 0 || ::close(fd_) == 0;
    fd_ = -1;
    return ok;
}

} // namespace lsqscale
