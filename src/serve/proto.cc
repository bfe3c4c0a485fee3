#include "serve/proto.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>

#include "common/logging.hh"

namespace lsqscale {

namespace {

/**
 * Drain @p n bytes from @p fd. False on EOF or error; @p error stays
 * empty only for a clean EOF at offset zero (no byte of this read
 * arrived), which recvFrame maps to "peer closed between frames".
 */
bool
readAll(int fd, void *buf, std::size_t n, std::string &error)
{
    char *p = static_cast<char *>(buf);
    std::size_t got = 0;
    while (got < n) {
        ssize_t rc = ::recv(fd, p + got, n - got, 0);
        if (rc > 0) {
            got += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc == 0) {
            if (got > 0)
                error = "connection closed mid-frame";
            return false;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            error = "receive timeout";
            return false;
        }
        error = strfmt("recv failed: %s", std::strerror(errno));
        return false;
    }
    return true;
}

bool
writeAll(int fd, const void *buf, std::size_t n, std::string &error)
{
    const char *p = static_cast<const char *>(buf);
    std::size_t sent = 0;
    while (sent < n) {
        ssize_t rc = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
        if (rc > 0) {
            sent += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc < 0 && errno == EINTR)
            continue;
        error = strfmt("send failed: %s", std::strerror(errno));
        return false;
    }
    return true;
}

} // namespace

// -------------------------------------------------------- spec codec --

void
SweepRequestSpec::encode(SerialWriter &w) const
{
    w.u32(kServeProtoVersion);
    w.str(name);
    w.u64(instructions);
    w.u64(warmup);
    w.u64(seed);
    w.u64(baseSeed);
    w.u64(ffInsts);
    w.u32(jobs);
    w.u64(configs.size());
    for (const auto &c : configs)
        w.str(c);
    w.u64(benchmarks.size());
    for (const auto &b : benchmarks)
        w.str(b);
}

SweepRequestSpec
SweepRequestSpec::decode(SerialReader &r)
{
    std::uint32_t version = r.u32();
    if (version != kServeProtoVersion)
        throw SerialError(strfmt(
            "protocol version skew: peer speaks lsqscale-serve-v%u, "
            "this build speaks v%u",
            version, kServeProtoVersion));
    SweepRequestSpec spec;
    spec.name = r.str();
    spec.instructions = r.u64();
    spec.warmup = r.u64();
    spec.seed = r.u64();
    spec.baseSeed = r.u64();
    spec.ffInsts = r.u64();
    spec.jobs = r.u32();
    std::uint64_t nConfigs = r.u64();
    for (std::uint64_t i = 0; i < nConfigs; ++i)
        spec.configs.push_back(r.str());
    std::uint64_t nBench = r.u64();
    for (std::uint64_t i = 0; i < nBench; ++i)
        spec.benchmarks.push_back(r.str());
    return spec;
}

void
DoneSummary::encode(SerialWriter &w) const
{
    w.u8(state);
    w.u64(cells);
    w.u64(poisoned);
    w.u32(jobs);
    w.f64(seconds);
    w.u64(warmHits);
    w.u64(warmMisses);
    w.str(message);
}

DoneSummary
DoneSummary::decode(SerialReader &r)
{
    DoneSummary d;
    d.state = r.u8();
    d.cells = r.u64();
    d.poisoned = r.u64();
    d.jobs = r.u32();
    d.seconds = r.f64();
    d.warmHits = r.u64();
    d.warmMisses = r.u64();
    d.message = r.str();
    return d;
}

// ------------------------------------------------------------ framing --

bool
sendFrame(int fd, const std::string &payload, std::string &error)
{
    std::string frame;
    return encodeFrame(payload, frame, error) &&
           writeAll(fd, frame.data(), frame.size(), error);
}

int
recvFrame(int fd, std::string &payload, std::string &error)
{
    char head[kFrameHeaderBytes];
    error.clear();
    if (!readAll(fd, head, sizeof(head), error))
        return error.empty() ? 0 : -1;
    FrameHeader h;
    if (!decodeFrameHeader(head, h, error))
        return -1;
    payload.assign(h.len, '\0');
    if (!readAll(fd, payload.data(), h.len, error)) {
        if (error.empty())
            error = "connection closed mid-frame";
        return -1;
    }
    return checkFramePayload(h, payload.data(), error) ? 1 : -1;
}

// --------------------------------------------------- message builders --

std::string
msgSubmit(const SweepRequestSpec &spec)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Submit));
    spec.encode(w);
    return w.buffer();
}

std::string
msgAttach(std::uint64_t id, std::uint64_t fromIndex)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Attach));
    w.u64(id);
    w.u64(fromIndex);
    return w.buffer();
}

std::string
msgStatus(std::uint64_t id)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Status));
    w.u64(id);
    return w.buffer();
}

std::string
msgCancel(std::uint64_t id)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Cancel));
    w.u64(id);
    return w.buffer();
}

std::string
msgStats()
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Stats));
    return w.buffer();
}

std::string
msgMetrics()
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Metrics));
    return w.buffer();
}

std::string
msgShutdown()
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Shutdown));
    return w.buffer();
}

std::string
msgAck(std::uint64_t id, const std::string &text)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Ack));
    w.u64(id);
    w.str(text);
    return w.buffer();
}

std::string
msgError(const std::string &text)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Error));
    w.str(text);
    return w.buffer();
}

std::string
msgRecord(std::uint64_t index, const std::string &payload)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Record));
    w.u64(index);
    w.str(payload);
    return w.buffer();
}

std::string
msgDone(const DoneSummary &done)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Done));
    done.encode(w);
    return w.buffer();
}

std::string
msgInfo(const std::string &json)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Info));
    w.str(json);
    return w.buffer();
}

std::string
msgOverloaded(std::uint64_t retryAfterMs, const std::string &text)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Overloaded));
    w.u64(retryAfterMs);
    w.str(text);
    return w.buffer();
}

std::string
msgGone(std::uint64_t id, std::uint64_t firstAvailable,
        const std::string &text)
{
    SerialWriter w;
    w.u8(static_cast<std::uint8_t>(ServeMsg::Gone));
    w.u64(id);
    w.u64(firstAvailable);
    w.str(text);
    return w.buffer();
}

} // namespace lsqscale
