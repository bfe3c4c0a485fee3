/**
 * @file
 * lsqscale-serve-v1: the lsqd wire protocol (docs/SERVICE.md).
 *
 * Transport is a Unix-domain stream socket carrying one frame per
 * message, in the frame format shared with the sweep journal and the
 * cell result pipe (the frame codec in sample/serialize.hh). Every
 * payload starts with a u8 message type. Client-to-server
 * messages are commands; server-to-client messages are the reply
 * stream. A command connection is single-shot: the client sends one
 * command, reads the reply (for Submit/Attach, a stream of Record
 * frames ending in Done), and the server closes the connection.
 *
 * Record frames carry *journal record payloads* verbatim — the exact
 * bytes a JournalWriter would append for the same cell — so a client
 * can tee the stream into an lsqscale-journal-v1 file and replay it
 * with readJournal(), and a dropped client can reconnect with Attach
 * and an index to resume exactly where the stream broke.
 */

#ifndef LSQSCALE_SERVE_PROTO_HH
#define LSQSCALE_SERVE_PROTO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sample/serialize.hh"

namespace lsqscale {

/** Protocol version, checked on every Submit. */
inline constexpr std::uint32_t kServeProtoVersion = 1;

/** Message types. 1–63 client-to-server, 64+ server-to-client. */
enum class ServeMsg : std::uint8_t
{
    Submit = 1,   ///< SweepRequestSpec -> Ack + Record* + Done
    Attach = 2,   ///< u64 id, u64 fromIndex -> Ack + Record* + Done
    Status = 3,   ///< u64 id (0 = all) -> Info
    Cancel = 4,   ///< u64 id -> Ack
    Stats = 5,    ///< -> Info
    Shutdown = 6, ///< -> Ack; daemon drains and exits
    Metrics = 7,  ///< -> Info (lsqscale-metrics-v1 registry dump)

    Ack = 64,    ///< u64 id, str text
    Error = 65,  ///< str text
    Record = 66, ///< u64 index, str journal-record payload
    Done = 67,   ///< DoneSummary
    Info = 68,   ///< str json

    // Additive server-to-client types (still lsqscale-serve-v1: old
    // clients treat an unknown reply as an error and fail closed).
    Overloaded = 69, ///< u64 retryAfterMs, str text (admission refusal)
    Gone = 70,       ///< u64 id, u64 firstAvailable, str text
};

/**
 * One sweep request: the lsqscale-sweep-v1 grid, by name. Rows are
 * design-point labels resolved by serve/registry.hh; columns are
 * workload names. ffInsts > 0 engages the warmed-checkpoint cache:
 * the daemon fast-forwards each workload once (or reuses a cached
 * checkpoint) and every cell restores instead of re-simulating.
 */
struct SweepRequestSpec
{
    std::string name = "sweep";
    std::vector<std::string> configs;    ///< design-point labels
    std::vector<std::string> benchmarks; ///< workload names
    std::uint64_t instructions = 500000; ///< measured insts per cell
    std::uint64_t warmup = 50000;        ///< config warm-up insts
    std::uint64_t seed = 1;              ///< workload seed
    std::uint64_t baseSeed = 1;          ///< Sweep::jobSeed base
    std::uint64_t ffInsts = 0;           ///< warmed-cache fast-forward
    std::uint32_t jobs = 0;              ///< 0 = daemon resolves

    void encode(SerialWriter &w) const;
    /** Throws SerialError on malformed bytes or a version skew. */
    static SweepRequestSpec decode(SerialReader &r);
};

/** Terminal verdict of a request, shipped in the Done frame. */
struct DoneSummary
{
    std::uint8_t state = 0; ///< 0 done, 1 cancelled, 2 failed
    std::uint64_t cells = 0;
    std::uint64_t poisoned = 0;
    std::uint32_t jobs = 1;
    double seconds = 0.0;       ///< request wall time on the daemon
    std::uint64_t warmHits = 0;   ///< checkpoint-cache hits (warm phase)
    std::uint64_t warmMisses = 0; ///< cache misses paid by this request
    std::string message;          ///< summary / failure text

    void encode(SerialWriter &w) const;
    static DoneSummary decode(SerialReader &r);
};

// ---------------------------------------------------------- framing --

/**
 * Write one CRC-framed payload to @p fd (retrying short sends, never
 * raising SIGPIPE). False with @p error on any failure.
 */
bool sendFrame(int fd, const std::string &payload, std::string &error);

/**
 * Read one frame from @p fd. Returns 1 with the verified payload,
 * 0 on clean EOF before any byte of a frame, -1 (with @p error) on
 * a truncated frame, CRC mismatch, a length over kMaxFrameBytes
 * (rejected before the payload is allocated), or socket error.
 */
int recvFrame(int fd, std::string &payload, std::string &error);

// --------------------------------------------------- message builders --

std::string msgSubmit(const SweepRequestSpec &spec);
std::string msgAttach(std::uint64_t id, std::uint64_t fromIndex);
std::string msgStatus(std::uint64_t id);
std::string msgCancel(std::uint64_t id);
std::string msgStats();
std::string msgMetrics();
std::string msgShutdown();

std::string msgAck(std::uint64_t id, const std::string &text);
std::string msgError(const std::string &text);
std::string msgRecord(std::uint64_t index, const std::string &payload);
std::string msgDone(const DoneSummary &done);
std::string msgInfo(const std::string &json);
std::string msgOverloaded(std::uint64_t retryAfterMs,
                          const std::string &text);
std::string msgGone(std::uint64_t id, std::uint64_t firstAvailable,
                    const std::string &text);

} // namespace lsqscale

#endif // LSQSCALE_SERVE_PROTO_HH
