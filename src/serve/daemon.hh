/**
 * @file
 * lsqd: the design-space-exploration daemon (docs/SERVICE.md).
 *
 * A long-lived process that owns a warmed-checkpoint cache
 * (serve/ckpt_cache.hh) and executes lsqscale-sweep-v1 grid requests
 * arriving over a Unix-domain socket (serve/proto.hh). Requests queue
 * FIFO onto an executor pool; each request's cells shard across the
 * crash-isolated sweep engine exactly as a batch run would, and every
 * journal record is retained in memory so any number of clients can
 * stream it — live, or after reconnecting with Attach and the index
 * where their stream broke.
 *
 * Threading map (every thread below is a JobPool worker; the accept
 * loop runs on the caller of run()):
 *
 *   accept loop ── clients pool (N) ── one connection handler each
 *                  executor pool (E) ── runs requests FIFO, E at a
 *                                       time; inside a request, the
 *                                       Sweep engine's own pool fans
 *                                       cells out
 *
 * With --executors > 1 several sweeps run at once. The checkpoint
 * cache stays safe under that concurrency because every request holds
 * refcounted pin leases (CkptCacheLease) on the checkpoints it warms
 * or restores from — eviction skips pinned files — while connection
 * handling stays concurrent: Status/Stats/Cancel answer instantly even
 * mid-sweep.
 *
 * Robustness (docs/SERVICE.md failure matrix):
 *  - Admission control: more than --max-queue live requests gets a
 *    structured Overloaded{retry_after_ms} refusal, never an unbounded
 *    queue.
 *  - Retained record streams live under a --record-mb byte budget;
 *    terminal requests' oldest records evict first, and an Attach
 *    below a request's eviction floor gets an explicit Gone answer.
 *  - Durability: accepted requests append to an on-disk
 *    lsqscale-reqlog-v1 (--spool-dir) and every cell record also lands
 *    in a per-request journal, so a SIGKILL'd daemon re-adopts and
 *    finishes its unfinished queue on restart — idempotently, because
 *    journal replay is later-record-wins.
 */

#ifndef LSQSCALE_SERVE_DAEMON_HH
#define LSQSCALE_SERVE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "serve/ckpt_cache.hh"
#include "serve/proto.hh"

namespace lsqscale {

class JobPool;

/** Daemon configuration. */
struct ServeOptions
{
    /** Unix-domain socket path. Required (sun_path-length limited). */
    std::string socketPath;

    /** Checkpoint-cache directory; "" = socketPath + ".cache". */
    std::string cacheDir;

    /** Checkpoint-cache byte budget. */
    std::uint64_t cacheBudgetBytes = 256ull << 20;

    /** Concurrent client connections served. */
    unsigned clientWorkers = 4;

    /** Requests executed simultaneously (the executor pool width). */
    unsigned executors = 1;

    /**
     * Admission limit: live (queued + running) requests beyond this
     * are refused with Overloaded{retry_after_ms}.
     */
    unsigned maxQueueDepth = 32;

    /**
     * Byte budget across every request's retained record stream.
     * Beyond it, terminal requests' oldest records evict (raising
     * their Attach floor); live requests' records never evict.
     */
    std::uint64_t recordBudgetBytes = 256ull << 20;

    /**
     * Durable-request spool directory (reqlog + per-request
     * journals); "" = socketPath + ".spool".
     */
    std::string spoolDir;

    /**
     * --metrics-out: file the accept loop refreshes (~2 s cadence,
     * plus once at shutdown) with the lsqscale-metrics-v1 registry
     * dump, for scraping without holding a socket connection. "" =
     * off. Written atomically via writeFileCreatingDirs().
     */
    std::string metricsOutPath;

    /**
     * Isolation for sweep cells AND warm fast-forwards. The daemon
     * default is Process (a crashing cell must never take the service
     * down); tests run Thread to stay sanitizer-friendly.
     */
    IsolationMode isolation = IsolationMode::Process;
};

/**
 * Fill unset fields from the LSQSCALE_SERVE_SOCKET /
 * LSQSCALE_SERVE_CACHE_MB / LSQSCALE_SERVE_CLIENTS /
 * LSQSCALE_SERVE_EXECUTORS / LSQSCALE_SERVE_MAX_QUEUE /
 * LSQSCALE_SERVE_RECORD_MB / LSQSCALE_SERVE_SPOOL environment knobs
 * (digits-only parsing per common/env.hh).
 */
ServeOptions resolveServeOptions(ServeOptions opts);

/**
 * Parse lsqd command-line flags (--socket PATH, --cache-dir PATH,
 * --cache-mb N, --clients N, --executors N, --max-queue N,
 * --record-mb N, --spool-dir PATH, --jobs N is per-request and
 * rejected here, --isolation thread|process) over @p opts. False with
 * @p error on an unknown flag or bad value; no output is printed
 * (callers own usage text).
 */
bool parseServeArgs(const std::vector<std::string> &args,
                    ServeOptions &opts, std::string &error);

// ------------------------------------------------------------ reqlog --
//
// lsqscale-reqlog-v1: the durable request log under --spool-dir.
// Magic, then one frame per record (the frame codec in
// sample/serialize.hh, shared with the sweep journal) where payload is
//   u8 type 1 (Accepted): u64 id, SweepRequestSpec
//   u8 type 2 (Finished): u64 id, u8 terminal DoneSummary state
// Appends are fsync'd: an Accepted record survives any later SIGKILL,
// which is what makes restart re-adoption possible at all.

/** File magic, first 8 bytes of every reqlog. */
inline constexpr char kReqlogMagic[8] = {'L', 'S', 'Q', 'R',
                                         'Q', 'L', 'G', '1'};

/** One request's reqlog verdict, deduplicated latest-wins. */
struct ReqlogEntry
{
    std::uint64_t id = 0;
    SweepRequestSpec spec;
    bool finished = false;
    std::uint8_t finalState = 0; ///< DoneSummary state when finished
};

/** The reqlog's framed-file format: every append is fsync'd. */
inline constexpr FramedFileFormat kReqlogFormat{
    kReqlogMagic, "reqlog", "lsqscale-reqlog-v1", /*durable=*/true};

/** Append (write + fsync) one Accepted record to an open reqlog. */
bool reqlogAppendAccepted(FramedFileAppender &log, std::uint64_t id,
                          const SweepRequestSpec &spec,
                          std::string &error);

/** Append (write + fsync) one Finished record to an open reqlog. */
bool reqlogAppendFinished(FramedFileAppender &log, std::uint64_t id,
                          std::uint8_t state, std::string &error);

/**
 * Parse @p path into id-ordered, deduplicated entries. Same failure
 * contract as readJournal(): only an unusable file (unreadable / bad
 * magic) fails; a torn tail just ends the walk early.
 */
bool readReqlog(const std::string &path, std::vector<ReqlogEntry> &out,
                std::string &error);

/** Lifecycle of one submitted request. */
enum class RequestState : std::uint8_t
{
    Queued,    ///< accepted, waiting for the executor
    Running,   ///< sweep in flight
    Done,      ///< completed (cells may still be poisoned)
    Cancelled, ///< cancelled before or during execution
    Failed,    ///< the request itself errored (not a poisoned cell)
};

const char *requestStateName(RequestState s);

struct ServeRequest;

class Daemon
{
  public:
    explicit Daemon(ServeOptions opts);
    ~Daemon();

    /**
     * Bind the socket and serve until a Shutdown command arrives.
     * Returns a process exit code. Callable once.
     */
    int run();

    /** Ask the accept loop to wind down (what Shutdown calls). */
    void requestShutdown() { shutdown_.store(true); }

    const CkptCache &cache() const { return *cache_; }

  private:
    void handleConnection(int fd);
    void handleSubmit(int fd, SerialReader &r);
    void handleAttach(int fd, SerialReader &r);
    void handleStatus(int fd, SerialReader &r);
    void handleCancel(int fd, SerialReader &r);
    void handleStats(int fd);
    void handleMetrics(int fd);
    /** Refresh --metrics-out if due (accept-loop cadence). */
    void maybeDumpMetrics(bool force);

    void executeRequest(const std::shared_ptr<ServeRequest> &req);
    void runSweepForRequest(const std::shared_ptr<ServeRequest> &req);
    /** Returns false when the client went away mid-stream. */
    bool streamRecords(int fd,
                       const std::shared_ptr<ServeRequest> &req,
                       std::uint64_t fromIndex);
    std::shared_ptr<ServeRequest> findRequest(std::uint64_t id);
    std::string statusJson(std::uint64_t id);

    /** Prepare the spool: compact the reqlog, open it for appends. */
    bool spoolInit();
    /** Re-adopt the compacted reqlog's unfinished requests. */
    void readoptRequests(const std::vector<ReqlogEntry> &unfinished);
    /** Record-stream byte accounting + budget enforcement. */
    void noteRecordBytes(std::size_t bytes);
    void enforceRecordBudget();
    /** Durably mark a terminal request finished, drop its journal. */
    void finishRequest(const std::shared_ptr<ServeRequest> &req);

    ServeOptions opts_;
    std::unique_ptr<CkptCache> cache_;
    std::unique_ptr<JobPool> clients_;
    std::unique_ptr<JobPool> executor_;
    std::atomic<bool> shutdown_{false};
    int listenFd_ = -1;
    bool ran_ = false;
    std::uint64_t lastMetricsDumpNs_ = 0;

    std::mutex reqlogMu_;
    std::string reqlogPath_;
    FramedFileAppender reqlog_;

    /** Live (accepted, not yet terminal-and-accounted) requests. */
    std::atomic<unsigned> activeRequests_{0};
    /** Bytes across every request's retained record stream. */
    std::atomic<std::uint64_t> retainedBytes_{0};

    std::mutex requestsMu_;
    std::uint64_t nextId_ = 1;
    std::map<std::uint64_t, std::shared_ptr<ServeRequest>> requests_;
};

} // namespace lsqscale

#endif // LSQSCALE_SERVE_DAEMON_HH
