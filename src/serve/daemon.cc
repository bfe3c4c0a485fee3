#include "serve/daemon.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/job_pool.hh"
#include "harness/journal.hh"
#include "harness/proc_runner.hh"
#include "harness/sink.hh"
#include "metrics/hostprof.hh"
#include "metrics/metrics.hh"
#include "sample/checkpoint.hh"
#include "serve/registry.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workload/benchmark_profile.hh"

namespace fs = std::filesystem;

namespace lsqscale {

/** One submitted sweep: its spec, lifecycle, and record stream. */
struct ServeRequest
{
    std::uint64_t id = 0;
    SweepRequestSpec spec;
    std::atomic<bool> cancel{false};
    /** Accept time, for the lsq_serve_queue_wait_us span. */
    std::uint64_t submitNs = 0;

    /** Per-request journal under the spool (durable record copy). */
    std::string journalPath;
    /** True when a restarted daemon re-adopted this request. */
    bool readopted = false;
    /** Decoded journal contents for Sweep::setResume (readopted). */
    JournalContents resume;

    std::mutex mu;
    std::condition_variable cv;
    RequestState state = RequestState::Queued;
    /**
     * Journal record payloads still retained, in emission order.
     * Stream index i lives at records[i - recordsBase]; the budget
     * enforcer pops the front of terminal requests, advancing the
     * base (the request's Attach floor).
     */
    std::deque<std::string> records;
    std::uint64_t recordsBase = 0;
    /** Bytes across `records` (this request's retained share). */
    std::uint64_t recordBytes = 0;
    /** Valid once state is terminal. */
    DoneSummary summary;
};

namespace {

bool
terminal(RequestState s)
{
    return s == RequestState::Done || s == RequestState::Cancelled ||
           s == RequestState::Failed;
}

/**
 * Sink that appends each journal record to the request's in-memory
 * stream and wakes every attached client. Callbacks arrive under the
 * sweep engine's sink mutex, so ordering is already serialized.
 */
class StreamSink : public ResultSink
{
  public:
    StreamSink(std::shared_ptr<ServeRequest> req,
               std::function<void(std::size_t)> onBytes)
        : req_(std::move(req)), onBytes_(std::move(onBytes))
    {
    }

    void
    sweepBegin(const SweepOutcome &planned) override
    {
        push(encodeSweepBeginRecord(planned));
    }

    void
    cellDone(const SweepCell &cell) override
    {
        push(encodeCellRecord(journalCellFrom(cell)));
    }

  private:
    void
    push(std::string payload)
    {
        // Parent-side progress series: unlike lsq_serve_active_cells
        // (updated inside the cell job, which process isolation runs
        // in a forked child), this counter always moves in the daemon
        // process itself.
        metrics::counter("lsq_serve_records_streamed_total").add();
        std::size_t bytes = payload.size();
        {
            std::lock_guard<std::mutex> lock(req_->mu);
            req_->records.push_back(std::move(payload));
            req_->recordBytes += bytes;
            req_->cv.notify_all();
        }
        // Budget enforcement locks requestsMu_ then each request's mu,
        // so it must run after req_->mu is released.
        onBytes_(bytes);
    }

    std::shared_ptr<ServeRequest> req_;
    std::function<void(std::size_t)> onBytes_;
};

} // namespace

// ----------------------------------------------------------- options --

ServeOptions
resolveServeOptions(ServeOptions opts)
{
    if (opts.socketPath.empty()) {
        const char *env = std::getenv("LSQSCALE_SERVE_SOCKET");
        if (env != nullptr)
            opts.socketPath = env;
    }
    opts.cacheBudgetBytes =
        envU64("LSQSCALE_SERVE_CACHE_MB",
               opts.cacheBudgetBytes >> 20) << 20;
    std::uint64_t clients =
        envU64("LSQSCALE_SERVE_CLIENTS", opts.clientWorkers);
    if (clients < 1)
        clients = 1;
    if (clients > 256)
        clients = 256;
    opts.clientWorkers = static_cast<unsigned>(clients);
    std::uint64_t executors =
        envU64("LSQSCALE_SERVE_EXECUTORS", opts.executors);
    if (executors < 1)
        executors = 1;
    if (executors > 64)
        executors = 64;
    opts.executors = static_cast<unsigned>(executors);
    std::uint64_t maxQueue =
        envU64("LSQSCALE_SERVE_MAX_QUEUE", opts.maxQueueDepth);
    if (maxQueue < 1)
        maxQueue = 1;
    if (maxQueue > 4096)
        maxQueue = 4096;
    opts.maxQueueDepth = static_cast<unsigned>(maxQueue);
    opts.recordBudgetBytes =
        envU64("LSQSCALE_SERVE_RECORD_MB",
               opts.recordBudgetBytes >> 20) << 20;
    if (opts.spoolDir.empty()) {
        const char *env = std::getenv("LSQSCALE_SERVE_SPOOL");
        if (env != nullptr)
            opts.spoolDir = env;
    }
    return opts;
}

bool
parseServeArgs(const std::vector<std::string> &args, ServeOptions &opts,
               std::string &error)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        std::string v;
        auto value = [&]() {
            if (i + 1 >= args.size())
                return false;
            v = args[++i];
            return true;
        };
        if (a == "--socket") {
            if (!value()) {
                error = "--socket needs a path";
                return false;
            }
            opts.socketPath = v;
        } else if (a == "--cache-dir") {
            if (!value()) {
                error = "--cache-dir needs a path";
                return false;
            }
            opts.cacheDir = v;
        } else if (a == "--cache-mb") {
            std::uint64_t mb = 0;
            if (!value() || !parseDigitsU64(v, mb) ||
                mb > (UINT64_MAX >> 20)) {
                error = "--cache-mb needs a plain decimal megabyte "
                        "count";
                return false;
            }
            opts.cacheBudgetBytes = mb << 20;
        } else if (a == "--clients") {
            std::uint64_t n = 0;
            if (!value() || !parseDigitsU64(v, n) || n == 0 ||
                n > 256) {
                error = "--clients needs a count in 1..256";
                return false;
            }
            opts.clientWorkers = static_cast<unsigned>(n);
        } else if (a == "--executors") {
            std::uint64_t n = 0;
            if (!value() || !parseDigitsU64(v, n) || n == 0 ||
                n > 64) {
                error = "--executors needs a count in 1..64";
                return false;
            }
            opts.executors = static_cast<unsigned>(n);
        } else if (a == "--max-queue") {
            std::uint64_t n = 0;
            if (!value() || !parseDigitsU64(v, n) || n == 0 ||
                n > 4096) {
                error = "--max-queue needs a count in 1..4096";
                return false;
            }
            opts.maxQueueDepth = static_cast<unsigned>(n);
        } else if (a == "--record-mb") {
            std::uint64_t mb = 0;
            if (!value() || !parseDigitsU64(v, mb) ||
                mb > (UINT64_MAX >> 20)) {
                error = "--record-mb needs a plain decimal megabyte "
                        "count";
                return false;
            }
            opts.recordBudgetBytes = mb << 20;
        } else if (a == "--spool-dir") {
            if (!value()) {
                error = "--spool-dir needs a path";
                return false;
            }
            opts.spoolDir = v;
        } else if (a == "--metrics-out") {
            if (!value()) {
                error = "--metrics-out needs a path";
                return false;
            }
            opts.metricsOutPath = v;
        } else if (a == "--isolation") {
            if (!value() || (v != "thread" && v != "process")) {
                error = "--isolation needs 'thread' or 'process'";
                return false;
            }
            opts.isolation = v == "thread" ? IsolationMode::Thread
                                           : IsolationMode::Process;
        } else {
            error = "unknown flag '" + a + "'";
            return false;
        }
    }
    return true;
}

const char *
requestStateName(RequestState s)
{
    switch (s) {
      case RequestState::Queued:
        return "queued";
      case RequestState::Running:
        return "running";
      case RequestState::Done:
        return "done";
      case RequestState::Cancelled:
        return "cancelled";
      case RequestState::Failed:
        return "failed";
    }
    return "?";
}

// ------------------------------------------------------------ reqlog --

namespace {

constexpr std::uint8_t kReqAccepted = 1;
constexpr std::uint8_t kReqFinished = 2;

} // namespace

bool
reqlogAppendAccepted(FramedFileAppender &log, std::uint64_t id,
                     const SweepRequestSpec &spec, std::string &error)
{
    SerialWriter w;
    w.u8(kReqAccepted);
    w.u64(id);
    spec.encode(w);
    return log.append(w.buffer(), error);
}

bool
reqlogAppendFinished(FramedFileAppender &log, std::uint64_t id,
                     std::uint8_t state, std::string &error)
{
    SerialWriter w;
    w.u8(kReqFinished);
    w.u64(id);
    w.u8(state);
    return log.append(w.buffer(), error);
}

bool
readReqlog(const std::string &path, std::vector<ReqlogEntry> &out,
           std::string &error)
{
    FrameWalk walk;
    if (!readFramedFile(path, kReqlogFormat, walk, error))
        return false;

    std::map<std::uint64_t, ReqlogEntry> entries;
    for (const std::string &payload : walk.payloads) {
        try {
            SerialReader r(payload);
            std::uint8_t type = r.u8();
            if (type == kReqAccepted) {
                ReqlogEntry e;
                e.id = r.u64();
                e.spec = SweepRequestSpec::decode(r);
                r.expectEnd("reqlog accepted record");
                entries[e.id] = std::move(e);
            } else if (type == kReqFinished) {
                std::uint64_t id = r.u64();
                std::uint8_t state = r.u8();
                r.expectEnd("reqlog finished record");
                auto it = entries.find(id);
                if (it != entries.end()) {
                    it->second.finished = true;
                    it->second.finalState = state;
                }
            }
            // Unknown types: skip, like the journal reader.
        } catch (const SerialError &e) {
            LSQ_WARN("reqlog %s: bad record (%s); ignoring the rest",
                     path.c_str(), e.what());
            break;
        }
    }

    out.clear();
    for (auto &kv : entries)
        out.push_back(std::move(kv.second));
    return true;
}

// ------------------------------------------------------------ daemon --

Daemon::Daemon(ServeOptions opts) : opts_(std::move(opts))
{
    if (opts_.isolation == IsolationMode::Auto)
        opts_.isolation = IsolationMode::Process;
    if (opts_.cacheDir.empty())
        opts_.cacheDir = opts_.socketPath + ".cache";
    cache_ = std::make_unique<CkptCache>(opts_.cacheDir,
                                         opts_.cacheBudgetBytes);
}

Daemon::~Daemon()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

int
Daemon::run()
{
    LSQ_ASSERT(!ran_, "Daemon::run() is single-shot");
    ran_ = true;
    if (opts_.socketPath.empty()) {
        LSQ_WARN("lsqd: no socket path (use --socket or "
                 "LSQSCALE_SERVE_SOCKET)");
        return 2;
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
        LSQ_WARN("lsqd: socket path %s exceeds the %zu-byte sun_path "
                 "limit",
                 opts_.socketPath.c_str(), sizeof(addr.sun_path) - 1);
        return 2;
    }
    std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                opts_.socketPath.size() + 1);

    // A stale socket file from a dead daemon would make bind() fail —
    // but blindly unlinking would silently steal a *live* daemon's
    // socket (its clients reconnect to us mid-stream, with a different
    // request table). Probe first: only an unanswered socket file is
    // stale and safe to remove.
    if (fs::exists(opts_.socketPath)) {
        int pfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (pfd < 0) {
            LSQ_WARN("lsqd: socket(): %s", std::strerror(errno));
            return 1;
        }
        int prc = ::connect(pfd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr));
        ::close(pfd);
        if (prc == 0) {
            LSQ_WARN("lsqd: a live daemon already answers on %s; "
                     "refusing to steal its socket (shut it down "
                     "first, or pick another --socket)",
                     opts_.socketPath.c_str());
            return 1;
        }
    }
    std::error_code ec;
    fs::remove(opts_.socketPath, ec);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        LSQ_WARN("lsqd: socket(): %s", std::strerror(errno));
        return 1;
    }
    int rc = ::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr));
    if (rc != 0) {
        LSQ_WARN("lsqd: bind(%s): %s", opts_.socketPath.c_str(),
                 std::strerror(errno));
        return 1;
    }
    rc = ::listen(listenFd_, 16);
    if (rc != 0) {
        LSQ_WARN("lsqd: listen(): %s", std::strerror(errno));
        return 1;
    }

    if (!spoolInit())
        return 1;
    std::vector<ReqlogEntry> unfinished;
    {
        std::vector<ReqlogEntry> entries;
        std::string rerr;
        if (readReqlog(reqlogPath_, entries, rerr)) {
            for (ReqlogEntry &e : entries) {
                if (e.id >= nextId_)
                    nextId_ = e.id + 1;
                if (!e.finished)
                    unfinished.push_back(std::move(e));
            }
        } else {
            LSQ_WARN("lsqd: %s; starting with an empty queue",
                     rerr.c_str());
        }
    }

    executor_ = std::make_unique<JobPool>(opts_.executors);
    clients_ = std::make_unique<JobPool>(opts_.clientWorkers);
    readoptRequests(unfinished);
    logLine(stderr,
            strfmt("lsqd: listening on %s (cache %s, budget %llu MiB, "
                   "%u executor%s, %s isolation)",
                   opts_.socketPath.c_str(), opts_.cacheDir.c_str(),
                   static_cast<unsigned long long>(
                       opts_.cacheBudgetBytes >> 20),
                   opts_.executors, opts_.executors == 1 ? "" : "s",
                   opts_.isolation == IsolationMode::Thread
                       ? "thread"
                       : "process"));

    while (!shutdown_.load()) {
        // The 200 ms poll timeout doubles as the telemetry heartbeat:
        // the loop passes here at least ~5x/s even when idle.
        maybeDumpMetrics(false);
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        int pr = ::poll(&pfd, 1, 200);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            LSQ_WARN("lsqd: poll(): %s", std::strerror(errno));
            break;
        }
        if (pr == 0)
            continue;
        int cfd = ::accept(listenFd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno != EINTR)
                LSQ_WARN("lsqd: accept(): %s", std::strerror(errno));
            continue;
        }
        clients_->submit([this, cfd] { handleConnection(cfd); });
    }

    ::close(listenFd_);
    listenFd_ = -1;
    // Graceful drain: in-flight and queued requests complete (their
    // attached clients get full streams), then the pools join.
    clients_->wait();
    executor_->wait();
    clients_.reset();
    executor_.reset();
    maybeDumpMetrics(true); // final totals survive the shutdown
    fs::remove(opts_.socketPath, ec);
    logLine(stderr, "lsqd: shut down");
    return 0;
}

bool
Daemon::spoolInit()
{
    if (opts_.spoolDir.empty())
        opts_.spoolDir = opts_.socketPath + ".spool";
    std::error_code ec;
    fs::create_directories(opts_.spoolDir, ec);
    if (ec) {
        LSQ_WARN("lsqd: cannot create spool %s: %s",
                 opts_.spoolDir.c_str(), ec.message().c_str());
        return false;
    }
    reqlogPath_ = opts_.spoolDir + "/reqlog";

    // Compact: rewrite the log as just its unfinished Accepted
    // records. Finished requests stop costing restart time, and the
    // log cannot grow without bound across restarts. nextId_ comes
    // from the *pre*-compaction log so finished ids are never reused.
    if (fs::exists(reqlogPath_)) {
        std::vector<ReqlogEntry> entries;
        std::string rerr;
        if (!readReqlog(reqlogPath_, entries, rerr)) {
            LSQ_WARN("lsqd: %s; renaming it aside and starting a "
                     "fresh log",
                     rerr.c_str());
            fs::rename(reqlogPath_, reqlogPath_ + ".bad", ec);
            if (ec) {
                LSQ_WARN("lsqd: cannot move bad reqlog aside: %s",
                         ec.message().c_str());
                return false;
            }
        } else {
            for (const ReqlogEntry &e : entries)
                if (e.id >= nextId_)
                    nextId_ = e.id + 1;
            // A crashed compaction's leftover .tmp is truncated.
            std::string tmp = reqlogPath_ + ".tmp";
            std::string werr;
            FramedFileAppender compacted;
            bool ok = compacted.open(tmp, kReqlogFormat,
                                     /*fresh=*/true, werr);
            for (const ReqlogEntry &e : entries) {
                if (!ok)
                    break;
                if (!e.finished)
                    ok = reqlogAppendAccepted(compacted, e.id, e.spec,
                                              werr);
            }
            if (!compacted.close() && ok) {
                ok = false;
                werr = strfmt("close failed: %s",
                              std::strerror(errno));
            }
            if (ok) {
                fs::rename(tmp, reqlogPath_, ec);
                if (ec) {
                    ok = false;
                    werr = ec.message();
                }
            }
            if (!ok) {
                // The old log is intact and every record in it is
                // fsync'd, so keeping it is strictly safe — just
                // uncompacted.
                LSQ_WARN("lsqd: reqlog compaction failed (%s); "
                         "keeping the old log",
                         werr.c_str());
                fs::remove(tmp, ec);
            }
        }
    }

    std::string oerr;
    if (!reqlog_.open(reqlogPath_, kReqlogFormat, /*fresh=*/false,
                      oerr)) {
        LSQ_WARN("lsqd: %s", oerr.c_str());
        return false;
    }
    return true;
}

void
Daemon::readoptRequests(const std::vector<ReqlogEntry> &unfinished)
{
    std::set<std::uint64_t> keep;
    for (const ReqlogEntry &e : unfinished)
        keep.insert(e.id);

    // Janitor: a per-request journal whose request already finished
    // (or never reached the log) is dead weight from a prior life.
    std::error_code ec;
    for (const auto &ent : fs::directory_iterator(opts_.spoolDir, ec)) {
        std::string name = ent.path().filename().string();
        if (name.size() < 13 || name.compare(0, 4, "req_") != 0 ||
            name.compare(name.size() - 8, 8, ".journal") != 0)
            continue;
        std::uint64_t id = 0;
        if (!parseDigitsU64(name.substr(4, name.size() - 12), id))
            continue;
        if (keep.count(id) == 0) {
            std::error_code rec;
            fs::remove(ent.path(), rec);
        }
    }

    for (const ReqlogEntry &e : unfinished) {
        auto req = std::make_shared<ServeRequest>();
        req->id = e.id;
        req->spec = e.spec;
        req->submitNs = hostNowNs();
        req->readopted = true;
        req->journalPath =
            strfmt("%s/req_%llu.journal", opts_.spoolDir.c_str(),
                   static_cast<unsigned long long>(e.id));

        // Rebuild the in-memory record stream from the journal in raw
        // file order — the exact order the dead daemon streamed it —
        // so a client resuming with Attach(fromIndex) still sees the
        // indices it counted on.
        if (fs::exists(req->journalPath)) {
            std::vector<std::string> payloads;
            std::string jerr;
            if (readJournal(req->journalPath, req->resume, jerr,
                            &payloads)) {
                for (std::string &p : payloads) {
                    req->recordBytes += p.size();
                    req->records.push_back(std::move(p));
                }
                std::uint64_t bytes = req->recordBytes;
                if (bytes > 0) {
                    std::uint64_t now =
                        retainedBytes_.fetch_add(bytes) + bytes;
                    metrics::gauge("lsq_serve_retained_record_bytes")
                        .set(static_cast<std::int64_t>(now));
                }
            } else {
                // Appending to a foreign file would fail: start over.
                LSQ_WARN("lsqd: %s; request %llu re-runs from "
                         "scratch",
                         jerr.c_str(),
                         static_cast<unsigned long long>(e.id));
                fs::remove(req->journalPath, ec);
            }
        }

        {
            std::lock_guard<std::mutex> lock(requestsMu_);
            requests_[req->id] = req;
        }
        activeRequests_.fetch_add(1);
        metrics::counter("lsq_serve_readopted_total").add();
        metrics::gauge("lsq_serve_queue_depth").add();
        logLine(stderr,
                strfmt("lsqd: re-adopted request %llu '%s' (%zu "
                       "records already journaled)",
                       static_cast<unsigned long long>(req->id),
                       req->spec.name.c_str(), req->records.size()));
        executor_->submit([this, req] { executeRequest(req); });
    }
}

void
Daemon::noteRecordBytes(std::size_t bytes)
{
    std::uint64_t now = retainedBytes_.fetch_add(bytes) + bytes;
    metrics::gauge("lsq_serve_retained_record_bytes")
        .set(static_cast<std::int64_t>(now));
    if (now > opts_.recordBudgetBytes)
        enforceRecordBudget();
}

void
Daemon::enforceRecordBudget()
{
    // Evict terminal requests' oldest records, oldest request first,
    // until back under budget; each pop advances that request's
    // Attach floor. Live requests are exempt — their attached clients
    // are still consuming the stream — so the budget can transiently
    // overshoot while everything retained is live. Lock order:
    // requestsMu_, then each request's mu (the handleStats order).
    std::uint64_t evicted = 0;
    std::lock_guard<std::mutex> lock(requestsMu_);
    for (auto &kv : requests_) {
        if (retainedBytes_.load() <= opts_.recordBudgetBytes)
            break;
        ServeRequest &req = *kv.second;
        std::lock_guard<std::mutex> rlock(req.mu);
        if (!terminal(req.state))
            continue;
        while (!req.records.empty() &&
               retainedBytes_.load() > opts_.recordBudgetBytes) {
            std::size_t n = req.records.front().size();
            req.records.pop_front();
            ++req.recordsBase;
            req.recordBytes -= n;
            retainedBytes_.fetch_sub(n);
            ++evicted;
        }
    }
    if (evicted > 0) {
        metrics::counter("lsq_serve_records_evicted_total")
            .add(evicted);
        metrics::gauge("lsq_serve_retained_record_bytes")
            .set(static_cast<std::int64_t>(retainedBytes_.load()));
    }
}

void
Daemon::finishRequest(const std::shared_ptr<ServeRequest> &req)
{
    std::uint8_t state = 0;
    {
        std::lock_guard<std::mutex> lock(req->mu);
        if (!terminal(req->state))
            return;
        state = req->summary.state;
    }
    bool marked = false;
    {
        std::lock_guard<std::mutex> lock(reqlogMu_);
        if (reqlog_.isOpen()) {
            std::string err;
            marked = reqlogAppendFinished(reqlog_, req->id, state, err);
            if (!marked)
                LSQ_WARN("lsqd: cannot mark request %llu finished: "
                         "%s (a restart re-adopts it, idempotently)",
                         static_cast<unsigned long long>(req->id),
                         err.c_str());
        }
    }
    // The journal only exists to make re-adoption cheap; once the
    // Finished marker is durable, it is garbage. If marking failed,
    // keep it — the re-adopting daemon needs it.
    if (marked && !req->journalPath.empty()) {
        std::error_code ec;
        fs::remove(req->journalPath, ec);
    }
}

void
Daemon::maybeDumpMetrics(bool force)
{
    if (opts_.metricsOutPath.empty())
        return;
    std::uint64_t now = hostNowNs();
    if (!force && lastMetricsDumpNs_ != 0 &&
        now - lastMetricsDumpNs_ < 2000000000ull)
        return;
    lastMetricsDumpNs_ = now;
    writeFileCreatingDirs(opts_.metricsOutPath,
                          metrics::toJson(metrics::snapshot()));
}

void
Daemon::handleConnection(int fd)
{
    // A silent peer must not pin a client worker forever.
    timeval tv{};
    tv.tv_sec = 60;
    int rc = ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                          sizeof(tv));
    if (rc != 0)
        LSQ_WARN("lsqd: setsockopt(SO_RCVTIMEO): %s",
                 std::strerror(errno));

    std::string payload;
    std::string error;
    int got = recvFrame(fd, payload, error);
    if (got <= 0) {
        if (got < 0)
            LSQ_WARN("lsqd: dropping connection: %s", error.c_str());
        ::close(fd);
        return;
    }

    try {
        SerialReader r(payload);
        auto type = static_cast<ServeMsg>(r.u8());
        if (type == ServeMsg::Submit) {
            handleSubmit(fd, r);
        } else if (type == ServeMsg::Attach) {
            handleAttach(fd, r);
        } else if (type == ServeMsg::Status) {
            handleStatus(fd, r);
        } else if (type == ServeMsg::Cancel) {
            handleCancel(fd, r);
        } else if (type == ServeMsg::Stats) {
            handleStats(fd);
        } else if (type == ServeMsg::Metrics) {
            handleMetrics(fd);
        } else if (type == ServeMsg::Shutdown) {
            sendFrame(fd, msgAck(0, "draining"), error);
            requestShutdown();
        } else {
            sendFrame(fd,
                      msgError(strfmt("unexpected message type %u",
                                      static_cast<unsigned>(type))),
                      error);
        }
    } catch (const SerialError &e) {
        sendFrame(fd, msgError(strfmt("malformed message: %s",
                                      e.what())),
                  error);
    }
    ::close(fd);
}

void
Daemon::handleSubmit(int fd, SerialReader &r)
{
    std::string error;
    SweepRequestSpec spec = SweepRequestSpec::decode(r);
    r.expectEnd("submit message");

    std::string why;
    if (spec.name.empty())
        spec.name = "sweep";
    if (spec.configs.empty())
        why = "request names no design points";
    else if (spec.benchmarks.empty())
        why = "request names no benchmarks";
    else if (spec.instructions == 0)
        why = "request asks for a 0-instruction window";
    if (why.empty()) {
        for (const std::string &label : spec.configs)
            if (!validDesignLabel(label, why))
                break;
        for (const std::string &bench : spec.benchmarks) {
            if (!why.empty())
                break;
            if (!profileExists(bench))
                why = "unknown benchmark '" + bench + "'";
        }
    }
    if (!why.empty()) {
        sendFrame(fd, msgError(why), error);
        return;
    }

    // Admission control: beyond the live-request limit the daemon
    // answers with a structured refusal and a retry hint that grows
    // with the backlog, instead of queueing without bound.
    unsigned active = activeRequests_.load();
    for (;;) {
        if (active >= opts_.maxQueueDepth) {
            std::uint64_t wait =
                200ull * (active - opts_.maxQueueDepth + 1);
            if (wait < 100)
                wait = 100;
            if (wait > 10000)
                wait = 10000;
            metrics::counter("lsq_serve_overloaded_total").add();
            sendFrame(fd,
                      msgOverloaded(
                          wait,
                          strfmt("%u live requests (limit %u)",
                                 active, opts_.maxQueueDepth)),
                      error);
            return;
        }
        if (activeRequests_.compare_exchange_weak(active, active + 1))
            break;
    }

    auto req = std::make_shared<ServeRequest>();
    req->spec = std::move(spec);
    req->submitNs = hostNowNs();
    {
        std::lock_guard<std::mutex> lock(requestsMu_);
        req->id = nextId_++;
        requests_[req->id] = req;
    }
    req->journalPath =
        strfmt("%s/req_%llu.journal", opts_.spoolDir.c_str(),
               static_cast<unsigned long long>(req->id));
    {
        // Durable accept: once this record hits disk, a SIGKILL'd
        // daemon re-adopts the request on restart.
        std::lock_guard<std::mutex> lock(reqlogMu_);
        if (reqlog_.isOpen()) {
            std::string lerr;
            if (!reqlogAppendAccepted(reqlog_, req->id, req->spec, lerr))
                LSQ_WARN("lsqd: reqlog append failed: %s (request "
                         "%llu will not survive a restart)",
                         lerr.c_str(),
                         static_cast<unsigned long long>(req->id));
        }
    }
    metrics::counter("lsq_serve_requests_total").add();
    metrics::gauge("lsq_serve_queue_depth").add();
    logLine(stderr,
            strfmt("lsqd: request %llu '%s' accepted (%zu x %zu)",
                   static_cast<unsigned long long>(req->id),
                   req->spec.name.c_str(), req->spec.configs.size(),
                   req->spec.benchmarks.size()));
    executor_->submit([this, req] { executeRequest(req); });

    if (!sendFrame(fd, msgAck(req->id, "accepted"), error))
        return;
    streamRecords(fd, req, 0);
}

void
Daemon::handleAttach(int fd, SerialReader &r)
{
    std::uint64_t id = r.u64();
    std::uint64_t from = r.u64();
    r.expectEnd("attach message");
    std::string error;
    std::shared_ptr<ServeRequest> req = findRequest(id);
    if (req == nullptr) {
        sendFrame(fd,
                  msgError(strfmt("unknown request id %llu",
                                  static_cast<unsigned long long>(id))),
                  error);
        return;
    }
    if (from > 0)
        metrics::counter("lsq_serve_stream_resumes_total").add();
    if (!sendFrame(fd, msgAck(id, "attached"), error))
        return;
    streamRecords(fd, req, from);
}

void
Daemon::handleStatus(int fd, SerialReader &r)
{
    std::uint64_t id = r.u64();
    r.expectEnd("status message");
    std::string error;
    sendFrame(fd, msgInfo(statusJson(id)), error);
}

void
Daemon::handleCancel(int fd, SerialReader &r)
{
    std::uint64_t id = r.u64();
    r.expectEnd("cancel message");
    std::string error;
    std::shared_ptr<ServeRequest> req = findRequest(id);
    if (req == nullptr) {
        sendFrame(fd,
                  msgError(strfmt("unknown request id %llu",
                                  static_cast<unsigned long long>(id))),
                  error);
        return;
    }
    req->cancel.store(true);
    {
        // A still-queued request dies immediately; a running one
        // finishes in-flight cells and fails the rest fast.
        std::lock_guard<std::mutex> lock(req->mu);
        if (req->state == RequestState::Queued) {
            req->state = RequestState::Cancelled;
            req->summary.state = 1;
            req->summary.message = "cancelled before execution";
            req->cv.notify_all();
        }
    }
    sendFrame(fd, msgAck(id, "cancelling"), error);
}

void
Daemon::handleStats(int fd)
{
    std::size_t total = 0;
    std::size_t queued = 0;
    std::size_t running = 0;
    {
        std::lock_guard<std::mutex> lock(requestsMu_);
        total = requests_.size();
        for (const auto &kv : requests_) {
            std::lock_guard<std::mutex> rlock(kv.second->mu);
            if (kv.second->state == RequestState::Queued)
                ++queued;
            else if (kv.second->state == RequestState::Running)
                ++running;
        }
    }
    // The embedded "metrics" document is the live lsq_* registry;
    // the legacy top-level keys keep their exact shape for existing
    // consumers (check_serve_smoke.py greps "cache").
    std::string json = strfmt(
        "{\"requests_total\": %zu, \"queued\": %zu, \"running\": %zu, "
        "\"cache\": %s, \"metrics\": %s}",
        total, queued, running, cache_->statsJson().c_str(),
        metrics::toJson(metrics::snapshot()).c_str());
    std::string error;
    sendFrame(fd, msgInfo(json), error);
}

void
Daemon::handleMetrics(int fd)
{
    std::string error;
    sendFrame(fd, msgInfo(metrics::toJson(metrics::snapshot())),
              error);
}

std::shared_ptr<ServeRequest>
Daemon::findRequest(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(requestsMu_);
    auto it = requests_.find(id);
    return it == requests_.end() ? nullptr : it->second;
}

std::string
Daemon::statusJson(std::uint64_t id)
{
    std::vector<std::shared_ptr<ServeRequest>> reqs;
    {
        std::lock_guard<std::mutex> lock(requestsMu_);
        for (const auto &kv : requests_)
            if (id == 0 || kv.first == id)
                reqs.push_back(kv.second);
    }
    std::string out = "{\"requests\": [";
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto &req = reqs[i];
        std::lock_guard<std::mutex> lock(req->mu);
        out += strfmt(
            "%s{\"id\": %llu, \"name\": \"%s\", \"state\": \"%s\", "
            "\"cells\": %zu, \"records\": %llu, "
            "\"records_floor\": %llu, \"poisoned\": %llu}",
            i == 0 ? "" : ", ",
            static_cast<unsigned long long>(req->id),
            jsonEscape(req->spec.name).c_str(),
            requestStateName(req->state),
            req->spec.configs.size() * req->spec.benchmarks.size(),
            static_cast<unsigned long long>(req->recordsBase +
                                            req->records.size()),
            static_cast<unsigned long long>(req->recordsBase),
            static_cast<unsigned long long>(req->summary.poisoned));
    }
    out += "]}";
    return out;
}

bool
Daemon::streamRecords(int fd, const std::shared_ptr<ServeRequest> &req,
                      std::uint64_t fromIndex)
{
    std::string error;
    std::uint64_t next = fromIndex;
    for (;;) {
        std::vector<std::string> batch;
        bool isTerminal = false;
        bool gone = false;
        std::uint64_t floor = 0;
        DoneSummary done;
        {
            std::unique_lock<std::mutex> lock(req->mu);
            req->cv.wait(lock, [&] {
                return next < req->recordsBase ||
                       req->recordsBase + req->records.size() > next ||
                       terminal(req->state);
            });
            if (next < req->recordsBase) {
                // The budget enforcer evicted past this reader's
                // position: an explicit answer beats silently
                // resuming from the wrong index.
                gone = true;
                floor = req->recordsBase;
            } else {
                while (next <
                       req->recordsBase + req->records.size()) {
                    batch.push_back(req->records[static_cast<
                        std::size_t>(next - req->recordsBase)]);
                    ++next;
                }
                isTerminal = terminal(req->state);
                if (isTerminal)
                    done = req->summary;
            }
        }
        if (gone) {
            sendFrame(fd,
                      msgGone(req->id, floor,
                              "records below the retention floor "
                              "were evicted"),
                      error);
            return false;
        }
        std::uint64_t index = next - batch.size();
        if (!batch.empty()) {
            // One span per drained batch: a slow or stalled client
            // shows up as fat lsq_serve_stream_send_us tails.
            std::uint64_t sendT0 = hostNowNs();
            for (const std::string &payload : batch) {
                if (!sendFrame(fd, msgRecord(index, payload), error))
                    return false; // client went away; request carries on
                ++index;
            }
            metrics::histogram("lsq_serve_stream_send_us",
                               metrics::latencyBucketsUs())
                .observe((hostNowNs() - sendT0) / 1000);
        }
        if (isTerminal)
            return sendFrame(fd, msgDone(done), error);
    }
}

void
Daemon::executeRequest(const std::shared_ptr<ServeRequest> &req)
{
    // Every accepted request passes through here exactly once (even
    // if cancelled while queued), so the queue-depth gauge balances.
    metrics::gauge("lsq_serve_queue_depth").sub();
    metrics::histogram("lsq_serve_queue_wait_us",
                       metrics::latencyBucketsUs())
        .observe((hostNowNs() - req->submitNs) / 1000);
    bool skip = false;
    {
        std::lock_guard<std::mutex> lock(req->mu);
        if (req->state != RequestState::Queued)
            skip = true; // cancelled while queued
        else
            req->state = RequestState::Running;
    }
    if (!skip) {
        metrics::gauge("lsq_serve_active_requests").add();
        try {
            runSweepForRequest(req);
        } catch (const std::exception &e) {
            LSQ_WARN("lsqd: request %llu failed: %s",
                     static_cast<unsigned long long>(req->id),
                     e.what());
            std::lock_guard<std::mutex> lock(req->mu);
            req->state = RequestState::Failed;
            req->summary.state = 2;
            req->summary.message = e.what();
            req->cv.notify_all();
        } catch (...) {
            std::lock_guard<std::mutex> lock(req->mu);
            req->state = RequestState::Failed;
            req->summary.state = 2;
            req->summary.message = "unknown error";
            req->cv.notify_all();
        }
        metrics::gauge("lsq_serve_active_requests").sub();
    }
    // Terminal either way: durably mark it finished and release the
    // admission slot (every accepted or re-adopted request passes
    // through here exactly once).
    finishRequest(req);
    activeRequests_.fetch_sub(1);
}

void
Daemon::runSweepForRequest(const std::shared_ptr<ServeRequest> &req)
{
    const SweepRequestSpec &spec = req->spec;
    auto t0 = std::chrono::steady_clock::now();

    // Every checkpoint this request warms or restores from stays
    // pinned (eviction-proof) until the sweep is over — including the
    // throw/cancel exits, where the lease's destructor unpins.
    CkptCacheLease lease(*cache_);

    std::vector<NamedConfig> rows;
    for (const std::string &label : spec.configs)
        rows.push_back(registryNamedConfig(spec, label));

    // Warm phase: one functional fast-forward per distinct functional
    // fingerprint in the grid (most design points share one; atoms
    // that perturb functional state — e.g. the alias-free store set —
    // warm separately), each served from or inserted into the cache.
    std::uint64_t warmHits = 0;
    std::uint64_t warmMisses = 0;
    auto ckptByFp =
        std::make_shared<std::map<std::uint64_t, std::string>>();
    if (spec.ffInsts > 0) {
        std::uint64_t warmT0 = hostNowNs();
        std::set<std::uint64_t> seen;
        for (const NamedConfig &row : rows) {
            for (const std::string &bench : spec.benchmarks) {
                if (req->cancel.load())
                    break;
                SimConfig cfg = row.make(bench);
                std::uint64_t fp = functionalFingerprint(cfg);
                if (!seen.insert(fp).second)
                    continue;
                std::string cached = lease.pinLookup(fp, spec.ffInsts);
                if (!cached.empty()) {
                    ++warmHits;
                    (*ckptByFp)[fp] = cached;
                    continue;
                }
                ++warmMisses;
                std::string tmp = strfmt(
                    "%s/warm_%llu_%016llx.tmp",
                    cache_->dir().c_str(),
                    static_cast<unsigned long long>(req->id),
                    static_cast<unsigned long long>(fp));
                SimConfig wcfg = cfg;
                wcfg.ffInsts = spec.ffInsts;
                wcfg.saveCkptPath = tmp;
                bool ok = false;
                std::string werr;
                if (opts_.isolation == IsolationMode::Process) {
                    ProcOptions po;
                    // The functional fast-forward does not tick the
                    // heartbeat hook (it never enters Core::run), so a
                    // watchdog here would kill every healthy warm.
                    po.watchdog = std::chrono::milliseconds(0);
                    ProcOutcome out = runCellInProcess(
                        [wcfg] {
                            Simulator sim(wcfg);
                            return sim.run();
                        },
                        po);
                    ok = out.status == ProcStatus::Ok;
                    if (!ok)
                        werr = out.error;
                } else {
                    try {
                        Simulator sim(wcfg);
                        sim.run();
                        ok = true;
                    } catch (const std::exception &e) {
                        werr = e.what();
                    }
                }
                if (!ok) {
                    LSQ_WARN("lsqd: warm fast-forward failed for %s "
                             "(%s); cells fall back to cold "
                             "fast-forward",
                             bench.c_str(), werr.c_str());
                    continue;
                }
                std::string finalPath;
                std::string cerr;
                if (lease.insertPinned(fp, spec.ffInsts, tmp,
                                       finalPath, cerr))
                    (*ckptByFp)[fp] = finalPath;
                else
                    LSQ_WARN("lsqd: checkpoint rejected for %s: %s",
                             bench.c_str(), cerr.c_str());
            }
        }
        metrics::histogram("lsq_serve_warm_us",
                           metrics::latencyBucketsUs())
            .observe((hostNowNs() - warmT0) / 1000);
    }

    // Wrap each row factory so cells restore from the warmed
    // checkpoint when one exists, else pay the fast-forward
    // themselves. ckptByFp is immutable from here on — safe to share
    // across worker threads and forked children.
    std::vector<NamedConfig> wrapped;
    for (const NamedConfig &row : rows) {
        NamedConfig w;
        w.label = row.label;
        auto inner = row.make;
        std::uint64_t ff = spec.ffInsts;
        w.make = [inner, ff, ckptByFp](const std::string &bench) {
            SimConfig cfg = inner(bench);
            auto it = ckptByFp->find(functionalFingerprint(cfg));
            if (it != ckptByFp->end()) {
                cfg.loadCkptPath = it->second;
                cfg.ffInsts = 0;
            } else {
                cfg.ffInsts = ff;
            }
            return cfg;
        };
        wrapped.push_back(std::move(w));
    }

    SweepOptions sopts;
    sopts.name = spec.name;
    sopts.baseSeed = spec.baseSeed;
    sopts.jobs = spec.jobs;
    sopts.isolation = opts_.isolation;

    Sweep sweep(std::move(wrapped), spec.benchmarks, sopts);
    // The journal sink comes FIRST: a record reaches the durable
    // per-request journal before any client can see it streamed, so
    // after a crash the journal is always a superset of every
    // client's stream.
    JournalWriter journal(req->journalPath,
                          /*append=*/req->readopted);
    StreamSink stream(req,
                     [this](std::size_t n) { noteRecordBytes(n); });
    ProgressSink progress;
    sweep.addSink(&journal);
    sweep.addSink(&stream);
    sweep.addSink(&progress);
    if (req->readopted && !req->resume.cells.empty()) {
        // Cells already journaled by the previous life are restored
        // without re-running (and without re-streaming: setResume
        // fires no cellDone for them). The duplicate SweepBegin this
        // run emits is harmless — journal replay is later-record-wins.
        sweep.setResume(req->resume);
        req->resume = JournalContents();
    }
    std::shared_ptr<ServeRequest> rq = req;
    sweep.setJobFn(
        [rq](const SimConfig &cfg, const JobContext &ctx) {
            if (rq->cancel.load())
                throw std::runtime_error("request cancelled");
            // Live only under thread isolation: the process mode runs
            // this in a forked child, whose copy-on-write gauge the
            // daemon never sees (lsq_serve_records_streamed_total is
            // the always-parent-side progress series).
            metrics::Gauge &cells =
                metrics::gauge("lsq_serve_active_cells");
            cells.add();
            try {
                SimResult r = runSimulationJob(cfg, ctx);
                cells.sub();
                return r;
            } catch (...) {
                cells.sub();
                throw;
            }
        });

    std::uint64_t execT0 = hostNowNs();
    SweepOutcome outcome = sweep.run();
    metrics::histogram("lsq_serve_exec_us",
                       metrics::latencyBucketsUs())
        .observe((hostNowNs() - execT0) / 1000);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::lock_guard<std::mutex> lock(req->mu);
    bool cancelled = req->cancel.load();
    req->state =
        cancelled ? RequestState::Cancelled : RequestState::Done;
    req->summary.state = cancelled ? 1 : 0;
    req->summary.cells =
        spec.configs.size() * spec.benchmarks.size();
    req->summary.poisoned = outcome.poisonedCells;
    req->summary.jobs = outcome.jobs;
    req->summary.seconds = seconds;
    req->summary.warmHits = warmHits;
    req->summary.warmMisses = warmMisses;
    req->summary.message = outcome.summary();
    req->cv.notify_all();
    logLine(stderr,
            strfmt("lsqd: request %llu %s: %s",
                   static_cast<unsigned long long>(req->id),
                   requestStateName(req->state),
                   req->summary.message.c_str()));
}

} // namespace lsqscale
