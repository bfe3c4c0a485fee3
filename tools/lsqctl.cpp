/**
 * @file
 * lsqctl — client for the lsqd design-space daemon (docs/SERVICE.md).
 *
 *   lsqctl submit --config L [--config L...] --bench B[,B...] [opts]
 *       submit a sweep grid; streams progress until done (or --detach
 *       returns immediately with the request id)
 *   lsqctl attach ID [--from N]   (re)attach to a request's stream
 *   lsqctl results ID             lsqscale-sweep-v1 JSON to stdout
 *   lsqctl status [ID]            request table as JSON
 *   lsqctl stats                  daemon + checkpoint-cache counters
 *                                 (incl. the live lsq_* metrics)
 *   lsqctl metrics                lsqscale-metrics-v1 registry dump
 *   lsqctl cancel ID              cancel a queued/running request
 *   lsqctl shutdown               drain and stop the daemon
 *
 * The daemon socket comes from --socket or LSQSCALE_SERVE_SOCKET.
 * submit/attach accept --journal FILE to tee the record stream into a
 * lsqscale-journal-v1 file (torn if the stream drops — reattach with
 * --from and append resumes it) and --json FILE to write the final
 * results document.
 *
 * Resilience (docs/SERVICE.md): --retries N / --backoff-ms N (or
 * LSQSCALE_CLIENT_RETRIES / LSQSCALE_CLIENT_BACKOFF_MS) arm
 * exponential-backoff recovery. A submit refused with Overloaded
 * re-submits after the daemon's retry_after_ms hint (only that
 * refusal is retried — a transport error mid-submit could mean the
 * daemon accepted it, and blind re-submission would run the grid
 * twice). A dropped record stream transparently re-attaches at the
 * last index received — surviving even a daemon SIGKILL + restart —
 * and the backoff counter resets whenever a reconnect makes progress.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/journal.hh"
#include "harness/sink.hh"
#include "serve/client.hh"
#include "serve/registry.hh"

using namespace lsqscale;

namespace {

int
usage(std::FILE *out)
{
    std::fputs(
        "usage: lsqctl [--socket PATH] [--retries N] [--backoff-ms N]\n"
        "              COMMAND ...\n"
        "\n"
        "  --retries N     recover from overload refusals and dropped\n"
        "                  streams with up to N backoff retries\n"
        "                  (default $LSQSCALE_CLIENT_RETRIES or 0)\n"
        "  --backoff-ms N  exponential backoff base, doubling per\n"
        "                  attempt, capped at 10 s (default\n"
        "                  $LSQSCALE_CLIENT_BACKOFF_MS or 250)\n"
        "\n"
        "  submit --config LABEL... --bench NAME[,NAME...]\n"
        "         [--name S] [--insts N] [--warmup N] [--seed N]\n"
        "         [--base-seed N] [--ff N] [--jobs N]\n"
        "         [--journal FILE] [--json FILE] [--detach] [--quiet]\n"
        "  attach ID [--from N] [--journal FILE] [--json FILE]\n"
        "         [--quiet]\n"
        "  results ID\n"
        "  status [ID]\n"
        "  stats\n"
        "  metrics\n"
        "  cancel ID\n"
        "  shutdown\n"
        "\n"
        "Design-point labels: ",
        out);
    std::fputs(registryHelp().c_str(), out);
    std::fputs("\n", out);
    return out == stdout ? 0 : 2;
}

std::string
socketFromEnv()
{
    const char *env = std::getenv("LSQSCALE_SERVE_SOCKET");
    return env != nullptr ? env : "";
}

/** Append v, split on commas, to out. */
void
pushSplit(std::vector<std::string> &out, const std::string &v)
{
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = v.find(',', start);
        if (comma == std::string::npos) {
            if (start < v.size())
                out.push_back(v.substr(start));
            return;
        }
        if (comma > start)
            out.push_back(v.substr(start, comma - start));
        start = comma + 1;
    }
}

bool
parseCount(const std::string &flag, const std::string &v,
           std::uint64_t &out)
{
    if (!parseDigitsU64(v, out)) {
        std::fprintf(stderr,
                     "lsqctl: %s wants a plain decimal count, got "
                     "'%s'\n",
                     flag.c_str(), v.c_str());
        return false;
    }
    return true;
}

/** Backoff policy, armed by --retries/--backoff-ms (or the envs). */
struct RetryPolicy
{
    std::uint64_t retries = 0;    ///< extra attempts after the first
    std::uint64_t backoffMs = 250; ///< base; doubles per attempt
};

RetryPolicy g_retry;

std::uint64_t
backoffDelayMs(std::uint64_t base, std::uint64_t attempt)
{
    std::uint64_t wait = base == 0 ? 1 : base;
    for (std::uint64_t i = 0; i < attempt && wait < 10000; ++i)
        wait *= 2;
    return wait > 10000 ? 10000 : wait;
}

void
sleepMs(std::uint64_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Shared record-stream consumer for submit/attach/results. */
struct StreamOptions
{
    std::string journalPath; ///< tee records to this journal file
    std::string jsonPath;    ///< write the results document here
    bool quiet = false;      ///< suppress per-record progress
    bool wantJson = false;   ///< render results JSON to stdout
};

/**
 * Pump the stream after submit/attach. Returns the process exit code:
 * 0 all cells ok, 1 poisoned/cancelled/failed, 3 transport error.
 */
int
pumpStream(ServeClient &client, std::uint64_t id,
           std::uint64_t fromIndex, const StreamOptions &opts)
{
    JournalAccumulator acc;
    FramedFileAppender journal;
    std::string journalError;
    if (!opts.journalPath.empty() &&
        !journal.open(opts.journalPath, kJournalFormat,
                      /*fresh=*/fromIndex == 0, journalError)) {
        std::fprintf(stderr, "lsqctl: %s\n", journalError.c_str());
        return 3;
    }

    std::uint64_t lastIndex = fromIndex;
    DoneSummary done;
    std::string error;
    auto onRecord = [&](std::uint64_t index,
                        const std::string &payload) {
        lastIndex = index + 1;
        std::string recErr;
        if (!acc.add(payload, recErr))
            std::fprintf(stderr,
                         "lsqctl: skipping bad record %llu: %s\n",
                         static_cast<unsigned long long>(index),
                         recErr.c_str());
        if (journal.isOpen() && !journal.append(payload, journalError)) {
            std::fprintf(stderr, "lsqctl: journal %s: %s\n",
                         opts.journalPath.c_str(), journalError.c_str());
            journal.close();
        }
    };

    // Consume the stream; with retries armed, a dropped connection
    // re-attaches at the last index received (exponential backoff,
    // reset whenever a reconnect makes progress). The daemon replays
    // retained records from that index, so the resumed stream is
    // seamless — and after a daemon restart the re-adopted request
    // re-journals, so even that outage heals here.
    constexpr std::uint64_t kNoFloor = ~0ull;
    bool complete = false;
    bool streaming = true;
    std::uint64_t attempt = 0;
    for (;;) {
        if (streaming) {
            std::uint64_t before = lastIndex;
            std::uint64_t goneFloor = kNoFloor;
            complete = client.stream(onRecord, done, error,
                                     &goneFloor);
            if (complete)
                break;
            if (goneFloor != kNoFloor) {
                // The daemon evicted past our position; no retry can
                // recover the missing records.
                std::fprintf(
                    stderr, "lsqctl: cannot resume request %llu: %s\n",
                    static_cast<unsigned long long>(id),
                    error.c_str());
                return 3;
            }
            if (lastIndex > before)
                attempt = 0;
            streaming = false;
        }
        if (attempt >= g_retry.retries)
            break;
        std::uint64_t wait =
            backoffDelayMs(g_retry.backoffMs, attempt);
        ++attempt;
        if (!opts.quiet)
            std::fprintf(
                stderr,
                "lsqctl: stream dropped after record %llu (%s); "
                "reattaching in %llu ms (attempt %llu/%llu)\n",
                static_cast<unsigned long long>(lastIndex),
                error.c_str(),
                static_cast<unsigned long long>(wait),
                static_cast<unsigned long long>(attempt),
                static_cast<unsigned long long>(g_retry.retries));
        sleepMs(wait);
        std::string aerr;
        if (client.attach(id, lastIndex, aerr))
            streaming = true;
        else
            error = aerr;
    }

    if (!complete) {
        std::fprintf(stderr,
                     "lsqctl: stream dropped after record %llu: %s\n"
                     "lsqctl: resume with: lsqctl attach %llu "
                     "--from %llu\n",
                     static_cast<unsigned long long>(lastIndex),
                     error.c_str(),
                     static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(lastIndex));
        return 3;
    }

    JournalContents contents = acc.contents();
    SweepOutcome outcome =
        outcomeFromJournal(contents, done.jobs, done.seconds);
    if (!opts.quiet)
        std::fprintf(stderr,
                     "lsqctl: request %llu %s (%llu warm hit(s), "
                     "%llu warm miss(es))\n",
                     static_cast<unsigned long long>(id),
                     done.message.c_str(),
                     static_cast<unsigned long long>(done.warmHits),
                     static_cast<unsigned long long>(done.warmMisses));

    std::map<std::string, std::string> meta = {
        {"program", outcome.name},
        {"jobs", strfmt("%u", outcome.jobs)},
        {"cells", strfmt("%zu", contents.rows * contents.cols)},
    };
    if (opts.wantJson)
        std::fputs(JsonFileSink::render(outcome, meta).c_str(),
                   stdout);
    if (!opts.jsonPath.empty() &&
        !writeFileCreatingDirs(opts.jsonPath,
                               JsonFileSink::render(outcome, meta)))
        return 3;

    if (!journalError.empty())
        return 3; // the tee is short
    if (done.state != 0)
        return 1;
    return outcome.poisonedCells == 0 ? 0 : 1;
}

int
cmdSubmit(ServeClient &client, const std::vector<std::string> &args)
{
    SweepRequestSpec spec;
    StreamOptions sopts;
    bool detach = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        std::string v;
        auto value = [&]() {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "lsqctl: %s needs a value\n",
                             a.c_str());
                return false;
            }
            v = args[++i];
            return true;
        };
        std::uint64_t n = 0;
        if (a == "--config") {
            if (!value())
                return 2;
            pushSplit(spec.configs, v);
        } else if (a == "--bench") {
            if (!value())
                return 2;
            pushSplit(spec.benchmarks, v);
        } else if (a == "--name") {
            if (!value())
                return 2;
            spec.name = v;
        } else if (a == "--insts") {
            if (!value() || !parseCount(a, v, n))
                return 2;
            spec.instructions = n;
        } else if (a == "--warmup") {
            if (!value() || !parseCount(a, v, n))
                return 2;
            spec.warmup = n;
        } else if (a == "--seed") {
            if (!value() || !parseCount(a, v, n))
                return 2;
            spec.seed = n;
        } else if (a == "--base-seed") {
            if (!value() || !parseCount(a, v, n))
                return 2;
            spec.baseSeed = n;
        } else if (a == "--ff") {
            if (!value() || !parseCount(a, v, n))
                return 2;
            spec.ffInsts = n;
        } else if (a == "--jobs") {
            if (!value() || !parseCount(a, v, n) || n > 0xffffffffu)
                return 2;
            spec.jobs = static_cast<std::uint32_t>(n);
        } else if (a == "--journal") {
            if (!value())
                return 2;
            sopts.journalPath = v;
        } else if (a == "--json") {
            if (!value())
                return 2;
            sopts.jsonPath = v;
        } else if (a == "--detach") {
            detach = true;
        } else if (a == "--quiet") {
            sopts.quiet = true;
        } else {
            std::fprintf(stderr, "lsqctl: unknown submit flag '%s'\n",
                         a.c_str());
            return 2;
        }
    }
    for (const std::string &label : spec.configs) {
        std::string why;
        if (!validDesignLabel(label, why)) {
            std::fprintf(stderr, "lsqctl: %s\n", why.c_str());
            return 2;
        }
    }

    std::uint64_t id = 0;
    std::string error;
    std::uint64_t attempt = 0;
    for (;;) {
        std::uint64_t retryAfter = 0;
        if (client.submit(spec, id, error, &retryAfter))
            break;
        // Only an Overloaded refusal retries: the daemon provably
        // rejected the request, so re-submitting cannot double-run
        // it. Any other failure is ambiguous and surfaces instead.
        if (retryAfter == 0 || attempt >= g_retry.retries) {
            std::fprintf(stderr, "lsqctl: submit failed: %s\n",
                         error.c_str());
            return 3;
        }
        std::uint64_t wait =
            backoffDelayMs(g_retry.backoffMs, attempt);
        if (wait < retryAfter)
            wait = retryAfter;
        ++attempt;
        if (!sopts.quiet)
            std::fprintf(
                stderr,
                "lsqctl: %s; resubmitting in %llu ms (attempt "
                "%llu/%llu)\n",
                error.c_str(),
                static_cast<unsigned long long>(wait),
                static_cast<unsigned long long>(attempt),
                static_cast<unsigned long long>(g_retry.retries));
        sleepMs(wait);
    }
    if (detach) {
        std::printf("%llu\n", static_cast<unsigned long long>(id));
        return 0;
    }
    if (!sopts.quiet)
        std::fprintf(stderr, "lsqctl: request %llu accepted\n",
                     static_cast<unsigned long long>(id));
    return pumpStream(client, id, 0, sopts);
}

int
cmdAttach(ServeClient &client, const std::vector<std::string> &args)
{
    if (args.empty())
        return usage(stderr);
    std::uint64_t id = 0;
    if (!parseCount("attach", args[0], id))
        return 2;
    StreamOptions sopts;
    std::uint64_t from = 0;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        std::string v;
        auto value = [&]() {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "lsqctl: %s needs a value\n",
                             a.c_str());
                return false;
            }
            v = args[++i];
            return true;
        };
        if (a == "--from") {
            if (!value() || !parseCount(a, v, from))
                return 2;
        } else if (a == "--journal") {
            if (!value())
                return 2;
            sopts.journalPath = v;
        } else if (a == "--json") {
            if (!value())
                return 2;
            sopts.jsonPath = v;
        } else if (a == "--quiet") {
            sopts.quiet = true;
        } else {
            std::fprintf(stderr, "lsqctl: unknown attach flag '%s'\n",
                         a.c_str());
            return 2;
        }
    }
    std::string error;
    if (!client.attach(id, from, error)) {
        std::fprintf(stderr, "lsqctl: attach failed: %s\n",
                     error.c_str());
        return 3;
    }
    return pumpStream(client, id, from, sopts);
}

int
cmdResults(ServeClient &client, const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage(stderr);
    std::uint64_t id = 0;
    if (!parseCount("results", args[0], id))
        return 2;
    std::string error;
    if (!client.attach(id, 0, error)) {
        std::fprintf(stderr, "lsqctl: %s\n", error.c_str());
        return 3;
    }
    StreamOptions sopts;
    sopts.quiet = true;
    sopts.wantJson = true;
    return pumpStream(client, id, 0, sopts);
}

int
cmdJson(ServeClient &client, bool wantStats, std::uint64_t id)
{
    std::string json;
    std::string error;
    bool ok = wantStats ? client.stats(json, error)
                        : client.status(id, json, error);
    if (!ok) {
        std::fprintf(stderr, "lsqctl: %s\n", error.c_str());
        return 3;
    }
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string socket = socketFromEnv();
    g_retry.retries = envU64("LSQSCALE_CLIENT_RETRIES", 0);
    g_retry.backoffMs = envU64("LSQSCALE_CLIENT_BACKOFF_MS", 250);

    // Global flags before the command word.
    std::size_t at = 0;
    while (at < args.size()) {
        if (args[at] == "--socket" && at + 1 < args.size()) {
            socket = args[at + 1];
            at += 2;
        } else if (args[at] == "--retries" && at + 1 < args.size()) {
            if (!parseCount("--retries", args[at + 1],
                            g_retry.retries))
                return 2;
            at += 2;
        } else if (args[at] == "--backoff-ms" &&
                   at + 1 < args.size()) {
            if (!parseCount("--backoff-ms", args[at + 1],
                            g_retry.backoffMs))
                return 2;
            at += 2;
        } else if (args[at] == "--help" || args[at] == "-h") {
            return usage(stdout);
        } else {
            break;
        }
    }
    if (at >= args.size())
        return usage(stderr);
    std::string cmd = args[at];
    std::vector<std::string> rest(args.begin() +
                                      static_cast<long>(at) + 1,
                                  args.end());

    ServeClient client(socket);
    // Dialing gets a 10 s bound (a wedged daemon must not hang the
    // tool), but streamed reads stay unbounded: a big grid's next
    // record can legitimately be minutes away, and a daemon that
    // actually dies delivers EOF immediately anyway.
    client.setTimeouts(10000, 0);
    std::string error;
    if (cmd == "submit")
        return cmdSubmit(client, rest);
    if (cmd == "attach")
        return cmdAttach(client, rest);
    if (cmd == "results")
        return cmdResults(client, rest);
    if (cmd == "status") {
        std::uint64_t id = 0;
        if (rest.size() > 1)
            return usage(stderr);
        if (rest.size() == 1 && !parseCount("status", rest[0], id))
            return 2;
        return cmdJson(client, false, id);
    }
    if (cmd == "stats") {
        if (!rest.empty())
            return usage(stderr);
        return cmdJson(client, true, 0);
    }
    if (cmd == "metrics") {
        if (!rest.empty())
            return usage(stderr);
        std::string json;
        if (!client.metrics(json, error)) {
            std::fprintf(stderr, "lsqctl: %s\n", error.c_str());
            return 3;
        }
        std::printf("%s\n", json.c_str());
        return 0;
    }
    if (cmd == "cancel") {
        std::uint64_t id = 0;
        if (rest.size() != 1 || !parseCount("cancel", rest[0], id))
            return usage(stderr);
        if (!client.cancel(id, error)) {
            std::fprintf(stderr, "lsqctl: %s\n", error.c_str());
            return 3;
        }
        std::printf("request %llu cancelling\n",
                    static_cast<unsigned long long>(id));
        return 0;
    }
    if (cmd == "shutdown") {
        if (!rest.empty())
            return usage(stderr);
        if (!client.shutdown(error)) {
            std::fprintf(stderr, "lsqctl: %s\n", error.c_str());
            return 3;
        }
        std::printf("lsqd draining\n");
        return 0;
    }
    std::fprintf(stderr, "lsqctl: unknown command '%s'\n",
                 cmd.c_str());
    return usage(stderr);
}
