/**
 * @file
 * perfbench: runs one benchmark workload against the simulator
 * libraries and prints one JSON object per line on stdout. run.py
 * builds this program, turns the lines into end-to-end and per-layer
 * metrics, and checks every simulated result they carry.
 *
 *   perfbench WORKLOAD --seed N --seconds S --trace 0|1 --dir DIR
 *             --t0-ns NS --lsqd PATH
 *
 * WORKLOAD is cell, grid or serve. The untraced run (--trace 0)
 * repeats the workload's round until S seconds of rounds have run and
 * reports each round's host wall and CPU time. The traced run
 * (--trace 1) times calls into each module's public functions from
 * this file: nothing inside src/ is instrumented for it.
 *
 * Line kinds: round (one measured round), setup (cold set-up time),
 * result (one simulated cell: counters, digest, design facts), error
 * (an operation that produced no result), layer (one per-layer
 * measurement), request and telemetry (lsqd latencies and stats).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "core/core.hh"
#include "harness/job_pool.hh"
#include "harness/journal.hh"
#include "harness/sink.hh"
#include "harness/sweep.hh"
#include "lsq/load_buffer.hh"
#include "lsq/lsq.hh"
#include "memory/memory_system.hh"
#include "metrics/hostprof.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/store_set.hh"
#include "sample/checkpoint.hh"
#include "serve/client.hh"
#include "serve/registry.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/address_stream.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_generator.hh"

extern char **environ;

using namespace lsqscale;

namespace {

// ------------------------------------------------------- workloads ---
//
// Sizes and workload seeds are fixed here, so every run of a workload
// does the same simulated work per round: a workload seed moves a
// cell's simulated cycles by up to a quarter. --seed only sets the
// order in which a round runs its cells (cell, grid) or lists its
// configs and benchmarks in the lsqd request (serve).

/** Workload seed of every grid and serve cell. */
constexpr std::uint64_t kWorkloadSeed = 1;

/**
 * cell: long base-machine cells, one SPECint and one SPECfp, each run
 * with two workload seeds.
 */
constexpr std::uint64_t kCellInsts = 250000;
const std::vector<std::string> kCellBenchmarks = {"gzip", "swim"};
const std::vector<std::uint64_t> kCellSeeds = {1, 2};

/** grid: short cells, all 18 profiles x four design points. */
constexpr std::uint64_t kGridInsts = 30000;

/**
 * serve: one cold fast-forward request, then warm resubmits. The
 * daemon runs each request's cells one at a time, so a request's time
 * is its fast-forward, checkpoint and streaming work, not how six
 * short cells happen to share four cores.
 */
constexpr std::uint64_t kServeFfInsts = 1000000;
constexpr std::uint64_t kServeInsts = 30000;
constexpr unsigned kServeWarmResubmits = 4;
const std::vector<std::string> kServeConfigs = {"base", "pair", "lb=2"};
const std::vector<std::string> kServeBenchmarks = {"gzip", "swim"};

/** Traced run: instructions replayed through each single layer. */
constexpr std::size_t kLayerOps = 300000;
/** Traced run: StatSet lookups by name. */
constexpr std::size_t kStatLookups = 2000000;

unsigned
workerCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw == 0 ? 1u : hw));
}

/**
 * @p v with its elements from index @p keep on in an order drawn from
 * @p seed (Fisher-Yates, splitmix64); the first @p keep stay in place.
 */
template <typename T>
std::vector<T>
seededOrder(std::vector<T> v, std::uint64_t seed, std::size_t keep = 0)
{
    std::uint64_t x = seed;
    for (std::size_t i = v.size(); i > keep + 1; --i) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        std::swap(v[i - 1], v[keep + z % (i - keep)]);
    }
    return v;
}

/**
 * The four grid design points, named as lsqd's registry names them:
 * base first, the others in the order @p seed gives.
 */
std::vector<NamedConfig>
gridRows(std::uint64_t seed)
{
    auto row = [](std::string label, SimConfig (*apply)(SimConfig)) {
        return NamedConfig{
            label, [apply](const std::string &bench) {
                SimConfig c = configs::base(bench);
                c.instructions = kGridInsts;
                c.seed = kWorkloadSeed;
                return apply(std::move(c));
            }};
    };
    return seededOrder<NamedConfig>({
        row("base", [](SimConfig c) { return c; }),
        row("pair", [](SimConfig c) {
            return configs::withPairPredictor(std::move(c));
        }),
        row("lb=2", [](SimConfig c) {
            return configs::withLoadBuffer(std::move(c), 2);
        }),
        row("all", [](SimConfig c) {
            return configs::allTechniques(std::move(c));
        }),
    }, seed, 1);
}

/**
 * All 18 profiles: gzip first, so the sweep's first cell, whose cold
 * set-up round 0 times, is always base/gzip; the others in the order
 * @p seed gives.
 */
std::vector<std::string>
gridBenchmarks(std::uint64_t seed)
{
    return seededOrder(allBenchmarks(), seed, 1);
}

std::string
cellKey(const SimConfig &cfg)
{
    return "base/" + cfg.benchmark + "@" + std::to_string(cfg.seed);
}

SimConfig
cellConfig(const std::string &bench, std::uint64_t workloadSeed)
{
    SimConfig c = configs::base(bench);
    c.instructions = kCellInsts;
    c.seed = workloadSeed;
    return c;
}

/**
 * One cell round's configs. The first, whose cold set-up round 0
 * times, is always the same; the others come in the order @p seed
 * gives.
 */
std::vector<SimConfig>
cellConfigs(std::uint64_t seed)
{
    std::vector<SimConfig> cfgs;
    for (std::uint64_t workloadSeed : kCellSeeds)
        for (const std::string &bench : kCellBenchmarks)
            cfgs.push_back(cellConfig(bench, workloadSeed));
    return seededOrder(std::move(cfgs), seed, 1);
}

SweepRequestSpec
serveSpec(std::uint64_t seed)
{
    SweepRequestSpec s;
    s.name = "perfbench-serve";
    s.configs = seededOrder(kServeConfigs, seed);
    s.benchmarks = seededOrder(kServeBenchmarks, seed);
    s.instructions = kServeInsts;
    s.seed = kWorkloadSeed;
    s.ffInsts = kServeFfInsts;
    s.jobs = 1;
    return s;
}

// ------------------------------------------------------- plumbing ----

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string dir = ".";
    std::uint64_t t0Ns = 0;
    std::string lsqd;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench cell|grid|serve --seed N --seconds S "
            "--trace 0|1 --dir DIR --t0-ns NS --lsqd PATH");
    Args a;
    a.workload = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        std::string v = argv[i + 1];
        if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--dir")
            a.dir = v;
        else if (k == "--t0-ns")
            a.t0Ns = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--lsqd")
            a.lsqd = v;
        else
            die("unknown option " + k);
    }
    if (a.workload != "cell" && a.workload != "grid" &&
        a.workload != "serve")
        die("unknown workload " + a.workload);
    if (a.t0Ns == 0)
        a.t0Ns = hostNowNs();
    return a;
}

/** One JSON object, built field by field and printed as one line. */
class Line
{
  public:
    explicit Line(const char *kind) { str("kind", kind); }

    Line &
    str(const char *k, const std::string &v)
    {
        key(k);
        s_ += "\"" + jsonEscape(v) + "\"";
        return *this;
    }

    Line &
    num(const char *k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        key(k);
        s_ += buf;
        return *this;
    }

    Line &
    u64(const char *k, std::uint64_t v)
    {
        key(k);
        s_ += std::to_string(v);
        return *this;
    }

    /** Insert @p json (valid JSON) as the value of @p k, on one line. */
    Line &
    raw(const char *k, const std::string &json)
    {
        key(k);
        for (char c : json)
            s_ += c == '\n' ? ' ' : c;
        return *this;
    }

    void
    print()
    {
        s_ += "}\n";
        std::fputs(s_.c_str(), stdout);
        std::fflush(stdout);
    }

  private:
    void
    key(const char *k)
    {
        s_ += s_.empty() ? "{" : ", ";
        s_ += "\"" + std::string(k) + "\": ";
    }

    std::string s_;
};

double
secondsSince(std::uint64_t t0Ns)
{
    return static_cast<double>(hostNowNs() - t0Ns) / 1e9;
}

/** User+sys CPU of this process and of every child it has reaped. */
double
cpuSeconds()
{
    double total = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec +
                                     ru.ru_stime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec +
                                     ru.ru_stime.tv_usec) /
                     1e6;
    }
    return total;
}

/** FNV-1a over a result's complete serialized form. */
std::string
digest(const SimResult &r)
{
    SerialWriter w;
    r.saveState(w);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : w.buffer()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

const char *
sqPolicyName(SqSearchPolicy p)
{
    switch (p) {
      case SqSearchPolicy::Always: return "always";
      case SqSearchPolicy::Perfect: return "perfect";
      case SqSearchPolicy::Pair: return "pair";
    }
    return "?";
}

const char *
loadCheckName(LoadCheckPolicy p)
{
    switch (p) {
      case LoadCheckPolicy::SearchLoadQueue: return "search-lq";
      case LoadCheckPolicy::LoadBuffer: return "load-buffer";
      case LoadCheckPolicy::InOrderAlwaysSearch: return "in-order-search";
      case LoadCheckPolicy::InOrder: return "in-order";
      case LoadCheckPolicy::None: return "none";
    }
    return "?";
}

/**
 * Print one simulated result with what its checks need: the counters,
 * a digest of the whole result, the instruction count asked for, the
 * design's SQ/LQ policies and its in-flight capacity (ROB plus the
 * fetch-to-dispatch buffer).
 */
void
emitResult(const std::string &workload, const std::string &path,
           unsigned round, const std::string &key, const SimConfig &cfg,
           const SimResult &r, double seconds = 0.0, unsigned request = 0)
{
    std::string counters = "{";
    bool first = true;
    for (const std::string &name : r.stats.counterNames()) {
        counters += (first ? "\"" : ", \"") + jsonEscape(name) +
                    "\": " + std::to_string(r.stats.value(name));
        first = false;
    }
    counters += "}";
    unsigned inflight = cfg.core.robEntries +
                        cfg.core.fetchWidth * (cfg.core.decodeDepth + 1);
    Line("result")
        .str("workload", workload)
        .str("path", path)
        .u64("round", round)
        .u64("request", request)
        .str("key", key)
        .u64("requested", effectiveInstructions(cfg.instructions))
        .u64("inflight_cap", inflight)
        .str("sq_policy", sqPolicyName(cfg.lsq.sqPolicy))
        .str("load_check", loadCheckName(cfg.lsq.loadCheck))
        .u64("cycles", r.cycles)
        .u64("committed", r.committed)
        .str("digest", digest(r))
        .num("seconds", seconds)
        .raw("counters", counters)
        .print();
}

void
emitError(const std::string &workload, const std::string &path,
          unsigned round, const std::string &key,
          const std::string &message, unsigned request = 0)
{
    Line("error")
        .str("workload", workload)
        .str("path", path)
        .u64("round", round)
        .u64("request", request)
        .str("key", key)
        .str("message", message)
        .print();
}

void
emitRound(unsigned round, double wall, double cpu,
          std::uint64_t committed)
{
    Line("round")
        .u64("round", round)
        .num("wall_s", wall)
        .num("cpu_s", cpu)
        .u64("committed", committed)
        .print();
}

void
emitLayer(const std::string &name, double value)
{
    Line("layer").str("name", name).num("value", value).print();
}

/**
 * Cold set-up: from the bench process's launch (--t0-ns, taken by run.py just
 * before it spawned this process) to @p readyNs.
 */
void
emitSetup(const Args &a, std::uint64_t readyNs)
{
    Line("setup")
        .num("setup_s", static_cast<double>(readyNs - a.t0Ns) / 1e9)
        .print();
}

/**
 * Run Simulator::run with the host profiler's coarse phases on, and
 * return the host time at which the measured window began: entry plus
 * the exactly timed set-up and warm-up phases. The caller's
 * environment sets a sparse run-loop sampling period, so the profiled
 * run costs the same as a plain one.
 */
SimResult
runNotingMeasureStart(const SimConfig &cfg, std::uint64_t &measureStartNs)
{
    HostProfiler &prof = HostProfiler::instance();
    prof.reset();
    HostProfiler::setEnabled(true);
    std::uint64_t t = hostNowNs();
    SimResult r = Simulator(cfg).run();
    HostProfiler::setEnabled(false);
    HostProfileSnapshot snap = prof.snapshot();
    auto ns = [&](HostPhase p) {
        return snap.phases[static_cast<std::size_t>(p)].ns;
    };
    measureStartNs = t + ns(HostPhase::Setup) + ns(HostPhase::Warmup);
    return r;
}

/** Run every (config, benchmark) cell alone, at most four at a time. */
template <typename MakeFn>
void
runAlone(const std::string &workload,
         const std::vector<std::string> &labels,
         const std::vector<std::string> &benches, MakeFn make)
{
    struct Slot
    {
        std::string key;
        SimConfig cfg;
        SimResult result;
        double seconds = 0.0;
        std::string error;
    };
    std::vector<Slot> slots;
    for (std::size_t r = 0; r < labels.size(); ++r)
        for (const std::string &b : benches)
            slots.push_back({labels[r] + "/" + b, make(r, b), {}, 0.0, {}});
    {
        JobPool pool(workerCount());
        for (Slot &s : slots)
            pool.submit([&s] {
                try {
                    std::uint64_t t = hostNowNs();
                    s.result = Simulator(s.cfg).run();
                    s.seconds = secondsSince(t);
                } catch (const std::exception &e) {
                    s.error = e.what();
                }
            });
        pool.wait();
    }
    for (const Slot &s : slots) {
        if (s.error.empty())
            emitResult(workload, "ref", 0, s.key, s.cfg, s.result,
                       s.seconds);
        else
            emitError(workload, "ref", 0, s.key, s.error);
    }
}

// ------------------------------------------------------------ cell ---

/**
 * One round: every cell in-process, back to back, through
 * Simulator::run. Round 0's first cell also yields the cold set-up.
 */
void
cellRound(const Args &a, unsigned round)
{
    std::uint64_t t = hostNowNs();
    double cpu = cpuSeconds();
    std::uint64_t committed = 0;
    for (const SimConfig &cfg : cellConfigs(a.seed)) {
        SimResult r;
        if (round == 0 && committed == 0) {
            std::uint64_t measureStart = 0;
            r = runNotingMeasureStart(cfg, measureStart);
            emitSetup(a, measureStart);
        } else {
            r = Simulator(cfg).run();
        }
        committed += r.committed;
        emitResult("cell", "run", round, cellKey(cfg), cfg, r);
    }
    emitRound(round, secondsSince(t), cpuSeconds() - cpu, committed);
}

// ------------------------------------------------------------ grid ---

/**
 * Sweep job for round 0: the sweep's first cell (row 0, column 0, the
 * first dispatched) writes its measure start to a file.
 */
SimResult
noteStartJob(const SimConfig &cfg, const JobContext &ctx)
{
    if (ctx.row() != 0 || ctx.col() != 0)
        return runSimulationJob(cfg, ctx);
    std::uint64_t measureStart = 0;
    SimResult r = runNotingMeasureStart(cfg, measureStart);
    // Runs in a forked child.
    if (std::FILE *f = std::fopen("grid_start.txt", "w")) {
        std::fprintf(f, "%llu\n",
                     static_cast<unsigned long long>(measureStart));
        std::fclose(f);
    }
    return r;
}

/** Measure start the first round-0 cell wrote, or 0. */
std::uint64_t
firstGridStart()
{
    unsigned long long v = 0;
    std::FILE *f = std::fopen("grid_start.txt", "r");
    if (!f)
        return 0;
    if (std::fscanf(f, "%llu", &v) != 1)
        v = 0;
    std::fclose(f);
    return v;
}

struct GridRun
{
    double wall = 0.0;
    unsigned jobs = 1;
    double cellSeconds = 0.0; ///< sum of every cell's time in the sweep
    std::uintmax_t journalBytes = 0;
};

/**
 * One round: the whole grid through the harness, process-isolated,
 * journal on, at most four workers. Every cell result is printed, and
 * so is every cell the journal recorded.
 */
GridRun
gridRound(const Args &a, unsigned round)
{
    std::vector<NamedConfig> rows = gridRows(a.seed);
    std::vector<std::string> benches = gridBenchmarks(a.seed);
    SweepOptions opts;
    opts.jobs = workerCount();
    opts.isolation = IsolationMode::Process;
    opts.name = "perfbench-grid";

    std::uint64_t t = hostNowNs();
    double cpu = cpuSeconds();
    SweepOutcome out;
    {
        Sweep sweep(rows, benches, opts);
        JournalWriter journal("grid.journal");
        sweep.addSink(&journal);
        sweep.setJobFn(round == 0 ? noteStartJob : runSimulationJob);
        out = sweep.run();
    }
    double wall = secondsSince(t);
    double cpuUsed = cpuSeconds() - cpu;

    GridRun g;
    g.wall = wall;
    g.jobs = out.jobs;
    std::uint64_t committed = 0;
    for (std::size_t r = 0; r < out.grid.size(); ++r) {
        for (const SweepCell &cell : out.grid[r]) {
            std::string key = cell.configLabel + "/" + cell.benchmark;
            if (cell.poisoned()) {
                emitError("grid", "sweep", round, key, cell.error);
            } else {
                committed += cell.result.committed;
                emitResult("grid", "sweep", round, key,
                           rows[r].make(cell.benchmark), cell.result,
                           cell.seconds);
            }
            g.cellSeconds += cell.seconds;
        }
    }
    emitRound(round, wall, cpuUsed, committed);
    if (round == 0) {
        std::uint64_t first = firstGridStart();
        if (first > a.t0Ns)
            emitSetup(a, first);
        else
            emitError("grid", "setup", round, "grid_start.txt",
                      "no cell reported its measure start");
    }

    JournalContents jc;
    std::string error;
    if (!readJournal("grid.journal", jc, error)) {
        emitError("grid", "journal", round, "grid.journal", error);
    } else {
        for (const JournalCell &jcell : jc.cells) {
            if (jcell.row >= rows.size() ||
                jcell.col >= benches.size())
                continue;
            const std::string &bench = benches[jcell.col];
            std::string key = rows[jcell.row].label + "/" + bench;
            if (!jcell.hasResult)
                emitError("grid", "journal", round, key, jcell.error);
            else
                emitResult("grid", "journal", round, key,
                           rows[jcell.row].make(bench), jcell.result);
        }
    }
    struct stat st{};
    if (::stat("grid.journal", &st) == 0)
        g.journalBytes = static_cast<std::uintmax_t>(st.st_size);
    return g;
}

void
gridReference(const Args &a)
{
    std::vector<NamedConfig> rows = gridRows(a.seed);
    std::vector<std::string> labels;
    for (const NamedConfig &r : rows)
        labels.push_back(r.label);
    runAlone("grid", labels, gridBenchmarks(a.seed),
             [&rows](std::size_t r, const std::string &b) {
                 return rows[r].make(b);
             });
}

// ----------------------------------------------------------- serve ---

/** An lsqd child process, stopped and reaped by its destructor. */
class Daemon
{
  public:
    Daemon(const std::string &lsqd, const std::string &tag)
        : socket_(tag + ".sock")
    {
        // Thread isolation: under lsqd's default process isolation the
        // first cell of a daemon's first sweep now and then hangs until
        // the heartbeat watchdog kills it (perfbench/README.md).
        std::vector<std::string> argv = {
            lsqd,          "--socket",    socket_,
            "--cache-dir", tag + ".cache", "--spool-dir",
            tag + ".spool", "--isolation", "thread"};
        std::string log = tag + ".log";
        std::vector<char *> cargv;
        for (std::string &s : argv)
            cargv.push_back(s.data());
        cargv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        std::fflush(stdout);
        int rc = posix_spawn(&pid_, lsqd.c_str(), &fa, nullptr,
                             cargv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start " + lsqd + ": " +
                                     std::strerror(rc));
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /** Poll `status` until the daemon answers; false after 60 s. */
    bool
    waitReady()
    {
        ServeClient c(socket_);
        c.setTimeouts(1000, 5000);
        std::uint64_t deadline = hostNowNs() + 60'000'000'000ULL;
        while (hostNowNs() < deadline) {
            std::string json;
            std::string error;
            if (c.status(0, json, error))
                return true;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            ::usleep(200);
        }
        return false;
    }

    /** Ask for shutdown, then reap; kill after 30 s. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ServeClient c(socket_);
        c.setTimeouts(1000, 5000);
        std::string error;
        bool asked = c.shutdown(error);
        std::uint64_t deadline =
            hostNowNs() + (asked ? 30'000'000'000ULL : 0);
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (hostNowNs() >= deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(2000);
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

struct Request
{
    double latency = 0.0;
    DoneSummary done;
    JournalContents contents;
    std::string error;
};

/** Submit @p spec and stream its records to the end. */
Request
submit(const std::string &socket, const SweepRequestSpec &spec)
{
    Request q;
    ServeClient c(socket);
    c.setTimeouts(5000, 120000);
    JournalAccumulator acc;
    std::uint64_t t = hostNowNs();
    std::uint64_t id = 0;
    if (!c.submit(spec, id, q.error))
        return q;
    std::string recErr;
    bool ok = c.stream(
        [&acc, &recErr](std::uint64_t, const std::string &payload) {
            std::string e;
            if (!acc.add(payload, e) && recErr.empty())
                recErr = e;
        },
        q.done, q.error);
    q.latency = secondsSince(t);
    if (ok && !recErr.empty())
        q.error = recErr;
    else if (ok && q.done.state != 0)
        q.error = "request ended in state " +
                  std::to_string(q.done.state) + ": " + q.done.message;
    else if (ok)
        q.error.clear();
    else if (q.error.empty())
        q.error = "stream ended early";
    q.contents = acc.contents();
    return q;
}

/**
 * Print each cell of a round's request @p request (0 is the cold one);
 * returns measured instructions.
 */
std::uint64_t
emitRequest(const SweepRequestSpec &spec, unsigned round,
            unsigned request, const Request &q)
{
    const std::string path = request == 0 ? "cold" : "warm";
    if (!q.error.empty()) {
        for (const std::string &label : spec.configs)
            for (const std::string &bench : spec.benchmarks)
                emitError("serve", path, round, label + "/" + bench,
                          q.error, request);
        return 0;
    }
    std::uint64_t committed = 0;
    std::vector<bool> seen(spec.configs.size() * spec.benchmarks.size());
    for (const JournalCell &cell : q.contents.cells) {
        if (cell.row >= spec.configs.size() ||
            cell.col >= spec.benchmarks.size())
            continue;
        const std::string &label = spec.configs[cell.row];
        const std::string &bench = spec.benchmarks[cell.col];
        std::string key = label + "/" + bench;
        seen[cell.row * spec.benchmarks.size() + cell.col] = true;
        if (!cell.hasResult || cell.status != JobStatus::Ok) {
            emitError("serve", path, round, key, cell.error, request);
            continue;
        }
        committed += cell.result.committed;
        emitResult("serve", path, round, key,
                   registryNamedConfig(spec, label).make(bench),
                   cell.result, cell.seconds, request);
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        if (!seen[i])
            emitError("serve", path, round,
                      spec.configs[i / spec.benchmarks.size()] + "/" +
                          spec.benchmarks[i % spec.benchmarks.size()],
                      "missing from stream", request);
    return committed;
}

/**
 * One round: a fresh lsqd (empty checkpoint cache), one cold request,
 * then the warm resubmits, then shutdown. The round's CPU includes the
 * daemon's whole life, reaped at the end.
 */
void
serveRound(const Args &a, unsigned round, bool traced)
{
    SweepRequestSpec spec = serveSpec(a.seed);
    std::string tag = "serve" + std::to_string(round);
    double cpu = cpuSeconds();
    double wall = 0.0;
    std::uint64_t committed = 0;
    {
        std::uint64_t launched = hostNowNs();
        Daemon d(a.lsqd, tag);
        if (!d.waitReady()) {
            Request q;
            q.error = "lsqd did not answer status";
            for (unsigned i = 0; i <= kServeWarmResubmits; ++i)
                emitRequest(spec, round, i, q);
            return;
        }
        // Every round starts a new daemon process: each is a cold
        // set-up, timed from its launch.
        Line("setup")
            .num("setup_s", static_cast<double>(hostNowNs() - launched) / 1e9)
            .print();
        auto telemetry = [&](const char *when) {
            if (!traced)
                return;
            ServeClient c(d.socket());
            c.setTimeouts(1000, 5000);
            std::string json;
            std::string error;
            if (c.stats(json, error))
                Line("telemetry").u64("round", round).str("when", when)
                    .raw("doc", json).print();
        };
        std::uint64_t t = hostNowNs();
        for (unsigned i = 0; i <= kServeWarmResubmits; ++i) {
            telemetry("before");
            Request q = submit(d.socket(), spec);
            telemetry("after");
            committed += emitRequest(spec, round, i, q);
            if (traced)
                Line("request").u64("round", round)
                    .str("path", i == 0 ? "cold" : "warm")
                    .num("latency_s", q.latency)
                    .num("daemon_s", q.done.seconds)
                    .u64("warm_hits", q.done.warmHits)
                    .u64("warm_misses", q.done.warmMisses)
                    .print();
        }
        wall = secondsSince(t);
    }
    emitRound(round, wall, cpuSeconds() - cpu, committed);
}

void
serveReference(const Args &a)
{
    SweepRequestSpec spec = serveSpec(a.seed);
    runAlone("serve", spec.configs, spec.benchmarks,
             [&spec](std::size_t r, const std::string &b) {
                 SimConfig c =
                     registryNamedConfig(spec, spec.configs[r]).make(b);
                 c.ffInsts = spec.ffInsts;
                 return c;
             });
}

// ---------------------------------------------------------- traced ---

/** Times every TraceGenerator::next the core asks for. */
class TimedSource : public InstSource
{
  public:
    explicit TimedSource(std::unique_ptr<InstSource> inner)
        : inner_(std::move(inner))
    {
    }

    MicroOp
    next() override
    {
        std::uint64_t t = hostNowNs();
        MicroOp op = inner_->next();
        ns += hostNowNs() - t;
        ++calls;
        return op;
    }

    std::uint32_t
    checkpointKind() const override
    {
        return inner_->checkpointKind();
    }
    void saveState(SerialWriter &w) const override { inner_->saveState(w); }
    void loadState(SerialReader &r) override { inner_->loadState(r); }

    std::uint64_t ns = 0;
    std::uint64_t calls = 0;

  private:
    std::unique_ptr<InstSource> inner_;
};

/**
 * The simulator's cache pre-warm, restated through MemorySystem's
 * public accessors (Simulator::run keeps its copy private). The traced
 * cell's result is checked against Simulator::run, so the two cannot
 * drift apart unnoticed.
 */
void
prewarm(MemorySystem &mem, const BenchmarkProfile &profile)
{
    unsigned blk = mem.params().l1d.blockBytes;
    for (const auto &e : AddressStream::streamLayout(profile))
        for (Addr x = e.base; x < e.base + e.size; x += blk)
            mem.accessData(0, x, false);
    Addr hot = AddressStream::chaseHotBytes(profile);
    for (Addr x = kChaseBase; x < kChaseBase + hot; x += blk)
        mem.accessData(0, x, false);
    for (Addr x = kStackBase; x < kStackBase + (1ULL << 17); x += blk)
        mem.accessData(0, x, false);
    Addr code = static_cast<Addr>(profile.codeFootprintKb) * 1024;
    unsigned iblk = mem.params().l1i.blockBytes;
    for (Addr x = kCodeBase; x < kCodeBase + code; x += iblk)
        mem.accessInst(0, x);
}

/**
 * Simulator::run's plain path, driven step by step so each step can be
 * timed: Core construction over a TimedSource, pre-warm, warm-up,
 * measured Core::run with the host profiler's stage laps on.
 */
void
tracedCell(const SimConfig &cfg, unsigned round)
{
    const BenchmarkProfile &profile = profileFor(cfg.benchmark);
    SimResult res;
    res.benchmark = cfg.benchmark;
    HostProfiler &prof = HostProfiler::instance();
    HostProfiler::setEnabled(true);

    std::uint64_t t0 = hostNowNs();
    auto src = std::make_unique<TimedSource>(
        std::make_unique<TraceGenerator>(profile, cfg.seed));
    TimedSource &timed = *src;
    Core core(cfg.core, cfg.lsq, cfg.memory, std::move(src), res.stats);
    prewarm(core.memory(), profile);
    core.enableHostProfile(HostProfiler::sampleShift());
    std::uint64_t t1 = hostNowNs();
    std::uint64_t warmup =
        std::min(cfg.warmup, effectiveInstructions(cfg.instructions) / 4);
    core.run(warmup);
    res.stats.resetAll();
    std::uint64_t t2 = hostNowNs();

    prof.reset();
    timed.ns = 0;
    timed.calls = 0;
    Cycle startCycle = core.cycle();
    std::uint64_t startCommitted = core.committed();
    std::uint64_t l1dH = core.memory().l1d().hits();
    std::uint64_t l1dM = core.memory().l1d().misses();
    std::uint64_t l2H = core.memory().l2().hits();
    std::uint64_t l2M = core.memory().l2().misses();
    std::uint64_t t3 = hostNowNs();
    core.run(startCommitted + effectiveInstructions(cfg.instructions));
    std::uint64_t t4 = hostNowNs();
    HostProfiler::setEnabled(false);
    HostProfileSnapshot snap = prof.snapshot();

    res.cycles = core.cycle() - startCycle;
    res.committed = core.committed() - startCommitted;
    res.stats.counter("l1d.hits").inc(core.memory().l1d().hits() - l1dH);
    res.stats.counter("l1d.misses").inc(core.memory().l1d().misses() -
                                        l1dM);
    res.stats.counter("l2.hits").inc(core.memory().l2().hits() - l2H);
    res.stats.counter("l2.misses").inc(core.memory().l2().misses() - l2M);
    emitResult("cell", "traced", round, cellKey(cfg), cfg, res,
               static_cast<double>(t4 - t0) / 1e9);

    double runS = static_cast<double>(t4 - t3) / 1e9;
    emitLayer("sim.setup_ms", static_cast<double>(t1 - t0) / 1e6);
    emitLayer("sim.warmup_ms", static_cast<double>(t2 - t1) / 1e6);
    emitLayer("workload.next_ns",
              static_cast<double>(timed.ns) /
                  static_cast<double>(std::max<std::uint64_t>(1, timed.calls)));
    emitLayer("workload.draws_per_commit",
              static_cast<double>(timed.calls) /
                  static_cast<double>(std::max<std::uint64_t>(1, res.committed)));
    emitLayer("core.run_self_s",
              runS - static_cast<double>(timed.ns) / 1e9);
    emitLayer("core.ns_per_cycle",
              runS * 1e9 /
                  static_cast<double>(std::max<Cycle>(1, res.cycles)));
    emitLayer("core.cycles", static_cast<double>(res.cycles));
    emitLayer("core.committed", static_cast<double>(res.committed));

    // The stage laps sample one cycle in 2^shift; their shares of the
    // sampled time split the exactly timed Core::run.
    const std::pair<HostPhase, const char *> stages[] = {
        {HostPhase::FetchRename, "core.fetch_rename_s"},
        {HostPhase::IssueWakeup, "core.issue_wakeup_s"},
        {HostPhase::LsqSearch, "core.lsq_search_s"},
        {HostPhase::Commit, "core.commit_s"},
        {HostPhase::RunOther, "core.run_other_s"},
    };
    double sampled = 0.0;
    for (const auto &s : stages)
        sampled += static_cast<double>(
            snap.phases[static_cast<std::size_t>(s.first)].ns);
    for (const auto &s : stages)
        emitLayer(s.second,
                  sampled > 0.0
                      ? runS *
                            static_cast<double>(
                                snap.phases[static_cast<std::size_t>(
                                                s.first)]
                                    .ns) /
                            sampled
                      : 0.0);

    emitLayer("lsq.sq_searches",
              static_cast<double>(res.stats.value("sq.searches")));
    emitLayer("lsq.lq_searches",
              static_cast<double>(res.lqSearches()));
    std::uint64_t l1dAcc =
        res.stats.value("l1d.hits") + res.stats.value("l1d.misses");
    emitLayer("memory.l1d_miss_ratio",
              static_cast<double>(res.stats.value("l1d.misses")) /
                  static_cast<double>(std::max<std::uint64_t>(1, l1dAcc)));
}

double
nsPer(std::uint64_t t0, std::uint64_t n)
{
    return static_cast<double>(hostNowNs() - t0) /
           static_cast<double>(std::max<std::uint64_t>(1, n));
}

/**
 * Load/store round trips through one Lsq: a window of half the queue
 * is allocated, stores get addresses, loads issue (retrying the next
 * cycle while refused), then all commit in order. Returns ns per
 * memory operation.
 */
double
lsqRoundTrips(const LsqParams &params, const std::vector<MicroOp> &ops)
{
    StatSet stats;
    Lsq lsq(params, stats);
    SeqNum seq = 0;
    Cycle now = 0;
    std::vector<std::pair<SeqNum, const MicroOp *>> window;
    std::size_t fill = std::max(1u, std::min(params.totalLqEntries(),
                                             params.totalSqEntries()) /
                                        2);
    std::uint64_t n = 0;
    std::uint64_t t = hostNowNs();
    auto drain = [&] {
        for (auto &w : window)
            if (w.second->isStore())
                for (unsigned tries = 0;
                     !lsq.storeAddrReady(w.first, w.second->addr, now++)
                          .accepted;
                     ++tries)
                    if (tries > 256)
                        throw std::runtime_error("store never accepted");
        for (auto &w : window)
            if (w.second->isLoad())
                for (unsigned tries = 0;
                     lsq.issueLoad(w.first, w.second->addr, now++, true)
                             .status != LoadIssueStatus::Accepted;
                     ++tries)
                    if (tries > 256)
                        throw std::runtime_error("load never accepted");
        for (auto &w : window) {
            if (w.second->isLoad()) {
                lsq.commitLoad(w.first);
                continue;
            }
            // A commit-time LQ search can be delayed for a port.
            for (unsigned tries = 0;
                 !lsq.commitStore(w.first, now++).accepted; ++tries)
                if (tries > 256)
                    throw std::runtime_error("store never committed");
        }
        n += window.size();
        window.clear();
    };
    for (const MicroOp &op : ops) {
        if (!op.isMem())
            continue;
        if (!(op.isStore() ? lsq.canAllocateStore()
                           : lsq.canAllocateLoad()))
            drain();
        if (op.isStore())
            lsq.allocateStore(seq, op.pc);
        else
            lsq.allocateLoad(seq, op.pc);
        window.emplace_back(seq++, &op);
        if (window.size() == fill)
            drain();
    }
    drain();
    return nsPer(t, n);
}

/** Single-layer timings over the cell's own instruction stream. */
void
tracedLayers(const SimConfig &cfg)
{
    const BenchmarkProfile &profile = profileFor(cfg.benchmark);
    std::vector<MicroOp> ops;
    ops.reserve(kLayerOps);
    {
        TraceGenerator gen(profile, cfg.seed);
        for (std::size_t i = 0; i < kLayerOps; ++i)
            ops.push_back(gen.next());
    }
    std::uint64_t sink = 0;

    {
        MemorySystem mem(cfg.memory);
        prewarm(mem, profile);
        Cycle now = 0;
        std::uint64_t n = 0;
        std::uint64_t t = hostNowNs();
        for (const MicroOp &op : ops) {
            if (!op.isMem())
                continue;
            MemAccessResult r = mem.accessData(now, op.addr, op.isStore());
            sink += r.readyCycle;
            now += 2;
            ++n;
        }
        emitLayer("memory.access_ns", nsPer(t, n));
    }
    {
        HybridBranchPredictor bp(cfg.core.branchPredictor);
        std::uint64_t n = 0;
        std::uint64_t t = hostNowNs();
        for (const MicroOp &op : ops) {
            if (!op.isBranch())
                continue;
            sink += bp.predictAndUpdate(op.pc, op.taken);
            ++n;
        }
        emitLayer("predictor.branch_ns", nsPer(t, n));
    }
    {
        StoreSetPredictor ssp(cfg.core.storeSet);
        std::uint64_t n = 0;
        std::uint64_t t = hostNowNs();
        for (const MicroOp &op : ops) {
            if (op.isLoad()) {
                sink += ssp.loadFetch(op.pc).mustSearchStoreQueue;
            } else if (op.isStore()) {
                StorePrediction sp = ssp.storeFetch(op.pc, op.seq);
                ssp.storeIssued(sp, op.seq);
                ssp.storeCommitted(sp);
            } else {
                continue;
            }
            ++n;
        }
        emitLayer("predictor.storeset_ns", nsPer(t, n));
    }
    {
        // Loads enter a 2-entry buffer youngest-first, so each search
        // sees one older resident load; the oldest leaves when full.
        LoadBuffer lb(2);
        std::vector<SeqNum> resident;
        std::uint64_t n = 0;
        Cycle now = 0;
        std::uint64_t t = hostNowNs();
        for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
            if (!it->isLoad())
                continue;
            sink += lb.findViolation(it->seq, it->addr, now);
            if (lb.full()) {
                lb.release(resident.front());
                resident.erase(resident.begin());
            }
            lb.insert(it->seq, it->addr, now++);
            resident.push_back(it->seq);
            ++n;
        }
        emitLayer("lsq.lb_search_ns", nsPer(t, n));
    }
    emitLayer("lsq.flat_op_ns", lsqRoundTrips(cfg.lsq, ops));
    emitLayer("lsq.seg_op_ns",
              lsqRoundTrips(configs::allTechniques(cfg).lsq, ops));
    {
        // By-name lookups of the counters a real run registers, in
        // registration-sorted order, as the hot path makes them.
        SimConfig small = cfg;
        small.instructions = 20000;
        SimResult r = Simulator(small).run();
        std::vector<std::string> names = r.stats.counterNames();
        StatSet stats;
        std::uint64_t t = hostNowNs();
        for (std::size_t i = 0; i < kStatLookups; ++i)
            stats.counter(names[i % names.size()].c_str()).inc();
        emitLayer("common.stat_lookup_ns", nsPer(t, kStatLookups));
    }
    // One volatile store keeps every probe's results observable.
    [[maybe_unused]] static volatile std::uint64_t keep;
    keep = sink;
}

/** Fast-forward, checkpoint save and restore, timed around each call. */
void
tracedSample(const Args &a)
{
    SweepRequestSpec spec = serveSpec(a.seed);
    SimConfig cfg =
        registryNamedConfig(spec, spec.configs[0]).make(spec.benchmarks[0]);
    cfg.ffInsts = spec.ffInsts;
    const BenchmarkProfile &profile = profileFor(cfg.benchmark);
    StatSet stats;
    Core core(cfg.core, cfg.lsq, cfg.memory, profile, cfg.seed, stats);
    prewarm(core.memory(), profile);
    std::uint64_t t = hostNowNs();
    core.fastForward(cfg.ffInsts);
    emitLayer("sample.ff_ns_per_inst", nsPer(t, cfg.ffInsts));
    t = hostNowNs();
    saveCheckpoint(core, cfg, "trace.ckpt");
    emitLayer("sample.ckpt_save_ms",
              static_cast<double>(hostNowNs() - t) / 1e6);
    struct stat st{};
    ::stat("trace.ckpt", &st);
    emitLayer("sample.ckpt_bytes", static_cast<double>(st.st_size));
    StatSet stats2;
    Core restored(cfg.core, cfg.lsq, cfg.memory, profile, cfg.seed,
                  stats2);
    prewarm(restored.memory(), profile);
    t = hostNowNs();
    loadCheckpoint(restored, cfg, "trace.ckpt");
    emitLayer("sample.ckpt_load_ms",
              static_cast<double>(hostNowNs() - t) / 1e6);
}

void
tracedCellPart(unsigned round)
{
    SimConfig cfg = cellConfig(kCellBenchmarks[0], kCellSeeds[0]);
    std::uint64_t t = hostNowNs();
    SimResult plain = Simulator(cfg).run();
    double plainS = secondsSince(t);
    emitResult("cell", "ref", round, cellKey(cfg), cfg, plain, plainS);
    tracedCell(cfg, round);
    tracedLayers(cfg);
}

void
tracedGridPart(const Args &a, unsigned round)
{
    GridRun g = gridRound(a, round);
    emitLayer("harness.parallel_efficiency",
              g.cellSeconds / (g.wall * std::max(1u, g.jobs)));
    emitLayer("harness.journal_bytes",
              static_cast<double>(g.journalBytes));
    // harness.cell_overhead_ms pairs each sweep cell with the same cell
    // run alone (the reference lines); run.py takes the median.
    if (round == 0)
        gridReference(a);
}

void
tracedServePart(const Args &a, unsigned round)
{
    serveRound(a, round, true);
    if (round == 0) {
        serveReference(a);
        tracedSample(a);
    }
}

// ------------------------------------------------------------ main ---

template <typename RoundFn>
unsigned
repeatFor(double seconds, RoundFn fn)
{
    std::uint64_t t = hostNowNs();
    unsigned round = 0;
    do {
        fn(round++);
    } while (secondsSince(t) < seconds);
    return round;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (::chdir(a.dir.c_str()) != 0)
        die("cannot enter " + a.dir);
    try {
        if (!a.trace) {
            if (a.workload == "cell") {
                repeatFor(a.seconds, [&](unsigned r) { cellRound(a, r); });
            } else if (a.workload == "grid") {
                repeatFor(a.seconds, [&](unsigned r) { gridRound(a, r); });
                gridReference(a);
            } else {
                repeatFor(a.seconds,
                          [&](unsigned r) { serveRound(a, r, false); });
                serveReference(a);
            }
        } else {
            // The named workload's layers for the whole run; one round
            // of each other workload so every layer is reported.
            auto cell = [](unsigned r) { tracedCellPart(r); };
            auto grid = [&](unsigned r) { tracedGridPart(a, r); };
            auto serve = [&](unsigned r) { tracedServePart(a, r); };
            if (a.workload == "cell") {
                repeatFor(a.seconds, cell);
                grid(0);
                serve(0);
            } else if (a.workload == "grid") {
                repeatFor(a.seconds, grid);
                cell(0);
                serve(0);
            } else {
                repeatFor(a.seconds, serve);
                cell(0);
                grid(0);
            }
        }
    } catch (const std::exception &e) {
        die(std::string("failed: ") + e.what());
    }
    return 0;
}
