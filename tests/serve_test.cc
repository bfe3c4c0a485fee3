/**
 * @file
 * Tests for the lsqd service layer (src/serve/).
 *
 * Covers the four pillars docs/SERVICE.md promises: the CRC-framed
 * wire protocol (corrupt/truncated/oversized frames must be rejected,
 * never trusted), the design-point label registry (the fig7 labels
 * must materialize the exact batch-bench configs, or `lsqctl results`
 * loses byte-comparability), the warmed-checkpoint cache (hit/miss/
 * insertion/eviction/rejection accounting under an LRU byte budget,
 * plus restart re-adoption), and the daemon end to end (streamed
 * records bit-identical to a direct Sweep, warm resubmits served from
 * the cache, deterministic queued-cancel, attach replay from any
 * index).
 *
 * Daemon tests run IsolationMode::Thread so they stay valid under
 * TSan/ASan; the fork path is exercised by the serve-smoke CI flavor
 * and the inject/harness suites. The daemon runs on a JobPool worker
 * (the one sanctioned thread-construction site).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harness/job_pool.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "sample/checkpoint.hh"
#include "sample/serialize.hh"
#include "serve/ckpt_cache.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/proto.hh"
#include "serve/registry.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace lsqscale {
namespace {

namespace fs = std::filesystem;

/** Canonical serialization of a result for bit-identity comparison. */
std::string
fingerprint(const SimResult &r)
{
    std::ostringstream os;
    os << r.benchmark << ":" << r.cycles << ":" << r.committed << "\n"
       << r.stats.dump();
    return os.str();
}

/**
 * Fresh per-test scratch path under gtest's temp dir. Removes
 * whatever a previous run left there, so re-adoptable state (the
 * checkpoint cache survives daemon restarts by design) cannot leak
 * between invocations.
 */
std::string
scratch(const std::string &leaf)
{
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string path =
        testing::TempDir() + std::string(info->name()) + "_" + leaf;
    std::filesystem::remove_all(path);
    return path;
}

// ============================================================ proto ==

/** Read exactly @p n raw bytes off @p fd (test-side peeking). */
std::string
rawRead(int fd, std::size_t n)
{
    std::string buf(n, '\0');
    std::size_t got = 0;
    while (got < n) {
        ssize_t r = ::recv(fd, buf.data() + got, n - got, 0);
        if (r <= 0)
            break;
        got += static_cast<std::size_t>(r);
    }
    buf.resize(got);
    return buf;
}

/** Write raw bytes (possibly a deliberately corrupt frame). */
void
rawWrite(int fd, const std::string &data)
{
    std::size_t put = 0;
    while (put < data.size()) {
        ssize_t r = ::send(fd, data.data() + put, data.size() - put,
                           MSG_NOSIGNAL);
        ASSERT_GT(r, 0);
        put += static_cast<std::size_t>(r);
    }
}

TEST(ServeProtoTest, FrameRoundTripAndCleanEof)
{
    int sp[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));

    const std::string payload = "the quick brown frame";
    std::string error;
    ASSERT_TRUE(sendFrame(sp[0], payload, error)) << error;

    std::string back;
    EXPECT_EQ(1, recvFrame(sp[1], back, error)) << error;
    EXPECT_EQ(payload, back);

    // Closing the writer mid-stream is a *clean* EOF before any byte
    // of the next frame — recvFrame reports 0, not an error.
    ::close(sp[0]);
    EXPECT_EQ(0, recvFrame(sp[1], back, error));
    ::close(sp[1]);
}

TEST(ServeProtoTest, CorruptPayloadRejectedByCrc)
{
    int sp[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));

    const std::string payload = "bits on the wire";
    std::string error;
    ASSERT_TRUE(sendFrame(sp[0], payload, error)) << error;
    std::string frame = rawRead(sp[1], 8 + payload.size());
    ASSERT_EQ(8 + payload.size(), frame.size());
    ::close(sp[0]);
    ::close(sp[1]);

    // Flip one payload bit and replay the frame: CRC must catch it.
    frame[8] = static_cast<char>(frame[8] ^ 0x40);
    int sp2[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp2));
    rawWrite(sp2[0], frame);
    ::close(sp2[0]);
    std::string back;
    EXPECT_EQ(-1, recvFrame(sp2[1], back, error));
    EXPECT_FALSE(error.empty());
    ::close(sp2[1]);
}

TEST(ServeProtoTest, OversizedAndTruncatedFramesRejected)
{
    // A length header past kMaxFrameBytes means a corrupt peer.
    int sp[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
    std::string head(8, '\0');
    const std::uint32_t huge = kMaxFrameBytes + 1;
    std::memcpy(head.data(), &huge, sizeof huge);
    rawWrite(sp[0], head);
    ::close(sp[0]);
    std::string back, error;
    EXPECT_EQ(-1, recvFrame(sp[1], back, error));
    EXPECT_FALSE(error.empty());
    ::close(sp[1]);

    // EOF *inside* a frame is a truncation error, not a clean close.
    int sp2[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp2));
    ASSERT_TRUE(sendFrame(sp2[0], "whole frame", error)) << error;
    std::string frame = rawRead(sp2[1], 8 + 11);
    ::close(sp2[0]);
    ::close(sp2[1]);

    int sp3[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp3));
    rawWrite(sp3[0], frame.substr(0, 6));
    ::close(sp3[0]);
    error.clear();
    EXPECT_EQ(-1, recvFrame(sp3[1], back, error));
    EXPECT_FALSE(error.empty());
    ::close(sp3[1]);
}

// ====================================================== frame codec ==
//
// Deterministic mutation of the one frame codec. Every framed stream —
// journal, reqlog, socket, cell pipe — decodes through walkFrames() or
// decodeFrameHeader()/checkFramePayload(), so a flipped bit, a cut, an
// inflated length or a splice must yield a prefix of what was written:
// never a payload nobody wrote, never a crash.

/** SweepBegin plus two cells, one carrying a result. */
std::vector<std::string>
journalRecords(const std::string &name)
{
    JournalCell cell;
    cell.status = JobStatus::Failed;
    cell.error = name + " failed";
    std::vector<std::string> out = {
        encodeSweepBeginRecord(name, {"base"}, {"bzip", "gcc"}),
        encodeCellRecord(cell)};
    cell.col = 1;
    cell.status = JobStatus::Ok;
    cell.error.clear();
    cell.hasResult = true;
    cell.result.benchmark = "gcc";
    cell.result.cycles = 1234;
    out.push_back(encodeCellRecord(cell));
    return out;
}

/** A framed file's bytes, plus the offset where each frame ends. */
struct FramedBytes
{
    std::string bytes;
    std::vector<std::size_t> ends;
};

FramedBytes
framedFile(const std::vector<std::string> &payloads)
{
    FramedBytes f{std::string(kJournalMagic, sizeof kJournalMagic), {}};
    std::string frame, error;
    for (const std::string &p : payloads) {
        EXPECT_TRUE(encodeFrame(p, frame, error)) << error;
        f.bytes += frame;
        f.ends.push_back(f.bytes.size());
    }
    return f;
}

/** Frames that end at or before @p offset. */
std::size_t
framesWithin(const FramedBytes &f, std::size_t offset)
{
    std::size_t n = 0;
    while (n < f.ends.size() && f.ends[n] <= offset)
        ++n;
    return n;
}

std::vector<std::string>
firstN(const std::vector<std::string> &v, std::size_t n)
{
    return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n)};
}

bool
readsAsJournal(const std::string &bytes)
{
    const std::string path = scratch("mutant.journal");
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    FrameWalk walk;
    std::string error;
    return readFramedFile(path, kJournalFormat, walk, error);
}

TEST(FrameCodecTest, EveryBitFlipKeepsOnlyTheFramesBeforeIt)
{
    const std::vector<std::string> written = journalRecords("flip");
    const FramedBytes file = framedFile(written);
    for (std::size_t bit = 0; bit < file.bytes.size() * 8; ++bit) {
        std::string m = file.bytes;
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
        if (bit / 8 < sizeof kJournalMagic) {
            EXPECT_FALSE(readsAsJournal(m)) << "magic bit " << bit;
            continue;
        }
        // CRC-32 catches every single-bit error, and a flipped length
        // can only misplace the payload it guards.
        FrameWalk walk = walkFrames(m.data(), m.size(), 8);
        EXPECT_EQ(walk.payloads,
                  firstN(written, framesWithin(file, bit / 8)))
            << "bit " << bit;
        EXPECT_TRUE(walk.torn) << "bit " << bit;
    }
}

TEST(FrameCodecTest, EveryTruncationKeepsTheWholeFrames)
{
    const std::vector<std::string> written = journalRecords("cut");
    const FramedBytes file = framedFile(written);
    for (std::size_t len = 0; len < sizeof kJournalMagic; ++len)
        EXPECT_FALSE(readsAsJournal(file.bytes.substr(0, len))) << len;
    for (std::size_t len = sizeof kJournalMagic; len <= file.bytes.size();
         ++len) {
        FrameWalk walk = walkFrames(file.bytes.data(), len, 8);
        std::size_t whole = framesWithin(file, len);
        EXPECT_EQ(walk.payloads, firstN(written, whole)) << len;
        EXPECT_EQ(walk.validEnd,
                  whole == 0 ? sizeof kJournalMagic : file.ends[whole - 1])
            << len;
        EXPECT_EQ(walk.torn, walk.validEnd != len) << len;
    }
}

TEST(FrameCodecTest, InflatedLengthIsRejectedBeforeAllocation)
{
    const std::vector<std::string> written = journalRecords("inflate");
    const FramedBytes file = framedFile(written);
    std::string error;
    for (std::uint32_t len : {kMaxFrameBytes + 1, 0xffffffffu}) {
        std::string head(kFrameHeaderBytes, '\0');
        std::memcpy(head.data(), &len, sizeof len);
        FrameHeader h;
        EXPECT_FALSE(decodeFrameHeader(head.data(), h, error)) << len;

        for (std::size_t k = 0; k < written.size(); ++k) {
            std::string m = file.bytes;
            std::size_t at = k == 0 ? sizeof kJournalMagic : file.ends[k - 1];
            std::memcpy(m.data() + at, &len, sizeof len);
            FrameWalk walk = walkFrames(m.data(), m.size(), 8);
            EXPECT_EQ(walk.payloads, firstN(written, k)) << len;
            EXPECT_EQ(walk.validEnd, at);
        }

        // The socket reader refuses the header before sizing a buffer.
        int sp[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
        rawWrite(sp[0], head + "tail");
        ::close(sp[0]);
        std::string back;
        EXPECT_EQ(-1, recvFrame(sp[1], back, error));
        EXPECT_NE(error.find("cap"), std::string::npos) << error;
        EXPECT_TRUE(back.empty());
        ::close(sp[1]);
    }
    std::string frame;
    EXPECT_FALSE(
        encodeFrame(std::string(kMaxFrameBytes + 1, 'x'), frame, error));
}

TEST(FrameCodecTest, SplicedFilesYieldOnlyWrittenFrames)
{
    const std::vector<std::string> left = journalRecords("left");
    const std::vector<std::string> right = journalRecords("right");
    const FramedBytes a = framedFile(left);
    const FramedBytes b = framedFile(right);
    auto isBoundary = [](const FramedBytes &f, std::size_t off) {
        return off == sizeof kJournalMagic ||
               std::find(f.ends.begin(), f.ends.end(), off) !=
                   f.ends.end();
    };
    std::set<std::string> written(left.begin(), left.end());
    written.insert(right.begin(), right.end());
    for (std::size_t i = sizeof kJournalMagic; i <= a.bytes.size(); ++i) {
        for (std::size_t j = 0; j <= b.bytes.size(); ++j) {
            std::string m = a.bytes.substr(0, i) + b.bytes.substr(j);
            FrameWalk walk = walkFrames(m.data(), m.size(), 8);
            // A's whole frames always survive. What follows may only be
            // written frames: the two files share byte runs, so a cut
            // can rejoin into one of them.
            std::size_t keep = framesWithin(a, i);
            ASSERT_GE(walk.payloads.size(), keep) << i << "+" << j;
            ASSERT_EQ(firstN(walk.payloads, keep), firstN(left, keep))
                << i << "+" << j;
            for (const std::string &p : walk.payloads)
                ASSERT_EQ(written.count(p), 1u) << i << "+" << j;
            // Both cuts on frame boundaries: an append after a clean
            // cut, so B's remaining frames all follow.
            if (isBoundary(a, i) && j > 0 && isBoundary(b, j)) {
                ASSERT_EQ(walk.payloads.size(),
                          keep + right.size() - framesWithin(b, j))
                    << i << "+" << j;
            }
        }
    }
}

TEST(FrameCodecTest, MutatedSocketFramesNeverDeliverUnsentPayloads)
{
    SweepRequestSpec spec;
    spec.configs = {"base", "pair"};
    spec.benchmarks = {"gzip"};
    const std::string payload = msgSubmit(spec);
    std::string frame, error;
    ASSERT_TRUE(encodeFrame(payload, frame, error)) << error;

    // recvFrame on the socket and walkFrames on the same bytes (the
    // cell result pipe) must agree: the payload whole, or nothing.
    auto check = [&](const std::string &m, const std::string &what) {
        int sp[2];
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sp));
        rawWrite(sp[0], m);
        ::close(sp[0]);
        std::string back;
        int rc = recvFrame(sp[1], back, error);
        ::close(sp[1]);
        FrameWalk walk = walkFrames(m.data(), m.size());
        if (m == frame) {
            EXPECT_EQ(1, rc) << what;
            EXPECT_EQ(back, payload) << what;
            EXPECT_EQ(walk.payloads, std::vector<std::string>{payload});
        } else {
            EXPECT_EQ(m.empty() ? 0 : -1, rc) << what;
            EXPECT_TRUE(walk.payloads.empty()) << what;
        }
    };
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
        std::string m = frame;
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
        check(m, "bit " + std::to_string(bit));
    }
    for (std::size_t len = 0; len <= frame.size(); ++len)
        check(frame.substr(0, len), "cut " + std::to_string(len));
}

TEST(ServeProtoTest, SpecCodecRoundTripsEveryField)
{
    SweepRequestSpec spec;
    spec.name = "fig7_sq_speedup";
    spec.configs = {"base", "perfect", "seg=4x16:nsc+ports=2"};
    spec.benchmarks = {"bzip", "gcc", "art"};
    spec.instructions = 123456;
    spec.warmup = 777;
    spec.seed = 42;
    spec.baseSeed = 9;
    spec.ffInsts = 250000;
    spec.jobs = 5;

    SerialWriter w;
    spec.encode(w);
    SerialReader r(w.buffer());
    SweepRequestSpec back = SweepRequestSpec::decode(r);
    EXPECT_TRUE(r.done());

    EXPECT_EQ(spec.name, back.name);
    EXPECT_EQ(spec.configs, back.configs);
    EXPECT_EQ(spec.benchmarks, back.benchmarks);
    EXPECT_EQ(spec.instructions, back.instructions);
    EXPECT_EQ(spec.warmup, back.warmup);
    EXPECT_EQ(spec.seed, back.seed);
    EXPECT_EQ(spec.baseSeed, back.baseSeed);
    EXPECT_EQ(spec.ffInsts, back.ffInsts);
    EXPECT_EQ(spec.jobs, back.jobs);
}

TEST(ServeProtoTest, VersionSkewThrows)
{
    SerialWriter w;
    w.u32(kServeProtoVersion + 1);
    w.str("sweep");
    SerialReader r(w.buffer());
    EXPECT_THROW(SweepRequestSpec::decode(r), SerialError);
}

TEST(ServeProtoTest, DoneSummaryCodecRoundTrips)
{
    DoneSummary d;
    d.state = 1;
    d.cells = 12;
    d.poisoned = 2;
    d.jobs = 4;
    d.seconds = 1.5;
    d.warmHits = 3;
    d.warmMisses = 1;
    d.message = "12 cells, 2 poisoned";

    SerialWriter w;
    d.encode(w);
    SerialReader r(w.buffer());
    DoneSummary back = DoneSummary::decode(r);
    EXPECT_TRUE(r.done());

    EXPECT_EQ(d.state, back.state);
    EXPECT_EQ(d.cells, back.cells);
    EXPECT_EQ(d.poisoned, back.poisoned);
    EXPECT_EQ(d.jobs, back.jobs);
    EXPECT_EQ(d.seconds, back.seconds);
    EXPECT_EQ(d.warmHits, back.warmHits);
    EXPECT_EQ(d.warmMisses, back.warmMisses);
    EXPECT_EQ(d.message, back.message);
}

TEST(ServeProtoTest, OverloadedAndGoneRepliesRoundTrip)
{
    // Additive server-to-client types: still lsqscale-serve-v1, but a
    // robustness-aware client must decode both exactly.
    {
        const std::string msg = msgOverloaded(1234, "8 live requests");
        SerialReader r(msg);
        EXPECT_EQ(ServeMsg::Overloaded,
                  static_cast<ServeMsg>(r.u8()));
        EXPECT_EQ(1234u, r.u64());
        EXPECT_EQ("8 live requests", r.str());
        EXPECT_TRUE(r.done());
    }
    {
        const std::string msg = msgGone(7, 42, "records evicted");
        SerialReader r(msg);
        EXPECT_EQ(ServeMsg::Gone, static_cast<ServeMsg>(r.u8()));
        EXPECT_EQ(7u, r.u64());
        EXPECT_EQ(42u, r.u64());
        EXPECT_EQ("records evicted", r.str());
        EXPECT_TRUE(r.done());
    }
}

// =========================================================== reqlog ==

TEST(ReqlogTest, RoundTripsDeduplicatesAndToleratesATornTail)
{
    const std::string path = scratch("reqlog");

    SweepRequestSpec specA;
    specA.name = "survivor";
    specA.configs = {"base", "perfect"};
    specA.benchmarks = {"bzip"};
    specA.instructions = 4000;

    SweepRequestSpec specB = specA;
    specB.name = "finished";

    std::string error;
    FramedFileAppender log;
    ASSERT_TRUE(log.open(path, kReqlogFormat, false, error)) << error;
    ASSERT_TRUE(reqlogAppendAccepted(log, 3, specA, error)) << error;
    ASSERT_TRUE(reqlogAppendAccepted(log, 4, specB, error)) << error;
    ASSERT_TRUE(reqlogAppendFinished(log, 4, 0, error)) << error;
    ASSERT_TRUE(log.close());

    std::vector<ReqlogEntry> entries;
    ASSERT_TRUE(readReqlog(path, entries, error)) << error;
    ASSERT_EQ(2u, entries.size());
    EXPECT_EQ(3u, entries[0].id);
    EXPECT_FALSE(entries[0].finished);
    EXPECT_EQ("survivor", entries[0].spec.name);
    EXPECT_EQ(specA.configs, entries[0].spec.configs);
    EXPECT_EQ(4u, entries[1].id);
    EXPECT_TRUE(entries[1].finished);
    EXPECT_EQ(0u, entries[1].finalState);

    // Reopening for append must not rewrite the magic mid-file.
    ASSERT_TRUE(log.open(path, kReqlogFormat, false, error)) << error;
    ASSERT_TRUE(reqlogAppendFinished(log, 3, 1, error)) << error;
    ASSERT_TRUE(log.close());
    ASSERT_TRUE(readReqlog(path, entries, error)) << error;
    ASSERT_EQ(2u, entries.size());
    EXPECT_TRUE(entries[0].finished);
    EXPECT_EQ(1u, entries[0].finalState);

    // A SIGKILL mid-append leaves a partial frame; everything before
    // it must still parse.
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << "\x40\x00\x00\x00torn";
    }
    ASSERT_TRUE(readReqlog(path, entries, error)) << error;
    EXPECT_EQ(2u, entries.size());

    // The wrong magic is an unusable file, not an empty result.
    const std::string bogus = scratch("bogus");
    {
        std::ofstream out(bogus, std::ios::binary);
        out << "NOTALOG1";
    }
    EXPECT_FALSE(readReqlog(bogus, entries, error));
    EXPECT_FALSE(error.empty());
}

// ========================================================= registry ==

TEST(ServeRegistryTest, AcceptsTheDocumentedVocabulary)
{
    const char *good[] = {
        "base",          "perfect",   "aggressive",
        "pair",          "scaled",    "all",
        "ports=4",       "size=64",   "seg=4x16",
        "seg=4x16:nsc",  "combined=48", "lb=8",
        "lb=0",          "in-order-search", "all+ports=2",
        "seg=8x8+pair",
    };
    for (const char *label : good) {
        std::string error;
        EXPECT_TRUE(validDesignLabel(label, error))
            << label << ": " << error;
    }
}

TEST(ServeRegistryTest, RejectsMalformedLabelsWithAnError)
{
    const char *bad[] = {
        "",       "bogus",   "ports=0", "ports=x", "ports=",
        "seg=4",  "seg=0x4", "seg=4x0", "lb=",     "size=-1",
        "base+",  "+base",   "base++perfect",
    };
    for (const char *label : bad) {
        std::string error;
        EXPECT_FALSE(validDesignLabel(label, error)) << label;
        EXPECT_FALSE(error.empty()) << label;
    }
}

TEST(ServeRegistryTest, Fig7LabelsMatchTheBatchConfigsBitExactly)
{
    // The guarantee the serve-smoke CI flavor leans on: submitting
    // base/perfect/aggressive/pair must reproduce the batch fig7
    // configs exactly, so daemon results are byte-comparable with the
    // bench binary's JSON.
    SweepRequestSpec spec;
    spec.instructions = 2000;
    spec.warmup = 200;
    spec.seed = 1;

    using Modifier = SimConfig (*)(SimConfig);
    const std::pair<const char *, Modifier> rows[] = {
        {"base", nullptr},
        {"perfect", &configs::withPerfectPredictor},
        {"aggressive", &configs::withAggressivePredictor},
        {"pair", &configs::withPairPredictor},
    };
    for (const auto &[label, modify] : rows) {
        SimConfig expected = configs::base("bzip");
        expected.instructions = spec.instructions;
        expected.warmup = spec.warmup;
        expected.seed = spec.seed;
        if (modify)
            expected = modify(expected);

        NamedConfig row = registryNamedConfig(spec, label);
        EXPECT_EQ(label, row.label);
        SimConfig got = row.make("bzip");

        SimResult a = Simulator(expected).run();
        SimResult b = Simulator(got).run();
        EXPECT_EQ(fingerprint(a), fingerprint(b)) << label;
    }
}

// ======================================================= ckpt cache ==

/**
 * Run a short simulation that fast-forwards @p ffInsts and saves a
 * checkpoint at @p path; returns the saving config (whose
 * functionalFingerprint keys the cache).
 */
SimConfig
produceCheckpoint(const std::string &bench, std::uint64_t ffInsts,
                  std::uint64_t seed, const std::string &path)
{
    SimConfig cfg = configs::base(bench);
    cfg.instructions = 500;
    cfg.warmup = 100;
    cfg.seed = seed;
    cfg.ffInsts = ffInsts;
    cfg.saveCkptPath = path;
    Simulator(cfg).run();
    return cfg;
}

TEST(CkptCacheTest, MissThenInsertThenHitAccounting)
{
    const std::string dir = scratch("cache");
    const std::string src = scratch("warm.ckpt.tmp");
    SimConfig cfg = produceCheckpoint("bzip", 3000, 1, src);
    const std::uint64_t fp = functionalFingerprint(cfg);

    CkptCache cache(dir, 64ull << 20);
    EXPECT_EQ("", cache.lookup(fp, 3000));

    std::string finalPath, error;
    ASSERT_TRUE(cache.insert(fp, 3000, src, finalPath, error))
        << error;
    EXPECT_TRUE(fs::exists(finalPath));
    EXPECT_FALSE(fs::exists(src)) << "source must be consumed";

    EXPECT_EQ(finalPath, cache.lookup(fp, 3000));
    // Same functional config, different fast-forward length: a
    // different warm boundary, so a distinct key.
    EXPECT_EQ("", cache.lookup(fp, 4000));

    CkptCacheStats s = cache.stats();
    EXPECT_EQ(2u, s.misses);
    EXPECT_EQ(1u, s.hits);
    EXPECT_EQ(1u, s.insertions);
    EXPECT_EQ(0u, s.evictions);
    EXPECT_EQ(0u, s.rejected);
    EXPECT_EQ(1u, s.entries);
    EXPECT_EQ(fs::file_size(finalPath), s.bytes);

    // The cached file is a loadable checkpoint, not just bytes.
    CheckpointInfo info = inspectCheckpoint(finalPath);
    EXPECT_TRUE(info.crcOk);
    EXPECT_EQ(fp, info.meta.fingerprint);
}

TEST(CkptCacheTest, RejectsMismatchedAndCorruptInserts)
{
    const std::string dir = scratch("cache");
    CkptCache cache(dir, 64ull << 20);
    std::string finalPath, error;

    // Fingerprint mismatch: the file's recorded fingerprint disagrees
    // with the key — adopting it would serve wrong restores.
    const std::string src1 = scratch("a.ckpt.tmp");
    SimConfig cfg = produceCheckpoint("bzip", 2000, 1, src1);
    const std::uint64_t fp = functionalFingerprint(cfg);
    EXPECT_FALSE(cache.insert(fp + 1, 2000, src1, finalPath, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(fs::exists(src1)) << "rejected source must be removed";

    // ffInsts mismatch against the recorded instCount.
    const std::string src2 = scratch("b.ckpt.tmp");
    produceCheckpoint("bzip", 2000, 1, src2);
    EXPECT_FALSE(cache.insert(fp, 9999, src2, finalPath, error));

    // Garbage bytes.
    const std::string src3 = scratch("c.ckpt.tmp");
    {
        std::ofstream out(src3, std::ios::binary);
        out << "not a checkpoint at all";
    }
    EXPECT_FALSE(cache.insert(fp, 2000, src3, finalPath, error));

    CkptCacheStats s = cache.stats();
    EXPECT_EQ(3u, s.rejected);
    EXPECT_EQ(0u, s.insertions);
    EXPECT_EQ(0u, s.entries);
    EXPECT_EQ(0u, s.bytes);
}

TEST(CkptCacheTest, EvictsLeastRecentlyUsedToFitTheByteBudget)
{
    const std::string srcA = scratch("a.ckpt.tmp");
    const std::string srcB = scratch("b.ckpt.tmp");
    SimConfig cfgA = produceCheckpoint("bzip", 2000, 1, srcA);
    SimConfig cfgB = produceCheckpoint("gcc", 2000, 1, srcB);
    const std::uint64_t fpA = functionalFingerprint(cfgA);
    const std::uint64_t fpB = functionalFingerprint(cfgB);
    ASSERT_NE(fpA, fpB);
    const std::uint64_t bytesA = fs::file_size(srcA);
    const std::uint64_t bytesB = fs::file_size(srcB);

    // Budget holds either alone but not both: inserting B must evict
    // A (the least recently used entry) and leave B resident.
    CkptCache cache(scratch("cache"), bytesA + bytesB - 1);
    std::string pathA, pathB, error;
    ASSERT_TRUE(cache.insert(fpA, 2000, srcA, pathA, error)) << error;
    ASSERT_TRUE(cache.insert(fpB, 2000, srcB, pathB, error)) << error;

    EXPECT_FALSE(fs::exists(pathA));
    EXPECT_TRUE(fs::exists(pathB));
    EXPECT_EQ("", cache.lookup(fpA, 2000));
    EXPECT_EQ(pathB, cache.lookup(fpB, 2000));

    CkptCacheStats s = cache.stats();
    EXPECT_EQ(2u, s.insertions);
    EXPECT_EQ(1u, s.evictions);
    EXPECT_EQ(1u, s.entries);
    EXPECT_EQ(bytesB, s.bytes);
    EXPECT_LE(s.bytes, s.byteBudget);

    // A file larger than the whole budget can never fit: rejected,
    // residents untouched.
    const std::string srcC = scratch("c.ckpt.tmp");
    produceCheckpoint("art", 2000, 1, srcC);
    CkptCache tiny(scratch("tiny"), 16);
    std::string pathC;
    EXPECT_FALSE(tiny.insert(functionalFingerprint(
                                 configs::base("art")),
                             2000, srcC, pathC, error));
    EXPECT_EQ(1u, tiny.stats().rejected);
}

TEST(CkptCacheTest, RestartReadoptsSurvivingEntries)
{
    const std::string dir = scratch("cache");
    const std::string src = scratch("warm.ckpt.tmp");
    SimConfig cfg = produceCheckpoint("mgrid", 2500, 1, src);
    const std::uint64_t fp = functionalFingerprint(cfg);

    std::string finalPath, error;
    {
        CkptCache cache(dir, 64ull << 20);
        ASSERT_TRUE(cache.insert(fp, 2500, src, finalPath, error))
            << error;
    }

    // Drop a junk file next to it; re-adoption must skip it.
    {
        std::ofstream out(dir + "/junk.ckpt", std::ios::binary);
        out << "torn";
    }

    CkptCache reborn(dir, 64ull << 20);
    EXPECT_EQ(1u, reborn.stats().entries);
    EXPECT_EQ(finalPath, reborn.lookup(fp, 2500));
    EXPECT_FALSE(fs::exists(dir + "/junk.ckpt"));
}

TEST(CkptCacheTest, PinnedEntriesSurviveEvictionUntilUnpinned)
{
    const std::string srcA = scratch("a.ckpt.tmp");
    const std::string srcB = scratch("b.ckpt.tmp");
    const std::string srcC = scratch("c.ckpt.tmp");
    SimConfig cfgA = produceCheckpoint("bzip", 2000, 1, srcA);
    SimConfig cfgB = produceCheckpoint("gcc", 2000, 1, srcB);
    produceCheckpoint("art", 2000, 1, srcC);
    const std::uint64_t fpA = functionalFingerprint(cfgA);
    const std::uint64_t fpB = functionalFingerprint(cfgB);
    const std::uint64_t bytesA = fs::file_size(srcA);
    const std::uint64_t bytesB = fs::file_size(srcB);

    // The budget holds either file alone but never two at once.
    CkptCache cache(scratch("cache"), bytesA + bytesB - 1);
    std::string pathA, pathB, pathC, error;
    ASSERT_TRUE(cache.insert(fpA, 2000, srcA, pathA, error)) << error;

    // A pin lease on A turns the would-be eviction into a budget
    // overshoot: both files stay resident.
    EXPECT_EQ(pathA, cache.pinLookup(fpA, 2000));
    ASSERT_TRUE(cache.insert(fpB, 2000, srcB, pathB, error)) << error;
    EXPECT_TRUE(fs::exists(pathA));
    EXPECT_TRUE(fs::exists(pathB));

    CkptCacheStats s = cache.stats();
    EXPECT_EQ(1u, s.pinHits);
    EXPECT_EQ(1u, s.pinned);
    EXPECT_EQ(0u, s.evictions);
    EXPECT_EQ(2u, s.entries);
    EXPECT_GT(s.bytes, s.byteBudget) << "overshoot, not eviction";

    // Once the lease drops, A is evictable again (it is the LRU
    // entry: B's insert refreshed B).
    cache.unpin(fpA, 2000);
    EXPECT_EQ(0u, cache.stats().pinned);
    const std::uint64_t fpC =
        functionalFingerprint(configs::base("art"));
    ASSERT_TRUE(cache.insert(fpC, 2000, srcC, pathC, error)) << error;
    EXPECT_EQ("", cache.lookup(fpA, 2000));
    EXPECT_FALSE(fs::exists(pathA));
    EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(CkptCacheTest, InsertRaceDedupsOntoTheResidentEntry)
{
    // Two concurrent warms of one key both insertPinned: the resident
    // copy wins, the newcomer's temporary is dropped, and *both*
    // requests hold a lease on the surviving file.
    const std::string src1 = scratch("one.ckpt.tmp");
    const std::string src2 = scratch("two.ckpt.tmp");
    SimConfig cfg = produceCheckpoint("bzip", 2000, 1, src1);
    produceCheckpoint("bzip", 2000, 1, src2);
    const std::uint64_t fp = functionalFingerprint(cfg);

    CkptCache cache(scratch("cache"), 64ull << 20);
    std::string path1, path2, error;
    ASSERT_TRUE(cache.insertPinned(fp, 2000, src1, path1, error))
        << error;
    ASSERT_TRUE(cache.insertPinned(fp, 2000, src2, path2, error))
        << error;
    EXPECT_EQ(path1, path2);
    EXPECT_FALSE(fs::exists(src2)) << "loser's file must be dropped";

    CkptCacheStats s = cache.stats();
    EXPECT_EQ(1u, s.insertions);
    EXPECT_EQ(1u, s.entries);
    EXPECT_EQ(1u, s.pinned);

    // Refcounted: one unpin keeps the entry protected, the second
    // releases it.
    cache.unpin(fp, 2000);
    EXPECT_EQ(1u, cache.stats().pinned);
    cache.unpin(fp, 2000);
    EXPECT_EQ(0u, cache.stats().pinned);
}

TEST(CkptCacheTest, LeaseReleasesEveryPinOnExit)
{
    const std::string src = scratch("warm.ckpt.tmp");
    SimConfig cfg = produceCheckpoint("bzip", 2000, 1, src);
    const std::uint64_t fp = functionalFingerprint(cfg);

    CkptCache cache(scratch("cache"), 64ull << 20);
    {
        CkptCacheLease lease(cache);
        EXPECT_EQ("", lease.pinLookup(fp, 2000));
        EXPECT_EQ(0u, lease.held()) << "a miss takes no lease";

        std::string path, error;
        ASSERT_TRUE(lease.insertPinned(fp, 2000, src, path, error))
            << error;
        EXPECT_EQ(1u, lease.held());

        // Re-pinning a key the lease already holds rebalances to one
        // pin — the destructor unpins each key exactly once.
        EXPECT_EQ(path, lease.pinLookup(fp, 2000));
        EXPECT_EQ(1u, lease.held());
        EXPECT_EQ(1u, cache.stats().pinned);
    }
    EXPECT_EQ(0u, cache.stats().pinned)
        << "destructor must release every pin";
}

TEST(CkptCacheTest, ConcurrentPinInsertEvictStress)
{
    // Race pinLookup/insertPinned/unpin against budget-driven eviction
    // from several threads; run under the TSan CI flavor, this is the
    // proof the pin-lease locking is sound. Every hit's file must
    // exist for as long as the pin is held.
    struct Source
    {
        std::uint64_t fp;
        std::string path;
        std::uint64_t bytes;
    };
    std::vector<Source> sources;
    const char *benches[] = {"bzip", "gcc", "art"};
    for (const char *bench : benches) {
        std::string master = scratch(std::string(bench) + ".master");
        SimConfig cfg = produceCheckpoint(bench, 2000, 1, master);
        sources.push_back({functionalFingerprint(cfg), master,
                           fs::file_size(master)});
    }

    // Budget holds roughly one and a half files: constant churn.
    CkptCache cache(scratch("cache"),
                    sources[0].bytes + sources[1].bytes / 2);

    const unsigned kWorkers = 4;
    const int kIters = 12;
    JobPool pool(kWorkers);
    for (unsigned w = 0; w < kWorkers; ++w) {
        pool.submit([&, w] {
            for (int i = 0; i < kIters; ++i) {
                const Source &src =
                    sources[(w + static_cast<unsigned>(i)) %
                            sources.size()];
                std::string hit = cache.pinLookup(src.fp, 2000);
                if (hit.empty()) {
                    std::string tmp = src.path + ".w" +
                                      std::to_string(w) + "_" +
                                      std::to_string(i) + ".tmp";
                    std::error_code ec;
                    fs::copy_file(src.path, tmp, ec);
                    ASSERT_FALSE(ec);
                    std::string finalPath, error;
                    if (cache.insertPinned(src.fp, 2000, tmp,
                                           finalPath, error)) {
                        EXPECT_TRUE(fs::exists(finalPath));
                        cache.unpin(src.fp, 2000);
                    }
                } else {
                    // Pinned ⇒ no concurrent eviction may unlink it.
                    EXPECT_TRUE(fs::exists(hit));
                    cache.unpin(src.fp, 2000);
                }
            }
        });
    }
    pool.wait();

    CkptCacheStats s = cache.stats();
    EXPECT_EQ(0u, s.pinned) << "every lease must be balanced";
    EXPECT_GE(s.entries, 1u);
    // Every iteration did exactly one pinLookup, and each hit took
    // (and released) exactly one lease.
    EXPECT_EQ(static_cast<std::uint64_t>(kWorkers * kIters),
              s.hits + s.misses);
    EXPECT_EQ(s.hits, s.pinHits);
}

// =========================================================== daemon ==

/**
 * A running daemon on a JobPool worker, shut down (via the protocol,
 * like `lsqctl shutdown`) when the harness leaves scope — even when
 * an ASSERT bails out of the test body early.
 */
struct DaemonHarness
{
    ServeOptions opts;
    Daemon daemon;
    JobPool pool{1};

    explicit DaemonHarness(ServeOptions o)
        : opts(o), daemon(std::move(o))
    {
        pool.submit([this] { (void)daemon.run(); });
        waitReady();
    }

    ~DaemonHarness()
    {
        ServeClient client(opts.socketPath);
        std::string error;
        (void)client.shutdown(error);
        pool.wait();
    }

    void waitReady()
    {
        for (int i = 0; i < 1000; ++i) {
            ServeClient client(opts.socketPath);
            std::string json, error;
            if (client.status(0, json, error))
                return;
            ::usleep(10 * 1000);
        }
        FAIL() << "daemon never came up on " << opts.socketPath;
    }
};

ServeOptions
testOptions(const std::string &tag)
{
    ServeOptions opts;
    opts.socketPath = scratch(tag + ".sock");
    opts.cacheDir = scratch(tag + ".cache");
    opts.clientWorkers = 4;
    opts.isolation = IsolationMode::Thread;
    // Isolated spool: without this, the default (<socket>.spool)
    // survives the scratch() cleanup and a previous run's unfinished
    // requests would be re-adopted into an unrelated test.
    opts.spoolDir = scratch(tag + ".spool");
    fs::remove(opts.socketPath);
    return opts;
}

/** Collect a full record stream after submit()/attach(). */
struct Stream
{
    std::vector<std::pair<std::uint64_t, std::string>> records;
    DoneSummary done;

    bool drain(ServeClient &client, std::string &error)
    {
        return client.stream(
            [this](std::uint64_t index, const std::string &payload) {
                records.emplace_back(index, payload);
            },
            done, error);
    }
};

/**
 * Per-cell result fingerprints of a drained stream, in (row, col)
 * order — the byte-identity currency of the concurrency tests (raw
 * record payloads embed wall-clock seconds, so comparing them
 * directly would be flaky by construction).
 */
std::vector<std::string>
cellFingerprints(const Stream &stream)
{
    JournalAccumulator acc;
    std::string error;
    for (const auto &[index, payload] : stream.records)
        EXPECT_TRUE(acc.add(payload, error)) << error;
    std::vector<std::string> out;
    for (const JournalCell &cell : acc.contents().cells) {
        EXPECT_TRUE(cell.hasResult);
        out.push_back(cell.hasResult ? fingerprint(cell.result)
                                     : std::string());
    }
    return out;
}

TEST(ServeDaemonTest, StreamedResultsAreBitIdenticalToADirectSweep)
{
    DaemonHarness harness(testOptions("cold"));

    SweepRequestSpec spec;
    spec.name = "cold_grid";
    spec.configs = {"base", "perfect"};
    spec.benchmarks = {"bzip", "gcc"};
    spec.instructions = 2000;
    spec.warmup = 200;
    spec.baseSeed = 7;
    spec.jobs = 2;

    ServeClient client(harness.opts.socketPath);
    std::uint64_t id = 0;
    std::string error;
    ASSERT_TRUE(client.submit(spec, id, error)) << error;
    EXPECT_GE(id, 1u);

    Stream stream;
    ASSERT_TRUE(stream.drain(client, error)) << error;
    EXPECT_EQ(0, stream.done.state);
    EXPECT_EQ(4u, stream.done.cells);
    EXPECT_EQ(0u, stream.done.poisoned);

    // Indices are dense from zero — that's what makes Attach's
    // fromIndex a resume cursor.
    for (std::size_t i = 0; i < stream.records.size(); ++i)
        EXPECT_EQ(i, stream.records[i].first);

    // The stream replays through the journal machinery…
    JournalAccumulator acc;
    for (const auto &[index, payload] : stream.records)
        ASSERT_TRUE(acc.add(payload, error)) << error;
    JournalContents contents = acc.contents();
    EXPECT_EQ(spec.name, contents.name);
    EXPECT_EQ(2u, contents.rows);
    EXPECT_EQ(2u, contents.cols);
    ASSERT_EQ(4u, contents.cells.size());

    // …and a raw tee of the frames is a valid journal file, exactly
    // what `lsqctl --journal` writes.
    const std::string teePath = scratch("tee.journal");
    {
        std::ofstream out(teePath, std::ios::binary);
        out.write(kJournalMagic, sizeof kJournalMagic);
        for (const auto &[index, payload] : stream.records) {
            std::string frame;
            ASSERT_TRUE(encodeFrame(payload, frame, error)) << error;
            out.write(frame.data(),
                      static_cast<std::streamsize>(frame.size()));
        }
    }
    JournalContents teed;
    ASSERT_TRUE(readJournal(teePath, teed, error)) << error;
    EXPECT_EQ(4u, teed.cells.size());
    EXPECT_FALSE(teed.truncatedTail);

    // Bit-identity against the same grid run directly in-process.
    std::vector<NamedConfig> rows;
    for (const std::string &label : spec.configs)
        rows.push_back(registryNamedConfig(spec, label));
    SweepOptions so;
    so.name = spec.name;
    so.baseSeed = spec.baseSeed;
    so.jobs = 2;
    so.isolation = IsolationMode::Thread;
    Sweep sweep(rows, spec.benchmarks, so);
    sweep.setJobFn(runSimulationJob);
    SweepOutcome direct = sweep.run();

    SweepOutcome served = outcomeFromJournal(
        contents, stream.done.jobs, stream.done.seconds);
    ASSERT_EQ(direct.grid.size(), served.grid.size());
    for (std::size_t r = 0; r < direct.grid.size(); ++r) {
        ASSERT_EQ(direct.grid[r].size(), served.grid[r].size());
        for (std::size_t c = 0; c < direct.grid[r].size(); ++c) {
            const SweepCell &want = direct.grid[r][c];
            const SweepCell &got = served.grid[r][c];
            EXPECT_EQ(JobStatus::Ok, got.status);
            EXPECT_EQ(want.configLabel, got.configLabel);
            EXPECT_EQ(want.benchmark, got.benchmark);
            EXPECT_EQ(fingerprint(want.result),
                      fingerprint(got.result));
        }
    }
    EXPECT_EQ(0u, served.poisonedCells);

    // Attach replays the whole stream, or any suffix of it.
    ServeClient replay(harness.opts.socketPath);
    ASSERT_TRUE(replay.attach(id, 0, error)) << error;
    Stream full;
    ASSERT_TRUE(full.drain(replay, error)) << error;
    EXPECT_EQ(stream.records, full.records);
    EXPECT_EQ(0, full.done.state);

    const std::uint64_t last = stream.records.size() - 1;
    ServeClient tail(harness.opts.socketPath);
    ASSERT_TRUE(tail.attach(id, last, error)) << error;
    Stream suffix;
    ASSERT_TRUE(suffix.drain(tail, error)) << error;
    ASSERT_EQ(1u, suffix.records.size());
    EXPECT_EQ(stream.records.back(), suffix.records.front());

    // Unknown ids are a protocol error, not a hang.
    ServeClient bogus(harness.opts.socketPath);
    EXPECT_FALSE(bogus.attach(9999, 0, error));
    EXPECT_NE(std::string::npos, error.find("unknown request"));
}

TEST(ServeDaemonTest, WarmResubmitHitsTheCheckpointCache)
{
    DaemonHarness harness(testOptions("warm"));

    SweepRequestSpec spec;
    spec.name = "warm_grid";
    spec.configs = {"base"};
    spec.benchmarks = {"bzip"};
    spec.instructions = 1000;
    spec.warmup = 200;
    spec.ffInsts = 2000;

    auto runOnce = [&](Stream &stream) {
        ServeClient client(harness.opts.socketPath);
        std::uint64_t id = 0;
        std::string error;
        ASSERT_TRUE(client.submit(spec, id, error)) << error;
        ASSERT_TRUE(stream.drain(client, error)) << error;
        ASSERT_EQ(0, stream.done.state);
        ASSERT_EQ(0u, stream.done.poisoned);
    };

    Stream first;
    runOnce(first);
    EXPECT_EQ(0u, first.done.warmHits);
    EXPECT_EQ(1u, first.done.warmMisses);

    Stream second;
    runOnce(second);
    EXPECT_EQ(1u, second.done.warmHits);
    EXPECT_EQ(0u, second.done.warmMisses);

    // Restoring from the cached checkpoint is bit-identical to the
    // fast-forward it replaced.
    ASSERT_EQ(first.records.size(), second.records.size());
    JournalAccumulator a, b;
    std::string error;
    for (const auto &[i, p] : first.records)
        ASSERT_TRUE(a.add(p, error)) << error;
    for (const auto &[i, p] : second.records)
        ASSERT_TRUE(b.add(p, error)) << error;
    JournalContents ca = a.contents(), cb = b.contents();
    ASSERT_EQ(ca.cells.size(), cb.cells.size());
    for (std::size_t i = 0; i < ca.cells.size(); ++i) {
        ASSERT_TRUE(ca.cells[i].hasResult);
        ASSERT_TRUE(cb.cells[i].hasResult);
        EXPECT_EQ(fingerprint(ca.cells[i].result),
                  fingerprint(cb.cells[i].result));
    }

    CkptCacheStats s = harness.daemon.cache().stats();
    EXPECT_EQ(1u, s.hits);
    EXPECT_EQ(1u, s.misses);
    EXPECT_EQ(1u, s.insertions);
    EXPECT_EQ(1u, s.entries);

    // The stats JSON the daemon serves carries the same counters.
    ServeClient client(harness.opts.socketPath);
    std::string json;
    ASSERT_TRUE(client.stats(json, error)) << error;
    EXPECT_NE(std::string::npos, json.find("\"hits\": 1"));
    EXPECT_NE(std::string::npos, json.find("\"insertions\": 1"));
}

TEST(ServeDaemonTest, CancellingAQueuedRequestIsDeterministic)
{
    DaemonHarness harness(testOptions("cancel"));
    std::string error;

    // Request A occupies the single executor long enough for the
    // cancel round-trip (microseconds on a local socket) to land
    // while B is still queued behind it.
    SweepRequestSpec slow;
    slow.name = "slow";
    slow.configs = {"base", "perfect"};
    slow.benchmarks = {"bzip"};
    slow.instructions = 150000;
    slow.warmup = 1000;

    ServeClient clientA(harness.opts.socketPath);
    std::uint64_t idA = 0;
    ASSERT_TRUE(clientA.submit(slow, idA, error)) << error;
    clientA.close(); // abandon the stream; the daemon carries on

    SweepRequestSpec queued;
    queued.name = "queued";
    queued.configs = {"base"};
    queued.benchmarks = {"bzip", "gcc"};
    queued.instructions = 50000;
    queued.warmup = 1000;

    ServeClient clientB(harness.opts.socketPath);
    std::uint64_t idB = 0;
    ASSERT_TRUE(clientB.submit(queued, idB, error)) << error;
    clientB.close();

    ServeClient killer(harness.opts.socketPath);
    ASSERT_TRUE(killer.cancel(idB, error)) << error;
    EXPECT_FALSE(killer.cancel(4242, error));
    EXPECT_NE(std::string::npos, error.find("unknown request"));

    // B terminates Cancelled; its stream still ends in a Done frame
    // so a watching client is never left hanging.
    ServeClient watchB(harness.opts.socketPath);
    ASSERT_TRUE(watchB.attach(idB, 0, error)) << error;
    Stream streamB;
    ASSERT_TRUE(streamB.drain(watchB, error)) << error;
    EXPECT_EQ(1, streamB.done.state);

    // A is unaffected: drain it to completion.
    ServeClient watchA(harness.opts.socketPath);
    ASSERT_TRUE(watchA.attach(idA, 0, error)) << error;
    Stream streamA;
    ASSERT_TRUE(streamA.drain(watchA, error)) << error;
    EXPECT_EQ(0, streamA.done.state);
    EXPECT_EQ(2u, streamA.done.cells);

    // Status reflects both verdicts.
    ServeClient status(harness.opts.socketPath);
    std::string json;
    ASSERT_TRUE(status.status(0, json, error)) << error;
    EXPECT_NE(std::string::npos, json.find("\"cancelled\""));
    EXPECT_NE(std::string::npos, json.find("\"done\""));
}

TEST(ServeDaemonTest, RejectsInvalidSubmissions)
{
    DaemonHarness harness(testOptions("reject"));
    std::string error;
    std::uint64_t id = 0;

    SweepRequestSpec spec;
    spec.configs = {"bogus-label"};
    spec.benchmarks = {"bzip"};
    spec.instructions = 1000;
    ServeClient c1(harness.opts.socketPath);
    EXPECT_FALSE(c1.submit(spec, id, error));
    EXPECT_FALSE(error.empty());

    spec.configs = {"base"};
    spec.benchmarks = {"no-such-workload"};
    ServeClient c2(harness.opts.socketPath);
    EXPECT_FALSE(c2.submit(spec, id, error));

    spec.benchmarks = {};
    ServeClient c3(harness.opts.socketPath);
    EXPECT_FALSE(c3.submit(spec, id, error));
}

TEST(ServeDaemonTest, ConcurrentExecutorsShareTheCacheBitIdentically)
{
    std::string error;

    SweepRequestSpec specA;
    specA.name = "grid_a";
    specA.configs = {"base", "perfect"};
    specA.benchmarks = {"bzip"};
    specA.instructions = 1000;
    specA.warmup = 200;
    specA.ffInsts = 2000;
    specA.baseSeed = 1;
    specA.jobs = 2;

    SweepRequestSpec specB = specA;
    specB.name = "grid_b";
    specB.configs = {"base", "aggressive"};

    // Reference: the same two grids on a serial (one-executor) daemon.
    std::vector<std::string> refA, refB;
    {
        DaemonHarness serial(testOptions("serial"));
        for (int i = 0; i < 2; ++i) {
            ServeClient client(serial.opts.socketPath);
            std::uint64_t id = 0;
            ASSERT_TRUE(client.submit(i == 0 ? specA : specB, id,
                                      error))
                << error;
            Stream stream;
            ASSERT_TRUE(stream.drain(client, error)) << error;
            ASSERT_EQ(0, stream.done.state);
            (i == 0 ? refA : refB) = cellFingerprints(stream);
        }
    }
    ASSERT_EQ(2u, refA.size());
    ASSERT_EQ(2u, refB.size());

    ServeOptions opts = testOptions("burst");
    opts.executors = 4; // the acceptance bar: both requests overlap
    DaemonHarness harness(opts);

    // Warm the cache first so both overlapping requests provably take
    // pin leases on a checkpoint neither of them inserted.
    {
        SweepRequestSpec warm = specA;
        warm.name = "warm";
        warm.configs = {"base"};
        ServeClient client(harness.opts.socketPath);
        std::uint64_t id = 0;
        ASSERT_TRUE(client.submit(warm, id, error)) << error;
        Stream stream;
        ASSERT_TRUE(stream.drain(client, error)) << error;
        ASSERT_EQ(0, stream.done.state);
    }

    // Both submitted before either is drained: with spare executors
    // the sweeps genuinely overlap, racing pinLookup/insert/evict on
    // the shared cache.
    ServeClient clientA(harness.opts.socketPath);
    ServeClient clientB(harness.opts.socketPath);
    std::uint64_t idA = 0, idB = 0;
    ASSERT_TRUE(clientA.submit(specA, idA, error)) << error;
    ASSERT_TRUE(clientB.submit(specB, idB, error)) << error;

    Stream streamA, streamB;
    ASSERT_TRUE(streamA.drain(clientA, error)) << error;
    ASSERT_TRUE(streamB.drain(clientB, error)) << error;
    ASSERT_EQ(0, streamA.done.state);
    ASSERT_EQ(0, streamB.done.state);
    EXPECT_GE(streamA.done.warmHits, 1u);
    EXPECT_GE(streamB.done.warmHits, 1u);

    // The contended results are the uncontended results, bit for bit.
    EXPECT_EQ(refA, cellFingerprints(streamA));
    EXPECT_EQ(refB, cellFingerprints(streamB));

    CkptCacheStats s = harness.daemon.cache().stats();
    EXPECT_GE(s.pinHits, 2u) << "cross-request leased reuse";

    // The leases release in the sweep's epilogue, just after the Done
    // frame becomes observable — poll briefly.
    for (int i = 0; i < 200; ++i) {
        if (harness.daemon.cache().stats().pinned == 0)
            break;
        ::usleep(10 * 1000);
    }
    EXPECT_EQ(0u, harness.daemon.cache().stats().pinned)
        << "all leases released";
}

TEST(ServeDaemonTest, CancelMidRunPoisonsOnlyThatRequest)
{
    std::string error;

    SweepRequestSpec fast;
    fast.name = "survivor";
    fast.configs = {"base", "perfect"};
    fast.benchmarks = {"gcc"};
    fast.instructions = 2000;
    fast.warmup = 200;
    fast.baseSeed = 7;
    fast.jobs = 2;

    // Reference: the survivor grid on an idle daemon.
    std::vector<std::string> ref;
    {
        DaemonHarness solo(testOptions("solo"));
        ServeClient client(solo.opts.socketPath);
        std::uint64_t id = 0;
        ASSERT_TRUE(client.submit(fast, id, error)) << error;
        Stream stream;
        ASSERT_TRUE(stream.drain(client, error)) << error;
        ASSERT_EQ(0, stream.done.state);
        ref = cellFingerprints(stream);
    }

    ServeOptions opts = testOptions("cancelrun");
    opts.executors = 2;
    DaemonHarness harness(opts);

    // The doomed request holds one executor (and cache pins) while
    // the survivor runs beside it on the other.
    SweepRequestSpec doomed;
    doomed.name = "doomed";
    doomed.configs = {"base", "perfect", "aggressive"};
    doomed.benchmarks = {"bzip"};
    doomed.instructions = 150000;
    doomed.warmup = 1000;
    doomed.ffInsts = 2000;
    doomed.jobs = 1;

    ServeClient clientD(harness.opts.socketPath);
    std::uint64_t idD = 0;
    ASSERT_TRUE(clientD.submit(doomed, idD, error)) << error;
    clientD.close();

    ServeClient clientF(harness.opts.socketPath);
    std::uint64_t idF = 0;
    ASSERT_TRUE(clientF.submit(fast, idF, error)) << error;

    ServeClient killer(harness.opts.socketPath);
    ASSERT_TRUE(killer.cancel(idD, error)) << error;

    // The survivor completes clean and bit-identical to its
    // uncontended run — the poison stays in the cancelled request.
    Stream streamF;
    ASSERT_TRUE(streamF.drain(clientF, error)) << error;
    EXPECT_EQ(0, streamF.done.state);
    EXPECT_EQ(0u, streamF.done.poisoned);
    EXPECT_EQ(ref, cellFingerprints(streamF));

    // The doomed request terminates Cancelled, with a Done frame.
    ServeClient watch(harness.opts.socketPath);
    ASSERT_TRUE(watch.attach(idD, 0, error)) << error;
    Stream streamD;
    ASSERT_TRUE(streamD.drain(watch, error)) << error;
    EXPECT_EQ(1, streamD.done.state);

    // Its cache pins drain with the lease (destructor runs just after
    // the Done frame is observable — poll briefly).
    for (int i = 0; i < 200; ++i) {
        if (harness.daemon.cache().stats().pinned == 0)
            break;
        ::usleep(10 * 1000);
    }
    EXPECT_EQ(0u, harness.daemon.cache().stats().pinned);
}

TEST(ServeDaemonTest, OverloadedSubmitsGetARetryHintThenSucceed)
{
    ServeOptions opts = testOptions("overload");
    opts.executors = 1;
    opts.maxQueueDepth = 1;
    DaemonHarness harness(opts);
    std::string error;

    SweepRequestSpec slow;
    slow.name = "hog";
    slow.configs = {"base"};
    slow.benchmarks = {"bzip"};
    slow.instructions = 150000;
    slow.warmup = 1000;

    ServeClient hog(harness.opts.socketPath);
    std::uint64_t idSlow = 0;
    ASSERT_TRUE(hog.submit(slow, idSlow, error)) << error;
    hog.close();

    // The daemon is at its admission limit: a second submit gets a
    // structured refusal with a retry hint, not an unbounded queue
    // slot (and not a dead connection).
    SweepRequestSpec quick;
    quick.name = "retried";
    quick.configs = {"base"};
    quick.benchmarks = {"gcc"};
    quick.instructions = 2000;
    quick.warmup = 200;

    std::uint64_t id = 0;
    std::uint64_t retryAfterMs = 0;
    {
        ServeClient refused(harness.opts.socketPath);
        ASSERT_FALSE(refused.submit(quick, id, error, &retryAfterMs));
        EXPECT_GE(retryAfterMs, 100u);
        EXPECT_LE(retryAfterMs, 10000u);
        EXPECT_NE(std::string::npos, error.find("overloaded"));
    }

    // Free the slot, then retry the way lsqctl does: resubmit only on
    // Overloaded refusals, backing off, until admitted.
    ServeClient killer(harness.opts.socketPath);
    ASSERT_TRUE(killer.cancel(idSlow, error)) << error;

    bool accepted = false;
    for (int i = 0; i < 500 && !accepted; ++i) {
        ServeClient again(harness.opts.socketPath);
        std::uint64_t hint = 0;
        if (again.submit(quick, id, error, &hint)) {
            accepted = true;
            Stream stream;
            ASSERT_TRUE(stream.drain(again, error)) << error;
            EXPECT_EQ(0, stream.done.state);
            EXPECT_EQ(1u, stream.done.cells);
        } else {
            ASSERT_NE(0u, hint)
                << "only Overloaded is expected here: " << error;
            ::usleep(10 * 1000);
        }
    }
    EXPECT_TRUE(accepted);
}

TEST(ServeDaemonTest, EvictedRecordsRaiseTheAttachFloorWithGone)
{
    ServeOptions opts = testOptions("retention");
    // A one-byte record budget: as soon as a later request streams,
    // every terminal request's records evict.
    opts.recordBudgetBytes = 1;
    DaemonHarness harness(opts);
    std::string error;

    SweepRequestSpec spec;
    spec.name = "first";
    spec.configs = {"base"};
    spec.benchmarks = {"bzip"};
    spec.instructions = 2000;
    spec.warmup = 200;

    ServeClient c1(harness.opts.socketPath);
    std::uint64_t id1 = 0;
    ASSERT_TRUE(c1.submit(spec, id1, error)) << error;
    Stream s1;
    ASSERT_TRUE(s1.drain(c1, error)) << error;
    ASSERT_EQ(0, s1.done.state);
    ASSERT_GE(s1.records.size(), 2u);

    // While the first request was live its records were exempt; the
    // second request's streaming pushes the total over budget and
    // evicts them (terminal, oldest id first).
    SweepRequestSpec spec2 = spec;
    spec2.name = "second";
    ServeClient c2(harness.opts.socketPath);
    std::uint64_t id2 = 0;
    ASSERT_TRUE(c2.submit(spec2, id2, error)) << error;
    Stream s2;
    ASSERT_TRUE(s2.drain(c2, error)) << error;
    ASSERT_EQ(0, s2.done.state);

    // Attaching below the floor gets an explicit Gone answer naming
    // the first index still available — never a silent wrong resume.
    ServeClient below(harness.opts.socketPath);
    ASSERT_TRUE(below.attach(id1, 0, error)) << error;
    DoneSummary done;
    std::uint64_t floor = 0;
    EXPECT_FALSE(below.stream(nullptr, done, error, &floor));
    EXPECT_EQ(s1.records.size(), floor)
        << "every record of the terminal request evicts";
    EXPECT_NE(std::string::npos, error.find("retention floor"));

    // At (or above) the floor the stream is still serviceable: an
    // empty replay that ends in the real Done frame.
    ServeClient at(harness.opts.socketPath);
    ASSERT_TRUE(at.attach(id1, floor, error)) << error;
    Stream tail;
    ASSERT_TRUE(tail.drain(at, error)) << error;
    EXPECT_EQ(0u, tail.records.size());
    EXPECT_EQ(0, tail.done.state);

    // Status reports the raised floor.
    ServeClient status(harness.opts.socketPath);
    std::string json;
    ASSERT_TRUE(status.status(id1, json, error)) << error;
    std::string want =
        "\"records_floor\": " + std::to_string(floor);
    EXPECT_NE(std::string::npos, json.find(want)) << json;
}

TEST(ServeDaemonTest, RestartReadoptsJournaledRequests)
{
    ServeOptions opts = testOptions("readopt");
    std::string error;
    fs::create_directories(opts.spoolDir);

    SweepRequestSpec spec;
    spec.name = "readopt";
    spec.configs = {"base", "perfect"};
    spec.benchmarks = {"bzip"};
    spec.instructions = 2000;
    spec.warmup = 200;
    spec.baseSeed = 3;
    spec.jobs = 2;

    // A dead daemon's spool: request 5 durably accepted but never
    // finished, its journal holding the SweepBegin record it had
    // already streamed — plus a stale journal from a request the
    // reqlog knows nothing about.
    FramedFileAppender log;
    ASSERT_TRUE(log.open(opts.spoolDir + "/reqlog", kReqlogFormat, false,
                         error))
        << error;
    ASSERT_TRUE(reqlogAppendAccepted(log, 5, spec, error)) << error;
    ASSERT_TRUE(log.close());

    const std::string begin = encodeSweepBeginRecord(
        spec.name, spec.configs, spec.benchmarks);
    {
        std::ofstream out(opts.spoolDir + "/req_5.journal",
                          std::ios::binary);
        out.write(kJournalMagic, sizeof kJournalMagic);
        std::string frame;
        ASSERT_TRUE(encodeFrame(begin, frame, error)) << error;
        out.write(frame.data(),
                  static_cast<std::streamsize>(frame.size()));
    }
    {
        std::ofstream out(opts.spoolDir + "/req_99.journal",
                          std::ios::binary);
        out << "stale";
    }

    {
        DaemonHarness harness(opts);

        // The janitor removed the journal nobody owns.
        EXPECT_FALSE(fs::exists(opts.spoolDir + "/req_99.journal"));

        // Request 5 is live again and completes; its stream still
        // starts at index 0 with the record the dead daemon emitted,
        // so a client's Attach(fromIndex) cursor stays valid.
        ServeClient att(harness.opts.socketPath);
        ASSERT_TRUE(att.attach(5, 0, error)) << error;
        Stream stream;
        ASSERT_TRUE(stream.drain(att, error)) << error;
        EXPECT_EQ(0, stream.done.state);
        ASSERT_GE(stream.records.size(), 3u);
        EXPECT_EQ(begin, stream.records[0].second);

        // The duplicate SweepBegin the re-run emits deduplicates away
        // in replay; the grid comes back whole.
        JournalAccumulator acc;
        for (const auto &[index, payload] : stream.records)
            ASSERT_TRUE(acc.add(payload, error)) << error;
        JournalContents contents = acc.contents();
        EXPECT_EQ(2u, contents.rows);
        EXPECT_EQ(1u, contents.cols);
        ASSERT_EQ(2u, contents.cells.size());
        for (const JournalCell &cell : contents.cells)
            EXPECT_EQ(JobStatus::Ok, cell.status);

        // Ids of logged requests are never reissued.
        ServeClient sub(harness.opts.socketPath);
        SweepRequestSpec after = spec;
        after.name = "after";
        after.configs = {"base"};
        std::uint64_t id = 0;
        ASSERT_TRUE(sub.submit(after, id, error)) << error;
        EXPECT_GE(id, 6u);
        Stream afterStream;
        ASSERT_TRUE(afterStream.drain(sub, error)) << error;
        EXPECT_EQ(0, afterStream.done.state);
    }

    // Both requests were durably marked finished: a second restart
    // compacts them away and re-adopts nothing.
    EXPECT_FALSE(fs::exists(opts.spoolDir + "/req_5.journal"));
    DaemonHarness reborn(opts);
    ServeClient status(opts.socketPath);
    std::string json;
    ASSERT_TRUE(status.status(0, json, error)) << error;
    EXPECT_EQ(std::string::npos, json.find("\"id\": 5")) << json;
}

TEST(ServeDaemonTest, RefusesToStealALiveDaemonsSocket)
{
    DaemonHarness harness(testOptions("steal"));

    // A second daemon pointed at the same socket must probe, find a
    // live answerer, and refuse — not silently unlink and rebind.
    Daemon thief(harness.opts);
    EXPECT_EQ(1, thief.run());

    // The incumbent is unharmed.
    ServeClient client(harness.opts.socketPath);
    std::string json, error;
    EXPECT_TRUE(client.status(0, json, error)) << error;
}

// ================================================= outcome rebuild ==

TEST(ServeClientTest, OutcomeFromJournalFlagsMissingCells)
{
    JournalAccumulator acc;
    std::string error;
    ASSERT_TRUE(acc.add(
        encodeSweepBeginRecord("partial", {"base"}, {"bzip", "gcc"}),
        error))
        << error;

    JournalCell cell;
    cell.row = 0;
    cell.col = 0;
    cell.status = JobStatus::Failed;
    cell.attempts = 2;
    cell.error = "boom";
    ASSERT_TRUE(acc.add(encodeCellRecord(cell), error)) << error;

    SweepOutcome out = outcomeFromJournal(acc.contents(), 3, 1.25);
    ASSERT_EQ(1u, out.grid.size());
    ASSERT_EQ(2u, out.grid[0].size());
    EXPECT_EQ(JobStatus::Failed, out.grid[0][0].status);
    EXPECT_EQ("boom", out.grid[0][0].error);
    EXPECT_EQ(JobStatus::Failed, out.grid[0][1].status);
    EXPECT_NE(std::string::npos,
              out.grid[0][1].error.find("missing from stream"));
    EXPECT_EQ(2u, out.poisonedCells);
    EXPECT_EQ(3u, out.jobs);
    EXPECT_EQ(1.25, out.seconds);
}

// =========================================================== config ==

TEST(ServeOptionsTest, ParseServeArgsCoversEveryFlag)
{
    ServeOptions opts;
    std::string error;
    ASSERT_TRUE(parseServeArgs(
        {"--socket", "/tmp/x.sock", "--cache-dir", "/tmp/x.cache",
         "--cache-mb", "8", "--clients", "2", "--executors", "3",
         "--max-queue", "9", "--record-mb", "7", "--spool-dir",
         "/tmp/x.spool", "--isolation", "thread"},
        opts, error))
        << error;
    EXPECT_EQ("/tmp/x.sock", opts.socketPath);
    EXPECT_EQ("/tmp/x.cache", opts.cacheDir);
    EXPECT_EQ(8ull << 20, opts.cacheBudgetBytes);
    EXPECT_EQ(2u, opts.clientWorkers);
    EXPECT_EQ(3u, opts.executors);
    EXPECT_EQ(9u, opts.maxQueueDepth);
    EXPECT_EQ(7ull << 20, opts.recordBudgetBytes);
    EXPECT_EQ("/tmp/x.spool", opts.spoolDir);
    EXPECT_EQ(IsolationMode::Thread, opts.isolation);

    ServeOptions bad;
    EXPECT_FALSE(parseServeArgs({"--cache-mb", "lots"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--isolation", "yolo"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--frobnicate"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--socket"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--executors", "0"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--executors", "65"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--max-queue", "0"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--record-mb", "many"}, bad, error));
    EXPECT_FALSE(parseServeArgs({"--spool-dir"}, bad, error));
}

} // namespace
} // namespace lsqscale
