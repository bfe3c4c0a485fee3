#include "harness/journal.hh"

#include <utility>

#include "common/logging.hh"
#include "metrics/hostprof.hh"
#include "sample/serialize.hh"

namespace lsqscale {

namespace {

constexpr std::uint8_t kRecSweepBegin = 1;
constexpr std::uint8_t kRecCellDone = 2;

/** JobStatus <-> stable on-disk byte. */
std::uint8_t
statusToByte(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok:
        return 0;
      case JobStatus::Failed:
        return 1;
      case JobStatus::TimedOut:
        return 2;
      case JobStatus::Crashed:
        return 3;
    }
    return 1;
}

bool
statusFromByte(std::uint8_t b, JobStatus &out)
{
    switch (b) {
      case 0:
        out = JobStatus::Ok;
        return true;
      case 1:
        out = JobStatus::Failed;
        return true;
      case 2:
        out = JobStatus::TimedOut;
        return true;
      case 3:
        out = JobStatus::Crashed;
        return true;
      default:
        return false;
    }
}

std::string g_journalDir;
std::string g_resumePath;

} // namespace

// ----------------------------------------------------------- codecs --

std::string
encodeSweepBeginRecord(const std::string &name,
                       const std::vector<std::string> &configLabels,
                       const std::vector<std::string> &benchmarks)
{
    SerialWriter w;
    w.u8(kRecSweepBegin);
    w.str(name);
    w.u64(configLabels.size());
    w.u64(benchmarks.size());
    for (const auto &label : configLabels)
        w.str(label);
    for (const auto &bench : benchmarks)
        w.str(bench);
    return w.buffer();
}

std::string
encodeSweepBeginRecord(const SweepOutcome &planned)
{
    std::vector<std::string> labels;
    std::vector<std::string> benchmarks;
    for (const auto &row : planned.grid)
        labels.push_back(row.empty() ? std::string()
                                     : row.front().configLabel);
    if (!planned.grid.empty())
        for (const auto &cell : planned.grid.front())
            benchmarks.push_back(cell.benchmark);
    return encodeSweepBeginRecord(planned.name, labels, benchmarks);
}

std::string
encodeCellRecord(const JournalCell &cell)
{
    SerialWriter w;
    w.u8(kRecCellDone);
    w.u64(cell.row);
    w.u64(cell.col);
    w.u8(statusToByte(cell.status));
    w.u32(cell.attempts);
    w.u64(cell.seed);
    w.str(cell.error);
    w.u32(static_cast<std::uint32_t>(cell.termSignal));
    w.u32(static_cast<std::uint32_t>(cell.exitStatus));
    w.str(cell.stderrTail);
    w.f64(cell.seconds);
    bool hasResult = cell.hasResult && cell.status == JobStatus::Ok;
    w.b(hasResult);
    if (hasResult)
        cell.result.saveState(w);
    return w.buffer();
}

JournalCell
journalCellFrom(const SweepCell &cell)
{
    JournalCell jc;
    jc.row = cell.row;
    jc.col = cell.col;
    jc.status = cell.status;
    jc.attempts = cell.attempts;
    jc.seed = cell.seed;
    jc.error = cell.error;
    jc.termSignal = cell.termSignal;
    jc.exitStatus = cell.exitStatus;
    jc.stderrTail = cell.stderrTail;
    jc.seconds = cell.seconds;
    jc.hasResult = cell.status == JobStatus::Ok;
    if (jc.hasResult)
        jc.result = cell.result;
    return jc;
}

bool
JournalAccumulator::add(const std::string &payload, std::string &error)
{
    try {
        SerialReader r(payload);
        std::uint8_t type = r.u8();
        if (type == kRecSweepBegin) {
            meta_.name = r.str();
            meta_.rows = static_cast<std::size_t>(r.u64());
            meta_.cols = static_cast<std::size_t>(r.u64());
            meta_.configLabels.clear();
            meta_.benchmarks.clear();
            for (std::size_t i = 0; i < meta_.rows; ++i)
                meta_.configLabels.push_back(r.str());
            for (std::size_t i = 0; i < meta_.cols; ++i)
                meta_.benchmarks.push_back(r.str());
            r.expectEnd("journal sweep-begin record");
        } else if (type == kRecCellDone) {
            JournalCell cell;
            cell.row = static_cast<std::size_t>(r.u64());
            cell.col = static_cast<std::size_t>(r.u64());
            std::uint8_t sb = r.u8();
            if (!statusFromByte(sb, cell.status))
                throw SerialError(strfmt("unknown cell status %u", sb));
            cell.attempts = r.u32();
            cell.seed = r.u64();
            cell.error = r.str();
            cell.termSignal = static_cast<int>(r.u32());
            cell.exitStatus = static_cast<int>(r.u32());
            cell.stderrTail = r.str();
            cell.seconds = r.f64();
            cell.hasResult = r.b();
            if (cell.hasResult)
                cell.result.loadState(r);
            r.expectEnd("journal cell record");
            ++meta_.records;
            cells_[{cell.row, cell.col}] = std::move(cell);
        }
        // Unknown record types: skip (the frame CRC already vouched
        // for the bytes), so old readers tolerate newer writers.
    } catch (const SerialError &e) {
        error = e.what();
        return false;
    }
    return true;
}

JournalContents
JournalAccumulator::contents() const
{
    JournalContents out = meta_;
    out.cells.clear();
    out.cells.reserve(cells_.size());
    for (const auto &kv : cells_)
        out.cells.push_back(kv.second);
    return out;
}

// ----------------------------------------------------------- reader --

bool
readJournalRaw(const std::string &path,
               std::vector<std::string> &payloads, bool &truncated,
               std::string &error)
{
    ScopedHostPhase prof(HostPhase::JournalIo);
    FrameWalk walk;
    if (!readFramedFile(path, kJournalFormat, walk, error))
        return false;
    payloads = std::move(walk.payloads);
    truncated = walk.torn;
    return true;
}

bool
readJournal(const std::string &path, JournalContents &out,
            std::string &error, std::vector<std::string> *records)
{
    std::vector<std::string> payloads;
    bool truncated = false;
    if (!readJournalRaw(path, payloads, truncated, error))
        return false;

    // The accumulator implements later-record-wins for duplicates.
    JournalAccumulator acc;
    std::size_t kept = 0;
    for (; kept < payloads.size(); ++kept) {
        std::string recErr;
        if (!acc.add(payloads[kept], recErr)) {
            // A CRC-valid but undecodable record: treat like a torn
            // tail — keep what parsed, stop trusting the rest.
            LSQ_WARN("journal %s: bad record (%s); ignoring the rest",
                     path.c_str(), recErr.c_str());
            truncated = true;
            break;
        }
    }
    out = acc.contents();
    out.truncatedTail = truncated;
    if (records != nullptr) {
        payloads.resize(kept);
        *records = std::move(payloads);
    }
    return true;
}

// ------------------------------------------------- canonical write --

bool
writeJournalFile(const std::string &path,
                 const JournalContents &contents, std::string &error)
{
    FramedFileAppender out;
    if (!out.open(path, kJournalFormat, /*fresh=*/true, error) ||
        !out.append(encodeSweepBeginRecord(contents.name,
                                           contents.configLabels,
                                           contents.benchmarks),
                    error))
        return false;
    for (const JournalCell &cell : contents.cells)
        if (!out.append(encodeCellRecord(cell), error))
            return false;
    if (!out.close()) {
        error = strfmt("cannot close journal %s", path.c_str());
        return false;
    }
    return true;
}

// ----------------------------------------------------------- writer --

JournalWriter::JournalWriter(std::string path, bool append)
    : path_(std::move(path))
{
    std::string error;
    if (!out_.open(path_, kJournalFormat, !append, error))
        LSQ_WARN("%s; journaling disabled", error.c_str());
}

void
JournalWriter::writeRecord(const std::string &payload)
{
    if (!out_.isOpen())
        return;
    ScopedHostPhase prof(HostPhase::JournalIo);
    // One write(2) per record, unbuffered: the journal exists to
    // survive the process dying at an arbitrary moment.
    std::string error;
    if (!out_.append(payload, error)) {
        LSQ_WARN("journal %s: %s; journaling disabled", path_.c_str(),
                 error.c_str());
        out_.close();
    }
}

void
JournalWriter::sweepBegin(const SweepOutcome &planned)
{
    writeRecord(encodeSweepBeginRecord(planned));
}

void
JournalWriter::cellDone(const SweepCell &cell)
{
    writeRecord(encodeCellRecord(journalCellFrom(cell)));
}

// -------------------------------------------------------- overrides --

void
setJournalDirOverride(const std::string &dir)
{
    g_journalDir = dir;
}

std::string
journalDirOverride()
{
    return g_journalDir;
}

void
setResumeJournalOverride(const std::string &path)
{
    g_resumePath = path;
}

std::string
resumeJournalOverride()
{
    return g_resumePath;
}

} // namespace lsqscale
