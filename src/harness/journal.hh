/**
 * @file
 * Append-only sweep journal (lsqscale-journal-v1, docs/ROBUSTNESS.md).
 *
 * A JournalWriter sink records each finished cell — status, attempts,
 * crash provenance, and the full SimResult for healthy cells — as a
 * CRC-framed record the moment it completes. If the whole sweep
 * process later dies (OOM kill, power, a crash that even process
 * isolation cannot contain), `--resume <journal>` replays the journal:
 * cells recorded Ok are restored without re-running, and only
 * crashed/poisoned/missing cells execute again. The restored grid is
 * byte-identical to an uninterrupted run (same SimResult bytes, same
 * stable-order sink rendering).
 *
 * On-disk format: the 8-byte magic "LSQJRNL1", then one frame per
 * record (the frame codec in sample/serialize.hh), where payload is
 *     u8 type 1 (SweepBegin): str name, u64 rows, u64 cols,
 *        rows x str configLabel, cols x str benchmark
 *     u8 type 2 (CellDone): u64 row, u64 col, u8 status, u32 attempts,
 *        u64 seed, str error, u32 termSignal, u32 exitStatus,
 *        str stderrTail, f64 seconds, bool hasResult,
 *        [SimResult::saveState bytes]
 *
 * Torn-tail tolerance: a process killed mid-write leaves a partial
 * final frame; the reader keeps every record before it, and an
 * appending writer cuts it off first. Duplicate (row, col) records
 * — from a resumed run appending over a prior one — resolve
 * later-record-wins.
 */

#ifndef LSQSCALE_HARNESS_JOURNAL_HH
#define LSQSCALE_HARNESS_JOURNAL_HH

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/sink.hh"
#include "sample/serialize.hh"

namespace lsqscale {

/** File magic, first 8 bytes of every journal. */
inline constexpr char kJournalMagic[8] = {'L', 'S', 'Q', 'J',
                                          'R', 'N', 'L', '1'};

/** The journal's framed-file format. */
inline constexpr FramedFileFormat kJournalFormat{
    kJournalMagic, "journal", "lsqscale-journal-v1", /*durable=*/false};

/** One CellDone record, decoded. */
struct JournalCell
{
    std::size_t row = 0;
    std::size_t col = 0;
    JobStatus status = JobStatus::Ok;
    unsigned attempts = 0;
    std::uint64_t seed = 0;
    std::string error;
    int termSignal = 0;
    int exitStatus = 0;
    std::string stderrTail;
    double seconds = 0.0;
    bool hasResult = false;
    SimResult result; ///< valid only when hasResult
};

/** Everything a journal file held, deduplicated later-record-wins. */
struct JournalContents
{
    std::string name;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::string> configLabels;
    std::vector<std::string> benchmarks;
    std::vector<JournalCell> cells;
    std::size_t records = 0;    ///< raw CellDone records, pre-dedup
    bool truncatedTail = false; ///< file ended in a torn record
};

/**
 * Parse @p path. Returns false (with @p error set) only for files that
 * are unusable outright — unreadable, too short for the magic, or the
 * wrong magic; a torn tail is NOT an error (truncatedTail flags it).
 *
 * @p records, when given, receives the decoded records' payloads in
 * file order, undeduplicated. That is the order lsqd streamed them, so
 * a restarted daemon re-adopting a request rebuilds its record array
 * with the original stream indices, and a client's Attach(fromIndex)
 * resume stays valid across the restart.
 */
bool readJournal(const std::string &path, JournalContents &out,
                 std::string &error,
                 std::vector<std::string> *records = nullptr);

/**
 * Walk @p path's frames like readJournal() but return the raw record
 * payloads in file order, undecoded and undeduplicated. Same failure
 * contract as readJournal().
 */
bool readJournalRaw(const std::string &path,
                    std::vector<std::string> &payloads, bool &truncated,
                    std::string &error);

// ------------------------------------------------- record codecs ----
//
// The journal's record payloads double as the lsqd streaming format
// (docs/SERVICE.md): the daemon ships each finished cell to clients as
// the exact bytes a JournalWriter would append, so a client can tee
// the stream straight into a journal file and replay it with the same
// reader.

/** Encode a SweepBegin payload (record type 1). */
std::string encodeSweepBeginRecord(
    const std::string &name,
    const std::vector<std::string> &configLabels,
    const std::vector<std::string> &benchmarks);

/** The SweepBegin payload of a planned sweep's grid. */
std::string encodeSweepBeginRecord(const SweepOutcome &planned);

/** Encode a CellDone payload (record type 2). */
std::string encodeCellRecord(const JournalCell &cell);

/** A SweepCell reduced to its journal form (result kept when Ok). */
JournalCell journalCellFrom(const SweepCell &cell);

/**
 * Incremental record-payload decoder: feed CRC-verified payloads (in
 * stream order) and read back the deduplicated JournalContents.
 * Duplicate (row, col) records resolve later-record-wins, exactly like
 * readJournal(); unknown record types are skipped so old readers
 * tolerate newer writers.
 */
class JournalAccumulator
{
  public:
    /** Decode one payload. False (with @p error) on a malformed one. */
    bool add(const std::string &payload, std::string &error);

    /** Everything fed so far, cells flattened in (row, col) order. */
    JournalContents contents() const;

  private:
    JournalContents meta_;
    std::map<std::pair<std::size_t, std::size_t>, JournalCell> cells_;
};

/**
 * Write @p contents to @p path as a canonical journal: magic, one
 * SweepBegin record, then every cell in (row, col) order. The output
 * of merging/canonicalizing journals; round-trips through
 * readJournal() and `lsqjournal verify`.
 */
bool writeJournalFile(const std::string &path,
                      const JournalContents &contents,
                      std::string &error);

/**
 * ResultSink that appends one record per finished cell, flushed
 * immediately so the journal survives the process dying right after.
 * Restored cells (journal resume) never reach cellDone, so resuming
 * appends only the newly-executed cells.
 */
class JournalWriter : public ResultSink
{
  public:
    /**
     * Open @p path. @p append continues an existing journal (resume),
     * cutting off a torn tail first; otherwise the file is truncated
     * and a fresh magic written. An open failure warns and turns the
     * sink into a no-op (ok() false) — journaling must never poison a
     * healthy sweep.
     */
    explicit JournalWriter(std::string path, bool append = false);

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    bool ok() const { return out_.isOpen(); }
    const std::string &path() const { return path_; }

    void sweepBegin(const SweepOutcome &planned) override;
    void cellDone(const SweepCell &cell) override;

  private:
    void writeRecord(const std::string &payload);

    std::string path_;
    FramedFileAppender out_;
};

/**
 * Process-wide journal directory override (--journal DIR; empty
 * clears). When set (or LSQSCALE_JOURNAL is in the environment), every
 * env-driven sweep (runAll / envJsonSink path) also journals to
 * <dir>/JOURNAL_<program>[_n].journal.
 */
void setJournalDirOverride(const std::string &dir);
std::string journalDirOverride();

/**
 * Process-wide resume override (--resume PATH; empty clears). When
 * set, the next env-driven sweep restores finished cells from this
 * journal and appends to it.
 */
void setResumeJournalOverride(const std::string &path);
std::string resumeJournalOverride();

} // namespace lsqscale

#endif // LSQSCALE_HARNESS_JOURNAL_HH
