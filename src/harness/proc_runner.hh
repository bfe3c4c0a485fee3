/**
 * @file
 * Process isolation for sweep cells (docs/ROBUSTNESS.md).
 *
 * runCellInProcess() forks, runs the cell's job in the child, and
 * ships the SimResult back over a pipe as one frame of the shared
 * codec (sample/serialize.hh). Whatever the child does — SIGSEGV,
 * SIGABRT from an LSQ_ASSERT or checker panic, a hang, a clean throw —
 * only that cell is lost; the worker thread classifies the corpse and
 * the pool keeps draining.
 *
 * Liveness is a heartbeat, not a time budget: the child beats a pipe
 * from Core::run's per-cycle hook (src/inject), and the parent kills
 * it only after the beats stop for the watchdog grace. A slow cell
 * that is still simulating lives; a hung one dies in one grace
 * period. SweepOptions::timeout additionally acts as a hard wall-clock
 * deadline.
 *
 * Fork safety: pipe creation, the fork, and the parent-side close of
 * the pipe write ends happen under one global mutex, so a child
 * forked by another worker can never inherit this attempt's write
 * ends (which would delay EOF past the watchdog and poison a healthy
 * cell). Inside that bracket the fork also holds the metrics registry
 * mutex and the logging mutex (metrics::lockRegistryForFork,
 * lockLogForFork) so a child forked while another thread was
 * registering a metric or mid-logLine() does not inherit a locked
 * registry or logger. The
 * child leaves via std::_Exit — no atexit hooks (the sweep failure
 * hook must fire once, in the parent), no static destructors.
 */

#ifndef LSQSCALE_HARNESS_PROC_RUNNER_HH
#define LSQSCALE_HARNESS_PROC_RUNNER_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulator.hh"

namespace lsqscale {

/** How a process-isolated attempt ended. */
enum class ProcStatus : std::uint8_t
{
    Ok,       ///< child exited 0 with a valid result payload
    Failed,   ///< the job threw; its what() came back over the pipe
    Crashed,  ///< child died on a signal or exited without a payload
    TimedOut, ///< watchdog (heartbeat silence) or hard-deadline kill
};

/** Knobs for one process-isolated attempt. */
struct ProcOptions
{
    /** Kill after this much heartbeat silence; 0 disables. */
    std::chrono::milliseconds watchdog{30000};
    /** Hard wall-clock deadline for the attempt; 0 = unlimited. */
    std::chrono::milliseconds hardTimeout{0};
    /** Child heartbeat period, in simulated cycles. */
    std::uint64_t heartbeatCycles = 65536;
};

/** Everything the parent learned about the attempt. */
struct ProcOutcome
{
    ProcStatus status = ProcStatus::Failed;
    SimResult result;       ///< valid only when status == Ok
    std::string error;      ///< one-line provenance for the sink row
    int termSignal = 0;     ///< nonzero when a signal killed the child
    int exitStatus = 0;     ///< child exit code when it exited
    std::string stderrTail; ///< last ~2KB of the child's stderr
};

/**
 * Fork and run @p body in the child; block until the child exits (or
 * is killed by the watchdog/deadline) and classify the outcome. Safe
 * to call concurrently from JobPool worker threads.
 */
ProcOutcome runCellInProcess(const std::function<SimResult()> &body,
                             const ProcOptions &opts);

} // namespace lsqscale

#endif // LSQSCALE_HARNESS_PROC_RUNNER_HH
