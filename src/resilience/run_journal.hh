/**
 * @file
 * The run journal: the event log, halt hook and crash-consistent
 * checkpoint slot every resumable engine shares (the elastic trainer
 * in cluster/elastic_run and the serving fleet in serving/fleet).
 *
 * An engine is a pure function of (immutable inputs, its state), so a
 * run killed at any instant and resumed from its last on-disk
 * checkpoint finishes with output byte-identical to the uninterrupted
 * run — the property bench_chaos and bench_serving --chaos enforce
 * with real SIGKILLs. The journal owns the parts of that contract the
 * engines have in common:
 *
 *  - the event log: one deterministic "[eNNNNN] t=<sec> ..." line per
 *    structural event, the RunControl::onEvent callback, and the
 *    haltAfterEvents crash stand-in;
 *  - the checkpoint slot <checkpointDir>/<name>.ckpt: one
 *    common/atomic_file frame (magic, format version, the run
 *    identity, the body, FNV-1a checksum) written through
 *    writeFileAtomic, so a crash mid-save leaves the previous
 *    complete checkpoint intact;
 *  - the log's place in that body: the engine encodes its own fields
 *    and the journal appends the log as the body's last
 *    length-prefixed field, and reads it back after the engine's
 *    decoder.
 *
 * Each engine keeps its cadence, its halt handling and its field
 * codec, and names its format (magic, version) in a JournalFormat. A
 * load adopts a checkpoint whole or not at all: a bad magic, a
 * checksum mismatch, another version or run identity, or a body its
 * decoder refuses is a cold start.
 */

#ifndef ASCEND_RESILIENCE_RUN_JOURNAL_HH
#define ASCEND_RESILIENCE_RUN_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/atomic_file.hh"
#include "common/codec.hh"

namespace ascend {
namespace resilience {

/**
 * How a run persists and reports itself. Every run fingerprint
 * excludes these fields. None of them influence simulated results,
 * with one exception: the fleet logs and counts its saves only when
 * checkpointDir is set, so its event log and checkpoint count differ
 * between a persistent and a non-persistent run.
 */
struct RunControl
{
    /**
     * Directory for crash-consistent on-disk checkpoints; empty
     * disables persistence. When set, a valid checkpoint left by a
     * killed run with the same fingerprint is resumed automatically,
     * and a completed run removes its file.
     */
    std::string checkpointDir;

    /**
     * Test/chaos hook: stop (like a crash — checkpoint left on disk,
     * nothing charged) after this many event-log lines emitted by
     * this process. 0 = never.
     */
    unsigned haltAfterEvents = 0;

    /**
     * Called with each event-log line as it is appended (the chaos
     * harness flushes kill-point markers here).
     */
    std::function<void(const std::string &line)> onEvent;
};

/** One engine's checkpoint format. */
struct JournalFormat
{
    const char *name;      ///< file stem under RunControl::checkpointDir
    char magic[8];         ///< frame magic naming the format
    std::uint64_t version; ///< body layout version
};

/** Sim seconds as the log and reports print them ("%.9e"). */
std::string formatSeconds(double v);

/** One run's event log and checkpoint slot. */
class RunJournal
{
  public:
    RunJournal(const RunControl &control, const JournalFormat &format);

    /**
     * True when checkpointDir is set. Only then does the engine need
     * its run identity, load() and save().
     */
    bool persistent() const { return !control_.checkpointDir.empty(); }

    /**
     * Adopt the checkpoint written under @p run_id: verify the frame,
     * let @p decode parse the engine's fields, then read the trailing
     * event log and require the exact end of the body. Returns Ok
     * only then; on any other status the journal is untouched and the
     * engine must discard what @p decode parsed (a cold start). Saves
     * are written under @p run_id whatever the outcome.
     */
    FrameStatus load(std::string run_id,
                     const std::function<bool(ByteReader &)> &decode);

    /**
     * Persist @p fields followed by the event log atomically under
     * the run identity given to load(). Returns false (the previous
     * checkpoint intact) when the file cannot be written.
     */
    bool save(std::string fields) const;

    /** Delete the checkpoint file (a missing file is not an error). */
    void remove() const;

    /** "[eNNNNN] t=<simTimeSec> " for the next line. */
    std::string prefix(double sim_time_sec) const;

    /** Append @p line, call onEvent and arm the halt hook when due. */
    void append(const std::string &line);

    /** True once haltAfterEvents lines were appended by this process. */
    bool halted() const { return halted_; }

    const std::string &log() const { return log_; }

    /** Move the log out (the run is over). */
    std::string takeLog() { return std::move(log_); }

  private:
    /** The checkpoint file: <checkpointDir>/<name>.ckpt. */
    std::string path() const;

    const RunControl &control_;
    const JournalFormat &format_;
    std::string runId_;
    std::string log_;
    std::uint64_t lines_ = 0; ///< lines in log_, adopted ones included
    unsigned emitted_ = 0;    ///< lines appended by this process
    bool halted_ = false;
};

} // namespace resilience
} // namespace ascend

#endif // ASCEND_RESILIENCE_RUN_JOURNAL_HH
