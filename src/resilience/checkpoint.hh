/**
 * @file
 * Crash-consistent run checkpoints for the elastic cluster engine.
 *
 * A RunCheckpoint is the complete mutable state of an elastic
 * training run at an event boundary: simulated clock, next step,
 * surviving world, spare budget, resilience counters, event cursors
 * and the accumulated event log. Because the engine is a pure
 * function of this state (plus its immutable inputs), a run killed at
 * any instant and resumed from its last on-disk checkpoint finishes
 * with output byte-identical to the uninterrupted run — the property
 * bench_chaos enforces with real SIGKILLs.
 *
 * On disk a checkpoint is one common/atomic_file frame (the layer the
 * SimCache file and the serving blob share): magic ASCCKPT, format
 * version, the run identity, the field-wise body, and an FNV-1a
 * checksum over everything before it. The frame is written through
 * writeFileAtomic, so a crash or power loss mid-save leaves the
 * previous complete checkpoint intact. A loader refuses, and adopts
 * nothing, on a bad magic, a checksum mismatch, another format
 * version, another run's identity, or a body that does not parse to
 * its exact end: bit rot, truncation and another run's checkpoint
 * can never leak into this one.
 */

#ifndef ASCEND_RESILIENCE_CHECKPOINT_HH
#define ASCEND_RESILIENCE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ascend {
namespace resilience {

/** Resilience counters an elastic run accumulates. */
struct ElasticCounters
{
    std::uint64_t failovers = 0;      ///< spare-node replacements
    std::uint64_t shrinks = 0;        ///< elastic world reductions
    std::uint64_t rollbacks = 0;      ///< checkpoint restores
    std::uint64_t replayedSteps = 0;  ///< steps lost and re-run
    std::uint64_t speculations = 0;   ///< straggler speculative wins
    std::uint64_t retries = 0;        ///< link-level retry attempts
    std::uint64_t degradedSteps = 0;  ///< steps at reduced bandwidth
    std::uint64_t sparesUsed = 0;     ///< warm spares consumed
    std::uint64_t spareExhausted = 0; ///< failures with an empty pool
    std::uint64_t checkpointsSaved = 0;

    bool operator==(const ElasticCounters &o) const;
};

/** Complete engine state at one event boundary. */
struct RunCheckpoint
{
    /**
     * Identity of the producing run: a fingerprint over the job,
     * cluster, schedule and elastic options. load() refuses a file
     * whose identity differs from the requester's.
     */
    std::string runId;

    std::uint64_t sequence = 0; ///< checkpoint ordinal within the run
    std::uint64_t nextStep = 0; ///< first step not yet committed
    double simTimeSec = 0;      ///< simulated clock at the boundary

    /** Surviving node ids (spares have ids >= the initial count). */
    std::vector<std::uint32_t> activeNodes;
    std::uint64_t sparesLeft = 0;

    /** Step/time of the last *logical* (rollback target) checkpoint. */
    std::uint64_t lastCheckpointStep = 0;
    double lastCheckpointSec = 0;

    /// @{ Cursors into the time-sorted fault-event lists.
    std::uint64_t nodeEventCursor = 0;
    std::uint64_t eccEventCursor = 0;
    /// @}

    ElasticCounters counters;

    /** Deterministic one-line-per-event history, crash-consistent. */
    std::string eventLog;

    bool operator==(const RunCheckpoint &o) const;
};

/**
 * One checkpoint slot on disk: a fixed file under a directory,
 * overwritten atomically on every save.
 */
class CheckpointStore
{
  public:
    /** Store under @p dir (created on first save) named @p name. */
    explicit CheckpointStore(std::string dir,
                             std::string name = "elastic");

    /** The file this store reads and writes. */
    std::string path() const;

    /**
     * Persist @p state atomically. Returns false (leaving any
     * previous checkpoint intact) when the directory or file cannot
     * be written.
     */
    bool save(const RunCheckpoint &state) const;

    /**
     * Load the checkpoint into @p out. Returns false — without
     * touching @p out — on a missing/unreadable file, a bad magic or
     * format version, a checksum mismatch, a truncated body, or a
     * runId different from @p run_id.
     */
    bool load(RunCheckpoint &out, const std::string &run_id) const;

    /**
     * load() with structured diagnosis: a missing/unreadable file
     * still returns false quietly (absence is a normal cold start),
     * but every validation failure — bad magic, unknown format,
     * checksum mismatch, truncated or over-long field, foreign
     * runId — throws ascend::Error{CheckpointCorrupt} naming the
     * refusal. Fuzz tests flip bits and truncate artifacts and assert
     * every corruption lands here, never in a crash or a silent
     * acceptance.
     */
    bool loadChecked(RunCheckpoint &out,
                     const std::string &run_id) const;

    /**
     * Persist an opaque client payload (e.g. the serving engine's
     * serialized state) in the same frame as save(), under magic
     * ASCBLOB, with @p run_id as the identity.
     */
    bool saveBlob(const std::string &run_id,
                  const std::string &payload) const;

    /**
     * Load a payload written by saveBlob(). Returns false on a
     * missing file or any validation failure; the Checked variant
     * throws ascend::Error{CheckpointCorrupt} on corruption like
     * loadChecked().
     */
    bool loadBlob(std::string &payload, const std::string &run_id) const;
    bool loadBlobChecked(std::string &payload,
                         const std::string &run_id) const;

    /** Delete the checkpoint file (missing file is not an error). */
    void remove() const;

  private:
    std::string dir_;
    std::string name_;
};

} // namespace resilience
} // namespace ascend

#endif // ASCEND_RESILIENCE_CHECKPOINT_HH
