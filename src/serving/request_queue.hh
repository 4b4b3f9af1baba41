/**
 * @file
 * The fleet's request queue: the only code that knows queue order.
 *
 * Semantically the queue is one sequence. push() appends. A dispatch
 * stable-sorts the eligible entries (eligibleSec has passed) by
 * requestBefore, takes its batch from them, and leaves the sequence
 * as the still-waiting entries in their order followed by the untaken
 * eligible ones in sorted order. A purge removes entries in place.
 * That sequence order is observable: it decides batches among equal
 * keys, the order a purge sheds expired entries in (each shed may
 * assign a re-offer id), and the serialized queue in the serving
 * checkpoint blob.
 *
 * Kept literally, every dispatch would copy, split and sort the whole
 * queue, and a run under overload would cost O(events x queue). The
 * queue keeps the same order with ordered structures instead:
 *
 *  - per QoS tier, the eligible entries in dispatch order: requestBefore
 *    and then a tie rank. Each tier keeps them in two parts:
 *     - a sorted run, a deque in dispatch order. A push goes to its
 *       back when it does not sort before the current back. Fresh
 *       arrivals and re-offers almost always do: their deadline is
 *       arrival + tier SLO, and arrivals reach the queue in time
 *       order;
 *     - a side min-heap in dispatch order for everything else:
 *       retries promoted from backoff, hedge copies, and a fresh
 *       entry whose deadline ties the back's with a smaller id.
 *    The tier's front is the lesser of the run's head and the heap's
 *    top, so expired entries sit at the front. Every instance of one
 *    request shares its deadline and tier, so a binary search of the
 *    run on (deadline, id) finds the hedge losers a purge drops; they
 *    are marked dead in place (never at either end of the run). A
 *    purge removes the side heap's losers in one pass;
 *  - a min-heap of the entries that are not yet eligible (retry
 *    backoff), keyed by (eligibleSec, push seq);
 *  - a min-heap of pending closed-loop re-offers, keyed by
 *    (eligibleSec, push seq), kept apart from size().
 *
 * Relative to the last dispatch that found an eligible entry (a
 * "non-empty" dispatch), the sequence has three segments:
 *
 *   1. entries still waiting at that dispatch, in push order;
 *   2. entries eligible at that dispatch and not taken, in dispatch
 *      order;
 *   3. everything pushed since, in push order.
 *
 * The next dispatch stable-sorts them in that order, so among equal
 * requestBefore keys a segment-1 entry goes first even if a segment-2
 * one was pushed earlier. The tie rank is (group, seq): seq is the
 * push ordinal, and group is 0 except for an entry promoted from the
 * heap after it sat waiting through a non-empty dispatch, which takes
 * a group below every earlier one. A stamp of the push counter at the
 * last non-empty dispatch tells segment 3 from the others, so the
 * sequence can be rebuilt on demand.
 *
 * The queue also owns the first-fate ledger: a hedged request is
 * decided by the first of its instances to complete or be shed, and
 * answer() records that fate in one id set. answered() tells the
 * fleet an in-flight instance lost; purge() drops the queued losers.
 *
 * size() counts every entry physically queued. Losing hedge copies
 * and expired entries stay counted until purge() removes them, which
 * is what admission, autoscale and brownout read.
 */

#ifndef ASCEND_SERVING_REQUEST_QUEUE_HH
#define ASCEND_SERVING_REQUEST_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "common/field.hh"
#include "serving/workload.hh"

namespace ascend {
namespace serving {

/** One queued (or in-flight) request instance. */
struct PendingRequest
{
    std::uint64_t id = 0;
    std::uint32_t tier = 0;
    double arrivalSec = 0;
    double deadlineSec = 0; ///< absolute SLO instant
    std::uint32_t attempt = 0; ///< failure re-dispatches so far
    double eligibleSec = 0; ///< earliest dispatch (retry backoff)
    std::uint8_t hedged = 0; ///< participates in first-wins dedup
    std::uint8_t copy = 0;   ///< 1 = hedge duplicate, not the original
    std::uint8_t reoffers = 0; ///< closed-loop re-offers so far
};

/**
 * PendingRequest's fields, in checkpoint order (common/field.hh); the
 * flags share one word: copy, hedged, then reoffers from bit 2.
 */
template <typename F, RecordOf<PendingRequest>... R>
void
forEachField(F &&f, R &...r)
{
    f("id", r.id...);
    f("tier", r.tier...);
    f("arrival_sec", r.arrivalSec...);
    f("deadline_sec", r.deadlineSec...);
    f("attempt", r.attempt...);
    f("eligible_sec", r.eligibleSec...);
    f("flags", bitWord<1, 1, 8>(r.copy, r.hedged, r.reoffers)...);
}

/** Dispatch order: tightest deadline first, then stable identity. */
bool requestBefore(const PendingRequest &a, const PendingRequest &b);

/** The fleet queue and its pending re-offers (see the file comment). */
class RequestQueue
{
  public:
    /** Entries queued, losers and expired ones included until purge. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Queue @p r at instant @p t; eligible now iff eligibleSec <= t. */
    void push(const PendingRequest &r, double t);

    /**
     * Record the fate (completed or shed) of @p winner, a hedged
     * instance. False when its id already had one; else its queued
     * hedged instances lose, and the next purge() drops them.
     */
    bool answer(const PendingRequest &winner);

    /** Whether hedged request @p id has met its first fate. */
    bool answered(std::uint64_t id) const { return answered_.contains(id); }

    /**
     * Drop the losers of answer(); when @p shed_expired, also
     * remove every entry with t > deadlineSec and return those in
     * queue order (the order their shed accounting must follow).
     */
    std::vector<PendingRequest> purge(double t, bool shed_expired);

    /**
     * Take one batch of at most @p cap eligible entries at @p t: each
     * tier in index order first gets up to its reservedSlots, then the
     * remainder fills in dispatch order. Returns nothing, and changes
     * nothing, when no entry is eligible.
     */
    std::vector<PendingRequest> takeBatch(double t, std::size_t cap,
                                          const std::vector<QosTier> &tiers);

    /**
     * Earliest eligibleSec later than @p t over waiting entries and
     * re-offers; +infinity when there is none.
     */
    double nextWake(double t);

    /// @{ Closed-loop re-offers, due at their eligibleSec.
    void pushReoffer(const PendingRequest &r);
    /** Remove and return the re-offers due at @p t, in push order. */
    std::vector<PendingRequest> takeDueReoffers(double t);
    /// @}

    /// @{ Sequence order of the queue, push order of the re-offers,
    /// ascending order of the answered ids.
    std::vector<PendingRequest> entries() const;
    std::vector<PendingRequest> reoffers() const;
    std::vector<std::uint64_t> answeredIds() const;
    /// @}

    /**
     * Rebuild from entries()/reoffers()/answeredIds() at instant
     * @p t; each tier's eligible entries come back as one sorted
     * run, with an empty side heap. Losers answered since the last
     * purge are not carried over; the fleet saves its state only
     * between steps, after the step's purge.
     */
    void restore(const std::vector<PendingRequest> &entries,
                 const std::vector<PendingRequest> &reoffers,
                 const std::vector<std::uint64_t> &answered, double t);

    /** Drop every entry, re-offer and answered id. */
    void clear();

  private:
    struct Entry
    {
        PendingRequest req;
        std::int64_t group = 0; ///< tie rank, major
        std::uint64_t seq = 0;  ///< push ordinal, tie rank minor
        bool dead = false;      ///< hedge loser left in a sorted run
    };

    /** Eligible-entry order: requestBefore, then (group, seq). */
    struct DispatchOrder
    {
        bool operator()(const Entry &a, const Entry &b) const;
    };

    /** DispatchOrder reversed: std::*_heap's "less" for a min-heap. */
    static bool
    sortsAfter(const Entry &a, const Entry &b)
    {
        return DispatchOrder{}(b, a);
    }

    /** One tier's eligible entries: a sorted run and a side heap. */
    struct TierQueue
    {
        std::deque<Entry> run;   ///< in DispatchOrder, live at both ends
        std::vector<Entry> heap; ///< min-heap in DispatchOrder

        bool empty() const { return run.empty() && heap.empty(); }
        /** Whether the front is the heap's top (else the run's head). */
        bool frontInHeap() const;
        const Entry &front() const;
        void push(const Entry &e);
        Entry pop();
        /** Mark the hedged instances of @p w in the run dead; count. */
        std::size_t killInRun(const PendingRequest &w);
        /** Drop dead entries from both ends of the run. */
        void trim();
    };

    /** Queue @p e in its tier, growing the tier list as needed. */
    void insertEligible(const Entry &e);

    /** Move every waiting entry due at @p t into its tier. */
    void promote(double t);

    /** Pop the re-offers due at @p t, in heap order. */
    std::vector<Entry> popDueReoffers(double t);

    /** Sequence order over entries of either structure. */
    bool sequenceBefore(const Entry &a, bool a_waiting, const Entry &b,
                        bool b_waiting) const;

    /** Tie group of entries promoted before the next dispatch. */
    std::int64_t frontGroup() const { return -(dispatches_ + 1); }

    std::vector<TierQueue> eligible_; ///< indexed by tier
    std::vector<Entry> waiting_;      ///< min-heap on (eligibleSec, seq)
    std::vector<Entry> reoffers_;     ///< min-heap on (eligibleSec, seq)
    std::unordered_set<std::uint64_t> answered_; ///< first fates
    std::vector<PendingRequest> unpurged_; ///< winners since purge
    std::size_t size_ = 0; ///< live entries, eligible and waiting
    std::uint64_t nextSeq_ = 0;
    std::uint64_t nextReofferSeq_ = 0;
    std::uint64_t stamp_ = 0;     ///< nextSeq_ at the last dispatch
    std::int64_t dispatches_ = 0; ///< non-empty dispatches so far
};

} // namespace serving
} // namespace ascend

#endif // ASCEND_SERVING_REQUEST_QUEUE_HH
