/**
 * @file
 * Differential test of serving::RequestQueue against the vector queue
 * the fleet engine used before it: one std::vector that every purge
 * copied, every dispatch split into eligible and waiting and
 * stable_sorted, and every wake-up query scanned, with a sorted id
 * vector as the first-fate ledger. Seeded random operation sequences
 * drive both; after every operation the batches, the shed order,
 * size(), the next wake-up instant, the serialized (vector) order and
 * the ledger must agree exactly.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "serving/request_queue.hh"

using namespace ascend;
using serving::PendingRequest;
using serving::QosTier;
using serving::RequestQueue;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The reference: the fleet's queue code before RequestQueue. */
struct VectorQueue
{
    std::vector<PendingRequest> queue;
    std::vector<PendingRequest> reoffers;
    std::vector<std::uint64_t> answered; ///< sorted hedged winners

    void push(const PendingRequest &r) { queue.push_back(r); }

    /** True when @p id had no fate yet (RequestQueue::answer). */
    bool
    answer(std::uint64_t id)
    {
        const auto it =
            std::lower_bound(answered.begin(), answered.end(), id);
        if (it != answered.end() && *it == id)
            return false;
        answered.insert(it, id);
        return true;
    }

    bool
    isAnswered(std::uint64_t id) const
    {
        return std::binary_search(answered.begin(), answered.end(), id);
    }

    std::vector<PendingRequest>
    purge(double t, bool shed_expired)
    {
        std::vector<PendingRequest> kept, shed;
        kept.reserve(queue.size());
        for (const PendingRequest &req : queue) {
            if (req.hedged && std::binary_search(answered.begin(),
                                                 answered.end(), req.id))
                continue;
            if (shed_expired && t > req.deadlineSec) {
                shed.push_back(req);
                continue;
            }
            kept.push_back(req);
        }
        queue.swap(kept);
        return shed;
    }

    std::vector<PendingRequest>
    takeBatch(double t, std::size_t cap, const std::vector<QosTier> &tiers)
    {
        std::vector<PendingRequest> eligible, waiting;
        for (const PendingRequest &req : queue)
            (req.eligibleSec <= t ? eligible : waiting).push_back(req);
        if (eligible.empty())
            return {};
        std::stable_sort(eligible.begin(), eligible.end(),
                         serving::requestBefore);

        std::vector<char> taken(eligible.size(), 0);
        std::vector<PendingRequest> batch;
        for (std::uint32_t ti = 0;
             ti < std::uint32_t(tiers.size()) && batch.size() < cap;
             ++ti) {
            unsigned got = 0;
            for (std::size_t i = 0; i < eligible.size() &&
                                    got < tiers[ti].reservedSlots &&
                                    batch.size() < cap;
                 ++i) {
                if (taken[i] || eligible[i].tier != ti)
                    continue;
                taken[i] = 1;
                batch.push_back(eligible[i]);
                ++got;
            }
        }
        for (std::size_t i = 0; i < eligible.size() && batch.size() < cap;
             ++i) {
            if (taken[i])
                continue;
            taken[i] = 1;
            batch.push_back(eligible[i]);
        }
        for (std::size_t i = 0; i < eligible.size(); ++i)
            if (!taken[i])
                waiting.push_back(eligible[i]);
        queue.swap(waiting);
        return batch;
    }

    double
    nextWake(double t) const
    {
        double next = kInf;
        for (const PendingRequest &req : queue)
            if (req.eligibleSec > t)
                next = std::min(next, req.eligibleSec);
        for (const PendingRequest &req : reoffers)
            if (req.eligibleSec > t)
                next = std::min(next, req.eligibleSec);
        return next;
    }

    std::vector<PendingRequest>
    takeDueReoffers(double t)
    {
        std::vector<PendingRequest> later, due;
        for (const PendingRequest &req : reoffers)
            (req.eligibleSec <= t ? due : later).push_back(req);
        reoffers.swap(later);
        return due;
    }
};

std::string
show(const PendingRequest &r)
{
    return "{id " + std::to_string(r.id) + " tier " +
           std::to_string(r.tier) + " deadline " +
           std::to_string(r.deadlineSec) + " attempt " +
           std::to_string(r.attempt) + " copy " + std::to_string(r.copy) +
           " hedged " + std::to_string(r.hedged) + " eligible " +
           std::to_string(r.eligibleSec) + " arrival " +
           std::to_string(r.arrivalSec) + " reoffers " +
           std::to_string(r.reoffers) + "}";
}

/** Field-wise equality of two request lists, with a readable diff. */
::testing::AssertionResult
sameList(const std::vector<PendingRequest> &want,
         const std::vector<PendingRequest> &got)
{
    if (want.size() != got.size())
        return ::testing::AssertionFailure()
               << "size " << got.size() << ", want " << want.size();
    for (std::size_t i = 0; i < want.size(); ++i) {
        const PendingRequest &a = want[i];
        const PendingRequest &b = got[i];
        if (a.id != b.id || a.tier != b.tier ||
            a.arrivalSec != b.arrivalSec ||
            a.deadlineSec != b.deadlineSec || a.attempt != b.attempt ||
            a.eligibleSec != b.eligibleSec || a.hedged != b.hedged ||
            a.copy != b.copy || a.reoffers != b.reoffers)
            return ::testing::AssertionFailure()
                   << "entry " << i << ": " << show(b) << ", want "
                   << show(a);
    }
    return ::testing::AssertionSuccess();
}

/**
 * The operations of a runSequence: each step draws one of @c kinds
 * (a kind listed twice is twice as likely), @c ops steps in all, and
 * every tier deadline is scaled by @c deadlineScale. The default lists
 * kinds 0-9 once each; 10 and 11 aim hedging at the newest requests,
 * whose instances sit in the middle of a backlogged run.
 * The serialized order is compared after every @c orderEvery-th step
 * (sorting a backlog of thousands every step would dominate the run);
 * batches, sheds, size and wake-ups after every step.
 */
struct SequenceMix
{
    std::vector<unsigned> kinds{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    unsigned ops = 600;
    double deadlineScale = 1;
    unsigned orderEvery = 1;
};

/**
 * One seeded operation sequence. Times and deadlines sit on a coarse
 * grid, so equal deadlines across ids, equal eligibility instants and
 * exact equal-key ties (hedge copies and retries of one (id, attempt))
 * are common. Like the fleet, it never queues an instance of a hedged
 * request that was already answered.
 */
void
runSequence(std::uint64_t seed, const SequenceMix &mix = {})
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const double grid = 1e-3;
    const unsigned n_tiers = 1 + unsigned(rng.uniform(3));
    std::vector<QosTier> tiers(n_tiers);
    for (QosTier &q : tiers) {
        q.deadlineSec = grid * double(2 + rng.uniform(8)) * mix.deadlineScale;
        q.reservedSlots = unsigned(rng.uniform(3));
    }
    const bool shed_expired = rng.chance(0.7);

    RequestQueue queue;
    VectorQueue ref;
    std::vector<PendingRequest> issued; ///< every fresh request
    std::vector<char> answered;         ///< by issued index
    std::uint64_t next_id = 0, next_reoffer_id = 1u << 20;
    double t = 0;

    const auto push = [&](const PendingRequest &r) {
        queue.push(r, t);
        ref.push(r);
    };
    const auto fresh = [&](std::uint64_t id, std::uint32_t tier,
                           std::uint8_t reoffers) {
        PendingRequest r;
        r.id = id;
        r.tier = tier;
        r.arrivalSec = t;
        r.deadlineSec = t + tiers[tier].deadlineSec;
        r.eligibleSec = rng.chance(0.8)
                            ? t
                            : t + grid * double(rng.uniform(4));
        r.reoffers = reoffers;
        return r;
    };

    // A request among the newest few issued.
    const auto recent = [&](std::size_t span) {
        return issued.size() - 1 -
               rng.uniform(std::min(span, issued.size()));
    };

    for (unsigned op = 0; op < mix.ops; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        switch (mix.kinds[rng.uniform(mix.kinds.size())]) {
          case 0:
          case 1:
          case 2: { // fresh arrivals, often several at one instant
            const unsigned n = 1 + unsigned(rng.uniform(4));
            for (unsigned i = 0; i < n; ++i) {
                const PendingRequest r =
                    fresh(next_id++, std::uint32_t(rng.uniform(n_tiers)), 0);
                issued.push_back(r);
                answered.push_back(0);
                push(r);
            }
            break;
          }
          case 3: { // a hedge copy or a retry of an unanswered request
            if (issued.empty())
                break;
            const std::size_t k = rng.uniform(issued.size());
            if (answered[k])
                break;
            PendingRequest r = issued[k];
            r.hedged = rng.chance(0.8) ? 1 : 0;
            r.copy = std::uint8_t(rng.uniform(2));
            r.attempt = std::uint32_t(rng.uniform(3));
            r.eligibleSec =
                rng.chance(0.5) ? t : t + grid * double(rng.uniform(6));
            push(r);
            if (rng.chance(0.3))
                push(r); // an exact duplicate key
            break;
          }
          case 4: { // a hedged request answers: its queued copies lose
            if (issued.empty())
                break;
            // A later fate of an answered id is refused and changes
            // nothing.
            const std::size_t k = rng.uniform(issued.size());
            answered[k] = 1;
            ASSERT_EQ(queue.answer(issued[k]), ref.answer(issued[k].id))
                << "answer " << issued[k].id;
            break;
          }
          case 5: { // purge; every shed original may come back later
            const std::vector<PendingRequest> want =
                ref.purge(t, shed_expired);
            const std::vector<PendingRequest> got =
                queue.purge(t, shed_expired);
            ASSERT_TRUE(sameList(want, got)) << "purge at " << t;
            // The fleet checkpoints between steps, after the purge; a
            // resume rebuilds the queue from the saved vector order
            // and the ledger from its ascending ids.
            if (rng.chance(0.3))
                queue.restore(queue.entries(), queue.reoffers(),
                              queue.answeredIds(), t);
            for (const PendingRequest &req : want) {
                if (req.copy || rng.chance(0.3))
                    continue;
                PendingRequest r;
                r.id = next_reoffer_id++;
                r.tier = req.tier;
                r.eligibleSec = t + grid * double(rng.uniform(3));
                r.reoffers = std::uint8_t(req.reoffers + 1);
                queue.pushReoffer(r);
                ref.reoffers.push_back(r);
            }
            break;
          }
          case 6:
          case 7: { // dispatch
            const std::size_t cap = 1 + rng.uniform(8);
            ASSERT_TRUE(sameList(ref.takeBatch(t, cap, tiers),
                                 queue.takeBatch(t, cap, tiers)))
                << "batch at " << t << " cap " << cap;
            break;
          }
          case 8: { // due re-offers come back as fresh requests
            const std::vector<PendingRequest> want = ref.takeDueReoffers(t);
            ASSERT_TRUE(sameList(want, queue.takeDueReoffers(t)))
                << "re-offers at " << t;
            for (const PendingRequest &req : want) {
                const PendingRequest r = fresh(req.id, req.tier,
                                               req.reoffers);
                issued.push_back(r);
                answered.push_back(0);
                push(r);
            }
            break;
          }
          case 10: { // a hedge copy of a new request: often the run's back
            if (issued.empty())
                break;
            const std::size_t k = recent(8);
            if (answered[k])
                break;
            PendingRequest r = issued[k];
            r.hedged = 1;
            r.copy = 1;
            r.eligibleSec = t;
            push(r);
            break;
          }
          case 11: { // a new hedged request answers
            if (issued.empty())
                break;
            const std::size_t k = recent(64);
            answered[k] = 1;
            ASSERT_EQ(queue.answer(issued[k]), ref.answer(issued[k].id))
                << "answer " << issued[k].id;
            break;
          }
          default: { // time advances, sometimes with a checkpoint resume
            t += grid * double(rng.uniform(3));
            break;
          }
        }
        ASSERT_EQ(queue.size(), ref.queue.size());
        ASSERT_EQ(queue.empty(), ref.queue.empty());
        if (op % mix.orderEvery == 0) {
            ASSERT_TRUE(sameList(ref.queue, queue.entries()));
        }
        ASSERT_TRUE(sameList(ref.reoffers, queue.reoffers()));
        ASSERT_EQ(queue.nextWake(t), ref.nextWake(t)) << "at " << t;
        ASSERT_EQ(queue.answeredIds(), ref.answered);
        if (!issued.empty()) {
            const std::uint64_t id =
                issued[rng.uniform(issued.size())].id;
            ASSERT_EQ(queue.answered(id), ref.isAnswered(id)) << id;
        }
    }
}

} // namespace

TEST(RequestQueue, MatchesVectorQueueOnRandomSequences)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        runSequence(seed);
        if (HasFatalFailure())
            return;
    }
}

TEST(RequestQueue, MatchesVectorQueueUnderSustainedOverload)
{
    // Arrival steps outnumber dispatches eight to one and deadlines are
    // a hundred times longer, so each tier's run backs up to thousands
    // of entries: hedge copies of new requests land at its back and
    // lose in its middle, retries and old copies fill the side heaps,
    // and checkpoint resumes rebuild the whole backlog.
    SequenceMix overload;
    overload.kinds = {0, 1, 2, 0, 1, 2, 0, 1, 3, 3, 10,
                      10, 4, 11, 11, 5, 5, 6, 8, 9, 9};
    overload.ops = 5000;
    overload.deadlineScale = 100;
    overload.orderEvery = 10;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        runSequence(seed, overload);
        if (HasFatalFailure())
            return;
    }

    // A re-offer comes back first, then an arrival with a smaller id
    // and the same deadline: the later push sorts first.
    std::vector<QosTier> tiers(1);
    RequestQueue queue;
    VectorQueue ref;
    PendingRequest reoffer;
    reoffer.id = 1u << 20;
    reoffer.eligibleSec = 0.5;
    queue.pushReoffer(reoffer);
    ref.reoffers.push_back(reoffer);
    const std::vector<PendingRequest> due = ref.takeDueReoffers(0.5);
    ASSERT_TRUE(sameList(due, queue.takeDueReoffers(0.5)));
    PendingRequest back = due[0];
    back.arrivalSec = 0.5;
    back.deadlineSec = 1.5;
    PendingRequest arrival = back;
    arrival.id = 7;
    PendingRequest later = back;
    later.id = 8;
    later.deadlineSec = 1.6;
    for (const PendingRequest &r : {back, arrival, later}) {
        queue.push(r, 0.5);
        ref.push(r);
    }
    EXPECT_TRUE(sameList(ref.queue, queue.entries()));
    const std::vector<PendingRequest> first = ref.takeBatch(0.5, 1, tiers);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].id, 7u);
    EXPECT_TRUE(sameList(first, queue.takeBatch(0.5, 1, tiers)));
    EXPECT_TRUE(sameList(ref.takeBatch(0.5, 2, tiers),
                         queue.takeBatch(0.5, 2, tiers)));
    EXPECT_TRUE(queue.empty());
}

TEST(RequestQueue, WaitingEntrySortsAheadOfEarlierEligibleTwin)
{
    // Two instances with one requestBefore key: b is pushed first and
    // eligible, a later and still waiting. A dispatch that takes
    // nothing of them (the batch fills from an earlier deadline)
    // leaves the vector as [a (waiting), b (eligible)], so once both
    // are eligible the stable sort puts a first despite its later
    // push.
    std::vector<QosTier> tiers(1);
    PendingRequest urgent;
    urgent.id = 1;
    urgent.deadlineSec = 0.5;
    PendingRequest b;
    b.id = 7;
    b.deadlineSec = 1.0;
    b.hedged = 1;
    b.copy = 1;
    PendingRequest a = b;
    a.eligibleSec = 0.2;

    RequestQueue queue;
    VectorQueue ref;
    for (const PendingRequest &r : {b, a, urgent}) {
        queue.push(r, 0.1);
        ref.push(r);
    }
    EXPECT_TRUE(sameList(ref.takeBatch(0.1, 1, tiers),
                         queue.takeBatch(0.1, 1, tiers)));
    EXPECT_TRUE(sameList(ref.queue, queue.entries()));
    const std::vector<PendingRequest> want = ref.takeBatch(0.3, 1, tiers);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(want[0].eligibleSec, 0.2); // a, the later push
    EXPECT_TRUE(sameList(want, queue.takeBatch(0.3, 1, tiers)));
    EXPECT_TRUE(sameList(ref.queue, queue.entries()));
}

TEST(RequestQueue, ZeroDelayReofferDoesNotWakeAtItsOwnInstant)
{
    RequestQueue queue;
    PendingRequest now, later;
    now.eligibleSec = 1.0;
    later.id = 1;
    later.eligibleSec = 2.0;
    queue.pushReoffer(now);
    queue.pushReoffer(later);
    EXPECT_EQ(queue.nextWake(1.0), 2.0);
    EXPECT_EQ(queue.nextWake(2.0), kInf);
    ASSERT_EQ(queue.takeDueReoffers(1.0).size(), 1u);
    EXPECT_EQ(queue.reoffers().size(), 1u);
}
