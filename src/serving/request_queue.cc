#include "serving/request_queue.hh"

#include <algorithm>
#include <iterator>
#include <limits>

namespace ascend {
namespace serving {

namespace {

/** Min-heap order on (eligibleSec, seq), as std::*_heap's "less". */
template <class E>
bool
wakesLater(const E &a, const E &b)
{
    if (a.req.eligibleSec != b.req.eligibleSec)
        return a.req.eligibleSec > b.req.eligibleSec;
    return a.seq > b.seq;
}

/** The requests of @p entries, in push order. */
template <class E>
std::vector<PendingRequest>
inPushOrder(std::vector<E> entries)
{
    std::ranges::sort(entries, {}, &E::seq);
    std::vector<PendingRequest> out;
    out.reserve(entries.size());
    for (const E &e : entries)
        out.push_back(e.req);
    return out;
}

} // anonymous namespace

bool
requestBefore(const PendingRequest &a, const PendingRequest &b)
{
    if (a.deadlineSec != b.deadlineSec)
        return a.deadlineSec < b.deadlineSec;
    if (a.id != b.id)
        return a.id < b.id;
    if (a.attempt != b.attempt)
        return a.attempt < b.attempt;
    return a.copy < b.copy;
}

bool
RequestQueue::DispatchOrder::operator()(const Entry &a,
                                        const Entry &b) const
{
    if (requestBefore(a.req, b.req))
        return true;
    if (requestBefore(b.req, a.req))
        return false;
    if (a.group != b.group)
        return a.group < b.group;
    return a.seq < b.seq;
}

bool
RequestQueue::TierQueue::frontInHeap() const
{
    return !heap.empty() &&
           (run.empty() || DispatchOrder{}(heap.front(), run.front()));
}

const RequestQueue::Entry &
RequestQueue::TierQueue::front() const
{
    return frontInHeap() ? heap.front() : run.front();
}

void
RequestQueue::TierQueue::push(const Entry &e)
{
    if (run.empty() || !DispatchOrder{}(e, run.back())) {
        run.push_back(e);
        return;
    }
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), sortsAfter);
}

RequestQueue::Entry
RequestQueue::TierQueue::pop()
{
    if (frontInHeap()) {
        std::pop_heap(heap.begin(), heap.end(), sortsAfter);
        const Entry e = heap.back();
        heap.pop_back();
        return e;
    }
    const Entry e = run.front();
    run.pop_front();
    trim();
    return e;
}

void
RequestQueue::TierQueue::trim()
{
    while (!run.empty() && run.front().dead)
        run.pop_front();
    while (!run.empty() && run.back().dead)
        run.pop_back();
}

std::size_t
RequestQueue::TierQueue::killInRun(const PendingRequest &w)
{
    Entry first;
    first.req.deadlineSec = w.deadlineSec;
    first.req.id = w.id;
    first.group = std::numeric_limits<std::int64_t>::min();
    std::size_t killed = 0;
    for (auto it = std::lower_bound(run.begin(), run.end(), first,
                                    DispatchOrder{});
         it != run.end() && it->req.deadlineSec == w.deadlineSec &&
         it->req.id == w.id;
         ++it) {
        if (it->req.hedged && !it->dead) {
            it->dead = true;
            ++killed;
        }
    }
    trim();
    return killed;
}

void
RequestQueue::push(const PendingRequest &r, double t)
{
    ++size_;
    Entry e{r, 0, nextSeq_++};
    if (r.eligibleSec > t) {
        waiting_.push_back(e);
        std::push_heap(waiting_.begin(), waiting_.end(),
                       wakesLater<Entry>);
        return;
    }
    insertEligible(e);
}

void
RequestQueue::insertEligible(const Entry &e)
{
    if (e.req.tier >= eligible_.size())
        eligible_.resize(e.req.tier + 1);
    eligible_[e.req.tier].push(e);
}

void
RequestQueue::promote(double t)
{
    while (!waiting_.empty() && waiting_.front().req.eligibleSec <= t) {
        std::pop_heap(waiting_.begin(), waiting_.end(),
                      wakesLater<Entry>);
        Entry e = waiting_.back();
        waiting_.pop_back();
        // Waiting at the last non-empty dispatch: segment 1, which
        // the next dispatch sorts ahead of every equal-key entry that
        // was already eligible.
        e.group = e.seq < stamp_ ? frontGroup() : 0;
        insertEligible(e);
    }
}

bool
RequestQueue::answer(const PendingRequest &winner)
{
    if (!answered_.insert(winner.id).second)
        return false;
    unpurged_.push_back(winner);
    return true;
}

bool
RequestQueue::sequenceBefore(const Entry &a, bool a_waiting,
                             const Entry &b, bool b_waiting) const
{
    const auto segment = [this](const Entry &e, bool waiting) {
        if (e.seq >= stamp_)
            return 3;
        return waiting || e.group == frontGroup() ? 1 : 2;
    };
    const int sa = segment(a, a_waiting);
    const int sb = segment(b, b_waiting);
    if (sa != sb)
        return sa < sb;
    return sa == 2 ? DispatchOrder{}(a, b) : a.seq < b.seq;
}

std::vector<PendingRequest>
RequestQueue::purge(double t, bool shed_expired)
{
    if (!unpurged_.empty()) {
        // Every instance of a request shares its deadline and tier, so
        // a binary search of the tier's run finds them.
        for (const PendingRequest &w : unpurged_)
            if (w.tier < eligible_.size())
                size_ -= eligible_[w.tier].killInRun(w);
        unpurged_.clear();
        // No hedged instance of an id answered before is queued again,
        // so the ledger names exactly the new losers of the heaps.
        const auto lost = [&](const Entry &e) {
            return e.req.hedged && answered(e.req.id);
        };
        const auto dropLost = [&](std::vector<Entry> &heap, auto order) {
            const std::size_t n = std::erase_if(heap, lost);
            if (n)
                std::make_heap(heap.begin(), heap.end(), order);
            size_ -= n;
        };
        for (TierQueue &tier : eligible_)
            dropLost(tier.heap, sortsAfter);
        dropLost(waiting_, wakesLater<Entry>);
    }
    if (!shed_expired)
        return {};

    struct Expired
    {
        Entry entry;
        bool waiting;
    };
    std::vector<Expired> expired;
    for (TierQueue &tier : eligible_)
        while (!tier.empty() && t > tier.front().req.deadlineSec)
            expired.push_back({tier.pop(), false});
    const auto end = std::remove_if(
        waiting_.begin(), waiting_.end(), [&](const Entry &e) {
            if (!(t > e.req.deadlineSec))
                return false;
            expired.push_back({e, true});
            return true;
        });
    if (end != waiting_.end()) {
        waiting_.erase(end, waiting_.end());
        std::make_heap(waiting_.begin(), waiting_.end(),
                       wakesLater<Entry>);
    }
    size_ -= expired.size();
    std::sort(expired.begin(), expired.end(),
              [this](const Expired &a, const Expired &b) {
                  return sequenceBefore(a.entry, a.waiting, b.entry,
                                        b.waiting);
              });
    std::vector<PendingRequest> out;
    out.reserve(expired.size());
    for (const Expired &e : expired)
        out.push_back(e.entry.req);
    return out;
}

std::vector<PendingRequest>
RequestQueue::takeBatch(double t, std::size_t cap,
                        const std::vector<QosTier> &tiers)
{
    promote(t);
    if (size_ == waiting_.size())
        return {};

    std::vector<PendingRequest> batch;
    const std::size_t reserving = std::min(tiers.size(), eligible_.size());
    for (std::size_t ti = 0; ti < reserving && batch.size() < cap; ++ti)
        for (unsigned got = 0; got < tiers[ti].reservedSlots &&
                               batch.size() < cap && !eligible_[ti].empty();
             ++got)
            batch.push_back(eligible_[ti].pop().req);
    // The remainder: a k-way merge of the tiers' fronts.
    while (batch.size() < cap) {
        TierQueue *best = nullptr;
        for (TierQueue &tier : eligible_)
            if (!tier.empty() &&
                (!best || DispatchOrder{}(tier.front(), best->front())))
                best = &tier;
        if (!best)
            break;
        batch.push_back(best->pop().req);
    }
    size_ -= batch.size();
    stamp_ = nextSeq_;
    ++dispatches_;
    return batch;
}

double
RequestQueue::nextWake(double t)
{
    promote(t);
    double next = waiting_.empty()
                      ? std::numeric_limits<double>::infinity()
                      : waiting_.front().req.eligibleSec;
    if (reoffers_.empty())
        return next;
    if (reoffers_.front().req.eligibleSec > t)
        return std::min(next, reoffers_.front().req.eligibleSec);
    // A re-offer due at or before t (zero think time) does not wake
    // the fleet; look past it, then put it back.
    const std::vector<Entry> due = popDueReoffers(t);
    if (!reoffers_.empty())
        next = std::min(next, reoffers_.front().req.eligibleSec);
    for (const Entry &e : due) {
        reoffers_.push_back(e);
        std::push_heap(reoffers_.begin(), reoffers_.end(),
                       wakesLater<Entry>);
    }
    return next;
}

void
RequestQueue::pushReoffer(const PendingRequest &r)
{
    reoffers_.push_back({r, 0, nextReofferSeq_++});
    std::push_heap(reoffers_.begin(), reoffers_.end(), wakesLater<Entry>);
}

std::vector<RequestQueue::Entry>
RequestQueue::popDueReoffers(double t)
{
    std::vector<Entry> due;
    while (!reoffers_.empty() && reoffers_.front().req.eligibleSec <= t) {
        std::pop_heap(reoffers_.begin(), reoffers_.end(),
                      wakesLater<Entry>);
        due.push_back(reoffers_.back());
        reoffers_.pop_back();
    }
    return due;
}

std::vector<PendingRequest>
RequestQueue::takeDueReoffers(double t)
{
    if (reoffers_.empty() || reoffers_.front().req.eligibleSec > t)
        return {};
    return inPushOrder(popDueReoffers(t));
}

std::vector<PendingRequest>
RequestQueue::entries() const
{
    std::vector<std::pair<Entry, bool>> all;
    all.reserve(size());
    for (const TierQueue &tier : eligible_) {
        for (const Entry &e : tier.run)
            if (!e.dead)
                all.emplace_back(e, false);
        for (const Entry &e : tier.heap)
            all.emplace_back(e, false);
    }
    for (const Entry &e : waiting_)
        all.emplace_back(e, true);
    std::sort(all.begin(), all.end(),
              [this](const auto &a, const auto &b) {
                  return sequenceBefore(a.first, a.second, b.first,
                                        b.second);
              });
    std::vector<PendingRequest> out;
    out.reserve(all.size());
    for (const auto &e : all)
        out.push_back(e.first.req);
    return out;
}

std::vector<PendingRequest>
RequestQueue::reoffers() const
{
    return inPushOrder(reoffers_);
}

std::vector<std::uint64_t>
RequestQueue::answeredIds() const
{
    std::vector<std::uint64_t> ids(answered_.begin(), answered_.end());
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
RequestQueue::restore(const std::vector<PendingRequest> &entries,
                      const std::vector<PendingRequest> &reoffers,
                      const std::vector<std::uint64_t> &answered,
                      double t)
{
    // No dispatch stamp: every entry is segment 3, so push order is
    // the saved sequence order.
    clear();
    for (const PendingRequest &r : entries)
        push(r, t);
    // That order puts segment 1 ahead of the sorted segment 2, so much
    // of a backlog lands in the side heaps: sort each tier back into
    // one run. DispatchOrder is total, so every pop is unchanged.
    for (TierQueue &tier : eligible_) {
        tier.run.insert(tier.run.end(), tier.heap.begin(), tier.heap.end());
        tier.heap.clear();
        std::sort(tier.run.begin(), tier.run.end(), DispatchOrder{});
    }
    for (const PendingRequest &r : reoffers)
        pushReoffer(r);
    answered_.insert(answered.begin(), answered.end());
}

void
RequestQueue::clear()
{
    *this = RequestQueue{};
}

} // namespace serving
} // namespace ascend
