/**
 * @file
 * Batch latency curve construction and interpolation.
 */

#include "serving/latency_model.hh"

#include <algorithm>

#include "common/codec.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "graph/lower.hh"

namespace ascend {
namespace serving {

BatchLatencyModel
BatchLatencyModel::fromPoints(
    std::vector<std::pair<unsigned, double>> points)
{
    if (points.empty())
        throwError(ErrorCode::ConfigValidation,
                   "a latency curve needs at least one point");
    std::sort(points.begin(), points.end());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &[b, t] = points[i];
        if (b < 1 || !(t > 0) ||
            (i > 0 && (b == points[i - 1].first ||
                       t < points[i - 1].second)))
            throwError(ErrorCode::ConfigValidation,
                       "latency point (batch %u, %g s): batches must be "
                       ">= 1 and distinct, latencies positive and "
                       "non-decreasing in the batch", b, t);
    }
    BatchLatencyModel m;
    m.points_ = std::move(points);
    return m;
}

BatchLatencyModel
BatchLatencyModel::linear(double base_sec, double per_request_sec,
                          unsigned max_batch)
{
    if (!(base_sec > 0 && per_request_sec >= 0) || max_batch < 1)
        throwError(ErrorCode::ConfigValidation,
                   "linear latency curve needs a positive base, a "
                   "non-negative slope and a batch >= 1, got %g s + "
                   "%g s x %u", base_sec, per_request_sec, max_batch);
    std::vector<std::pair<unsigned, double>> pts;
    pts.emplace_back(1, base_sec + per_request_sec);
    if (max_batch > 1)
        pts.emplace_back(max_batch,
                         base_sec + per_request_sec * max_batch);
    return fromPoints(std::move(pts));
}

BatchLatencyModel
BatchLatencyModel::fromGraph(
    const runtime::SimSession &session,
    const std::function<graph::Graph(unsigned)> &builder,
    const std::vector<unsigned> &batches, double clock_ghz)
{
    if (batches.empty() || !(clock_ghz > 0))
        throwError(ErrorCode::ConfigValidation,
                   "a measured latency curve needs an anchor batch and "
                   "a positive clock, got %zu anchors at %g GHz",
                   batches.size(), clock_ghz);
    std::vector<std::pair<unsigned, double>> pts;
    pts.reserve(batches.size());
    for (unsigned b : batches) {
        const core::SimResult r =
            graph::graphResult(session, builder(b));
        pts.emplace_back(b, r.seconds(clock_ghz));
    }
    return fromPoints(std::move(pts));
}

std::vector<unsigned>
BatchLatencyModel::denseAnchors(unsigned max_batch)
{
    if (max_batch < 1)
        throwError(ErrorCode::ConfigValidation,
                   "dense anchors need a max batch >= 1");
    std::vector<unsigned> out;
    unsigned step = 1;
    for (unsigned b = 1; b < max_batch; b += step) {
        out.push_back(b);
        if (b >= 8 && (b & (b - 1)) == 0)
            step = b / 4; // double the stride at each octave
    }
    out.push_back(max_batch);
    return out;
}

double
BatchLatencyModel::latencySeconds(unsigned batch) const
{
    simAssert(!points_.empty(), "latency model is empty");
    const unsigned b = std::max(batch, 1u);
    if (b <= points_.front().first)
        return points_.front().second;
    if (b >= points_.back().first)
        return points_.back().second;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (b > points_[i].first)
            continue;
        const auto &[b0, t0] = points_[i - 1];
        const auto &[b1, t1] = points_[i];
        const double f = double(b - b0) / double(b1 - b0);
        return t0 + f * (t1 - t0);
    }
    return points_.back().second; // unreachable
}

unsigned
BatchLatencyModel::maxBatch() const
{
    simAssert(!points_.empty(), "latency model is empty");
    return points_.back().first;
}

double
BatchLatencyModel::saturationRequestsPerSec(unsigned replicas) const
{
    const unsigned b = maxBatch();
    return double(replicas) * double(b) / latencySeconds(b);
}

std::string
BatchLatencyModel::fingerprint() const
{
    std::string s;
    s.reserve(16 + points_.size() * 32);
    s += "latency:";
    for (const auto &[b, t] : points_) {
        s += std::to_string(b);
        s += '=';
        putBits(s, t);
    }
    return s;
}

} // namespace serving
} // namespace ascend
