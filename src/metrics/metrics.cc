#include "metrics/metrics.hh"

#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"

namespace lsqscale {
namespace metrics {

namespace {

/**
 * The registry proper. Node-based maps keep metric addresses stable
 * for the process lifetime; the mutex guards only registration (first
 * use of a name), never updates. unique_ptr nodes because the metric
 * types deliberately delete copy/move (atomics must not be cloned).
 */
struct Registry
{
    std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry &
registry()
{
    // Leaked singleton: metric refs held by callers must outlive
    // static teardown.
    // lsqlint: allow(raw-new) -- deliberate leak
    static Registry *r = new Registry;
    return *r;
}

} // namespace

Histogram::Histogram(const std::vector<std::uint64_t> &bounds)
    : bounds_(bounds), buckets_(bounds.size() + 1)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        LSQ_ASSERT(bounds_[i - 1] < bounds_[i],
                   "histogram bounds must be strictly ascending");
}

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.counters.find(name);
    if (it == r.counters.end())
        it = r.counters.emplace(name, std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Gauge &
gauge(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.gauges.find(name);
    if (it == r.gauges.end())
        it = r.gauges.emplace(name, std::make_unique<Gauge>()).first;
    return *it->second;
}

Histogram &
histogram(const std::string &name,
          const std::vector<std::uint64_t> &bounds)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.histograms.find(name);
    if (it == r.histograms.end())
        it = r.histograms
                 .emplace(name, std::make_unique<Histogram>(bounds))
                 .first;
    return *it->second;
}

void
lockRegistryForFork()
{
    registry().mu.lock();
}

void
unlockRegistryForFork()
{
    registry().mu.unlock();
}

const std::vector<std::uint64_t> &
latencyBucketsUs()
{
    static const std::vector<std::uint64_t> bounds = {
        1,      2,      5,      10,      20,      50,      100,
        200,    500,    1000,   2000,    5000,    10000,   20000,
        50000,  100000, 200000, 500000,  1000000, 2000000, 5000000,
        10000000};
    return bounds;
}

// ------------------------------------------------------ snapshots ----

HistogramSnapshot
HistogramSnapshot::capture(const Histogram &h)
{
    HistogramSnapshot s;
    s.bounds = h.bounds_;
    s.counts.reserve(h.buckets_.size());
    for (const auto &b : h.buckets_)
        s.counts.push_back(b.load(std::memory_order_relaxed));
    s.sum = h.sum_.load(std::memory_order_relaxed);
    s.count = h.count_.load(std::memory_order_relaxed);
    return s;
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return std::numeric_limits<double>::quiet_NaN();
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    double target = p * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        std::uint64_t inBucket = counts[i];
        if (inBucket == 0)
            continue;
        if (static_cast<double>(seen + inBucket) >= target) {
            // Interpolate inside [lo, hi]; the overflow bucket has no
            // upper bound, so report its lower edge.
            double lo = i == 0 ? 0.0
                               : static_cast<double>(bounds[i - 1]);
            if (i >= bounds.size())
                return lo;
            double hi = static_cast<double>(bounds[i]);
            double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(inBucket);
            if (frac < 0.0)
                frac = 0.0;
            return lo + (hi - lo) * frac;
        }
        seen += inBucket;
    }
    return bounds.empty()
               ? 0.0
               : static_cast<double>(bounds.back());
}

double
HistogramSnapshot::mean() const
{
    if (count == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(sum) / static_cast<double>(count);
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &kv : other.counters)
        counters[kv.first] += kv.second;
    for (const auto &kv : other.gauges)
        gauges[kv.first] += kv.second;
    for (const auto &kv : other.histograms) {
        auto it = histograms.find(kv.first);
        if (it == histograms.end()) {
            histograms.emplace(kv.first, kv.second);
            continue;
        }
        HistogramSnapshot &mine = it->second;
        if (mine.bounds != kv.second.bounds) {
            LSQ_WARN("metrics merge: histogram '%s' bucket bounds "
                     "differ; keeping the first-seen series",
                     kv.first.c_str());
            continue;
        }
        for (std::size_t i = 0; i < mine.counts.size(); ++i)
            mine.counts[i] += kv.second.counts[i];
        mine.sum += kv.second.sum;
        mine.count += kv.second.count;
    }
}

MetricsSnapshot
snapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    MetricsSnapshot s;
    for (const auto &kv : r.counters)
        s.counters[kv.first] = kv.second->value();
    for (const auto &kv : r.gauges)
        s.gauges[kv.first] = kv.second->value();
    for (const auto &kv : r.histograms)
        s.histograms[kv.first] =
            HistogramSnapshot::capture(*kv.second);
    return s;
}

// ----------------------------------------------------- exposition ----

std::string
toJson(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"lsqscale-metrics-v1\",\n";
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &kv : snap.counters) {
        os << (first ? "" : ",") << "\n    \"" << kv.first
           << "\": " << kv.second;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";
    os << "  \"gauges\": {";
    first = true;
    for (const auto &kv : snap.gauges) {
        os << (first ? "" : ",") << "\n    \"" << kv.first
           << "\": " << kv.second;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";
    os << "  \"histograms\": {";
    first = true;
    for (const auto &kv : snap.histograms) {
        const HistogramSnapshot &h = kv.second;
        os << (first ? "" : ",") << "\n    \"" << kv.first
           << "\": {\"sum\": " << h.sum << ", \"count\": " << h.count
           << ", \"mean\": " << jsonNumber(h.mean())
           << ", \"p50\": " << jsonNumber(h.percentile(0.50))
           << ", \"p99\": " << jsonNumber(h.percentile(0.99))
           << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            os << (i ? ", " : "") << "{\"le\": ";
            if (i < h.bounds.size())
                os << h.bounds[i];
            else
                os << "null"; // the +Inf overflow bucket
            os << ", \"count\": " << h.counts[i] << "}";
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}";
    return os.str();
}

std::string
toPrometheus(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    for (const auto &kv : snap.counters) {
        os << "# TYPE " << kv.first << " counter\n";
        os << kv.first << " " << kv.second << "\n";
    }
    for (const auto &kv : snap.gauges) {
        os << "# TYPE " << kv.first << " gauge\n";
        os << kv.first << " " << kv.second << "\n";
    }
    for (const auto &kv : snap.histograms) {
        const HistogramSnapshot &h = kv.second;
        os << "# TYPE " << kv.first << " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            cum += h.counts[i];
            os << kv.first << "_bucket{le=\"";
            if (i < h.bounds.size())
                os << h.bounds[i];
            else
                os << "+Inf";
            os << "\"} " << cum << "\n";
        }
        os << kv.first << "_sum " << h.sum << "\n";
        os << kv.first << "_count " << h.count << "\n";
    }
    return os.str();
}

void
resetForTest()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.counters.clear();
    r.gauges.clear();
    r.histograms.clear();
}

} // namespace metrics
} // namespace lsqscale
