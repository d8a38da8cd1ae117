/**
 * @file
 * Measurement plumbing of the repository benchmark: steady-clock
 * timing, percentiles, the in-memory span ledger of a traced run, the
 * run result every workload fills in, and the host fingerprint.
 *
 * Spans are recorded only by benchmark code, around calls into the
 * library's public functions; nothing inside src/ is instrumented.
 * A span names the layer it measures ("profile.interleave"), its
 * parent span and the thread it ran on.  A layer's self time is its
 * span's duration minus the part of that interval its child spans
 * cover.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p start. */
double msSince(Clock::time_point start);

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (0 for an empty vector). */
double median(std::vector<double> values);

/**
 * The @p q quantile (0..1) of @p values by the nearest-rank rule: the
 * smallest sample with at least q of all samples at or below it.
 */
double quantile(std::vector<double> values, double q);

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One pass's per-layer values, by metric name. */
using LayerSample = std::map<std::string, double>;

/** Every per-layer metric as (name, unit), in report order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog();

/**
 * The median of every catalog metric over @p samples; a metric no
 * sample carries is a layer the workload bypasses, reported as 0.
 */
std::vector<Metric> perLayerMedians(
    const std::vector<LayerSample> &samples);

/**
 * The tracing overhead of a traced run, from the wall times of its
 * traced and untraced passes (or rounds), as a layer sample.
 */
LayerSample tracingOverhead(const std::vector<double> &traced_ms,
                            const std::vector<double> &untraced_ms);

/**
 * Round trips of a workload's distinct requests: every pass or round
 * repeats the same requests, and slot i collects request i's times.
 */
class RequestTimes
{
  public:
    /** Record @p ms for request @p index. */
    void add(std::size_t index, double ms);

    /** Each request's median over its repetitions. */
    std::vector<double> medians() const;

    /** Distinct requests recorded. */
    std::size_t requests() const { return _samples.size(); }

    /** Samples over all requests. */
    std::size_t samples() const { return _count; }

    /** Add @p other's requests as further distinct requests. */
    void extend(const RequestTimes &other);

  private:
    std::vector<std::vector<double>> _samples;
    std::size_t _count = 0;
};

/**
 * Raw samples behind the end-to-end metrics.  "Write" is the request
 * that feeds records into a profile and "read" the request that reads
 * a result out of it; each workload states what they are.  A request
 * repeats in every pass or round, so its latency is its median over
 * the repetitions, and the p50 and tail are taken over the distinct
 * requests: the tail then says which requests are slow, not how noisy
 * the host was.
 */
struct EndToEndSamples
{
    std::vector<double> setup_s; ///< one per set-up repetition
    std::vector<double> mrec_s;  ///< throughput samples, Mrec/s
    RequestTimes write;          ///< write round trips
    RequestTimes read;           ///< read round trips
    double write_tail_q = 0.9;   ///< tail quantile of writes
    double read_tail_q = 0.9;    ///< tail quantile of reads
};

/**
 * The end-to-end metrics, in BENCHMARK.json order: medians of the
 * set-up and throughput samples, p50 and tail of the round trips, and
 * this process's peak resident set.
 */
std::vector<Metric> endToEndMetrics(const EndToEndSamples &samples);

/** Everything one benchmark run reports. */
struct RunResult
{
    /** Operations whose output was checked, and how many failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Untraced end-to-end metrics (every workload reports all). */
    std::vector<Metric> end_to_end;

    /** Traced per-layer metrics (every workload reports all). */
    std::vector<Metric> per_layer;

    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void check(bool ok, const std::string &what);
};

/**
 * In-memory span recorder of a traced run.  Disabled ledgers record
 * nothing, so the same workload code runs traced and untraced.
 */
class Ledger
{
  public:
    static constexpr std::uint32_t kNoParent = 0;

    explicit Ledger(bool enabled);

    bool enabled() const { return _enabled; }

    /**
     * Records one span for its lifetime.  The parent is the
     * innermost open scope on the same thread unless given.  A null
     * or disabled ledger makes the scope a no-op, which is how
     * untraced passes run the same code.
     */
    class Scope
    {
      public:
        Scope(Ledger *ledger, const char *name,
              std::uint32_t parent = kNoParent);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Span id (0 when the ledger is disabled). */
        std::uint32_t id() const { return _id; }

      private:
        Ledger *_ledger;
        const char *_name;
        std::uint32_t _id = 0;
        std::uint32_t _parent = kNoParent;
        std::uint32_t _saved_current = kNoParent;
        Clock::time_point _start;
    };

    /** Per-name totals: count, inclusive ms and self ms. */
    struct LayerTotals
    {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };

    std::map<std::string, LayerTotals> totals() const;

    /** Write the spans as a Chrome trace_event JSON file. */
    void writeChromeTrace(const std::string &path,
                          const std::string &host_json) const;

  private:
    struct Span
    {
        std::string name;
        std::uint32_t id = 0;
        std::uint32_t parent = kNoParent;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::uint32_t thread = 0;
    };

    std::uint32_t threadIndex();

    bool _enabled;
    Clock::time_point _epoch;
    mutable std::mutex _mutex; ///< guards everything below
    std::vector<Span> _spans;
    std::uint32_t _next_id = 1;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> _threads;
};

/** Number of CPUs this process may run on. */
unsigned hostCpus();

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** One-line JSON host fingerprint: nproc, build type, compiler. */
std::string hostFingerprint();

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
