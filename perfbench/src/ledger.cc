#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#include "obs/json.hh"

namespace perfbench
{

namespace
{

/** Innermost open span on this thread (one ledger per process). */
thread_local std::uint32_t current_span = Ledger::kNoParent;

} // namespace

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

double
secondsSince(Clock::time_point start)
{
    return msSince(start) / 1000.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>>
        catalog{
            {"workload.gen_ms", "ms"},
            {"workload.records", "count"},
            {"store.decode_ms", "ms"},
            {"store.records_decoded", "count"},
            {"store.decode_ratio", "ratio"},
            {"trace.stats_ms", "ms"},
            {"profile.interleave_ms", "ms"},
            {"profile.shard_max_ms", "ms"},
            {"profile.shard_mean_ms", "ms"},
            {"profile.merge_ms", "ms"},
            {"profile.stitch_ms", "ms"},
            {"profile.stitch_records_scanned", "count"},
            {"profile.stitch_scan_ratio", "ratio"},
            {"profile.pair_increments", "count"},
            {"profile.graph_nodes", "count"},
            {"profile.graph_edges", "count"},
            {"core.finish_ms", "ms"},
            {"core.wsets_ms", "ms"},
            {"core.working_sets", "count"},
            {"core.alloc_ms", "ms"},
            {"core.alloc_calls", "count"},
            {"core.stream_append_ms", "ms"},
            {"core.stream_snapshot_ms", "ms"},
            {"core.stream_resident_bytes_max", "bytes"},
            {"core.stream_spilled_epochs", "count"},
            {"sim.replay_ms", "ms"},
            {"sim.lane_steps", "count"},
            {"exec.critical_cell_ms", "ms"},
            {"exec.cell_sum_ms", "ms"},
            {"exec.worker_idle_frac", "ratio"},
            {"serve.handle_ms", "ms"},
            {"serve.client_ms", "ms"},
            {"serve.appends", "count"},
            {"serve.snapshots", "count"},
            {"serve.errors", "count"},
            {"serve.snapshot_growth", "ratio"},
            {"bench.tracing_overhead_ms", "ms"},
            {"bench.tracing_overhead_frac", "ratio"},
        };
    return catalog;
}

std::vector<Metric>
perLayerMedians(const std::vector<LayerSample> &samples)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : perLayerCatalog()) {
        std::vector<double> values;
        for (const LayerSample &sample : samples) {
            auto it = sample.find(name);
            if (it != sample.end())
                values.push_back(it->second);
        }
        out.push_back({name, median(values), unit});
    }
    return out;
}

void
RequestTimes::add(std::size_t index, double ms)
{
    if (index >= _samples.size())
        _samples.resize(index + 1);
    _samples[index].push_back(ms);
    ++_count;
}

std::vector<double>
RequestTimes::medians() const
{
    std::vector<double> out;
    for (const std::vector<double> &s : _samples)
        if (!s.empty())
            out.push_back(median(s));
    return out;
}

void
RequestTimes::extend(const RequestTimes &other)
{
    _samples.insert(_samples.end(), other._samples.begin(),
                    other._samples.end());
    _count += other._count;
}

LayerSample
tracingOverhead(const std::vector<double> &traced_ms,
                const std::vector<double> &untraced_ms)
{
    const double traced = median(traced_ms);
    const double untraced = median(untraced_ms);
    return {{"bench.tracing_overhead_ms", traced - untraced},
            {"bench.tracing_overhead_frac",
             untraced > 0.0 ? (traced - untraced) / untraced : 0.0}};
}

std::vector<Metric>
endToEndMetrics(const EndToEndSamples &s)
{
    const std::vector<double> write = s.write.medians();
    const std::vector<double> read = s.read.medians();
    return {
        {"setup_s", median(s.setup_s), "s"},
        {"mrec_s", median(s.mrec_s), "Mrec/s"},
        {"write_p50_ms", quantile(write, 0.5), "ms"},
        {"write_tail_ms", quantile(write, s.write_tail_q), "ms"},
        {"read_p50_ms", quantile(read, 0.5), "ms"},
        {"read_tail_ms", quantile(read, s.read_tail_q), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

void
RunResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok && ++failed <= 20)
        notes.push_back("MISMATCH: " + what);
}

Ledger::Ledger(bool enabled) : _enabled(enabled), _epoch(Clock::now())
{}

Ledger::Scope::Scope(Ledger *ledger, const char *name,
                     std::uint32_t parent)
    : _ledger(ledger && ledger->_enabled ? ledger : nullptr),
      _name(name)
{
    if (!_ledger)
        return;
    {
        std::lock_guard<std::mutex> lock(_ledger->_mutex);
        _id = _ledger->_next_id++;
    }
    _parent = parent != kNoParent ? parent : current_span;
    _saved_current = current_span;
    current_span = _id;
    _start = Clock::now();
}

Ledger::Scope::~Scope()
{
    if (!_ledger)
        return;
    Clock::time_point end = Clock::now();
    current_span = _saved_current;
    auto ns = [&](Clock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - _ledger->_epoch)
                .count());
    };
    Span span{_name, _id, _parent, ns(_start), ns(end), 0};
    std::lock_guard<std::mutex> lock(_ledger->_mutex);
    span.thread = _ledger->threadIndex();
    _ledger->_spans.push_back(std::move(span));
}

std::uint32_t
Ledger::threadIndex()
{
    std::uint64_t key = std::hash<std::thread::id>()(
        std::this_thread::get_id());
    for (const auto &[k, index] : _threads)
        if (k == key)
            return index;
    auto index = static_cast<std::uint32_t>(_threads.size());
    _threads.emplace_back(key, index);
    return index;
}

std::map<std::string, Ledger::LayerTotals>
Ledger::totals() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::map<std::uint32_t, std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>>
        children;
    for (const Span &s : _spans)
        if (s.parent != kNoParent)
            children[s.parent].emplace_back(s.start_ns, s.end_ns);

    std::map<std::string, LayerTotals> out;
    for (const Span &s : _spans) {
        // Children may run concurrently on other threads, so subtract
        // the union of their intervals clipped to this span.
        std::uint64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::uint64_t lo = 0, hi = 0;
            bool open = false;
            for (auto [a, b] : intervals) {
                a = std::max(a, s.start_ns);
                b = std::min(b, s.end_ns);
                if (a >= b)
                    continue;
                if (open && a <= hi) {
                    hi = std::max(hi, b);
                    continue;
                }
                if (open)
                    covered += hi - lo;
                lo = a;
                hi = b;
                open = true;
            }
            if (open)
                covered += hi - lo;
        }
        LayerTotals &t = out[s.name];
        double dur = static_cast<double>(s.end_ns - s.start_ns);
        t.count += 1;
        t.total_ms += dur / 1e6;
        t.self_ms += (dur - static_cast<double>(covered)) / 1e6;
    }
    return out;
}

void
Ledger::writeChromeTrace(const std::string &path,
                         const std::string &host_json) const
{
    using bwsa::obs::JsonValue;
    JsonValue root = JsonValue::object();
    JsonValue host;
    if (JsonValue::parse(host_json, host))
        root["metadata"] = host;
    JsonValue &events = root["traceEvents"];
    events = JsonValue::array();
    std::lock_guard<std::mutex> lock(_mutex);
    for (const Span &s : _spans) {
        JsonValue e = JsonValue::object();
        e["name"] = s.name;
        e["ph"] = "X";
        e["pid"] = 1;
        e["tid"] = static_cast<std::uint64_t>(s.thread);
        e["ts"] = static_cast<double>(s.start_ns) / 1000.0;
        e["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
        JsonValue args = JsonValue::object();
        args["id"] = static_cast<std::uint64_t>(s.id);
        args["parent"] = static_cast<std::uint64_t>(s.parent);
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    std::ofstream out(path);
    root.dump(out, 0);
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

double
peakRssMb()
{
    struct rusage usage
    {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hostFingerprint()
{
    using bwsa::obs::JsonValue;
    JsonValue host = JsonValue::object();
    host["nproc"] = hostCpus();
#ifdef PERFBENCH_BUILD_TYPE
    host["build_type"] = PERFBENCH_BUILD_TYPE;
#else
    host["build_type"] = "unknown";
#endif
#if defined(__clang__)
    host["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    host["compiler"] = std::string("gcc ") + __VERSION__;
#else
    host["compiler"] = "unknown";
#endif
    return host.dumpString(0);
}

} // namespace perfbench
