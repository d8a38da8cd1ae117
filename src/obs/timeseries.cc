#include "obs/timeseries.hh"

#include <algorithm>

#include "util/logging.hh"

namespace bwsa::obs
{

TimeSeries::TimeSeries(std::string name, std::uint64_t width,
                       std::size_t max_points)
    : _name(std::move(name)), _width(width), _max_points(max_points)
{
    if (_width == 0)
        bwsa_panic("TimeSeries window width must be nonzero");
    if (_max_points < 2)
        bwsa_panic("TimeSeries needs a point budget of >= 2");
}

void
TimeSeries::record(std::uint64_t timestamp, double value)
{
    ++_total_weight;
    for (;;) {
        std::uint64_t start = (timestamp / _width) * _width;

        // Hot path: ascending timestamps accumulate into the last
        // window.
        if (!_points.empty() && _points.back().start == start) {
            SeriesPoint &p = _points.back();
            ++p.weight;
            p.sum += value;
            p.min = std::min(p.min, value);
            p.max = std::max(p.max, value);
            return;
        }

        if (_points.empty() || start > _points.back().start) {
            if (_points.size() >= _max_points) {
                downsample();
                continue; // re-derive the window at the new width
            }
            _points.push_back({start, 1, value, value, value});
            return;
        }

        // Out-of-order sample (sources replaying ranges): find or
        // insert its window.  Rare, so insert()'s linear cost is fine.
        auto it = std::lower_bound(
            _points.begin(), _points.end(), start,
            [](const SeriesPoint &p, std::uint64_t s) {
                return p.start < s;
            });
        if (it != _points.end() && it->start == start) {
            ++it->weight;
            it->sum += value;
            it->min = std::min(it->min, value);
            it->max = std::max(it->max, value);
            return;
        }
        if (_points.size() >= _max_points) {
            downsample();
            continue;
        }
        _points.insert(it, {start, 1, value, value, value});
        return;
    }
}

void
TimeSeries::downsample()
{
    // Double the window width and merge points that now share a
    // window.  Each pass at least halves the number of *possible*
    // windows over the covered range, so repeated passes always get
    // the series back under budget.
    _width *= 2;
    ++_downsamples;
    std::vector<SeriesPoint> merged;
    merged.reserve(_points.size() / 2 + 1);
    for (const SeriesPoint &p : _points) {
        std::uint64_t start = (p.start / _width) * _width;
        if (!merged.empty() && merged.back().start == start) {
            SeriesPoint &m = merged.back();
            m.weight += p.weight;
            m.sum += p.sum;
            m.min = std::min(m.min, p.min);
            m.max = std::max(m.max, p.max);
        } else {
            SeriesPoint copy = p;
            copy.start = start;
            merged.push_back(copy);
        }
    }
    _points = std::move(merged);
    if (_points.size() >= _max_points)
        downsample();
}

JsonValue
TimeSeries::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc["name"] = _name;
    doc["window"] = _width;
    doc["downsamples"] = _downsamples;
    JsonValue points = JsonValue::array();
    for (const SeriesPoint &p : _points) {
        JsonValue entry = JsonValue::array();
        entry.push(p.start);
        entry.push(p.weight);
        entry.push(p.mean());
        entry.push(p.min);
        entry.push(p.max);
        points.push(std::move(entry));
    }
    doc["points"] = std::move(points);
    return doc;
}

TimeSeriesRegistry &
TimeSeriesRegistry::global()
{
    static TimeSeriesRegistry *registry = new TimeSeriesRegistry();
    return *registry;
}

void
TimeSeriesRegistry::setEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _enabled = enabled;
}

void
TimeSeriesRegistry::configureDefaults(std::uint64_t width,
                                      std::size_t max_points)
{
    if (width == 0)
        bwsa_fatal("time-series interval must be >= 1 instruction");
    if (max_points < 2)
        bwsa_fatal("time-series point budget must be >= 2");
    std::lock_guard<std::mutex> lock(_mutex);
    _default_width = width;
    _default_max_points = max_points;
}

std::uint64_t
TimeSeriesRegistry::defaultWidth() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _default_width;
}

TimeSeries *
TimeSeriesRegistry::series(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_enabled)
        return nullptr;
    auto it = _index.find(name);
    if (it != _index.end())
        return _series[it->second].get();
    _index.emplace(name, _series.size());
    _series.push_back(std::make_unique<TimeSeries>(
        name, _default_width, _default_max_points));
    return _series.back().get();
}

const TimeSeries *
TimeSeriesRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _index.find(name);
    return it == _index.end() ? nullptr : _series[it->second].get();
}

std::size_t
TimeSeriesRegistry::seriesCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _series.size();
}

void
TimeSeriesRegistry::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _series.clear();
    _index.clear();
}

JsonValue
TimeSeriesRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    JsonValue list = JsonValue::array();
    for (const auto &series : _series)
        list.push(series->toJson());
    return list;
}

JsonValue
TimeSeriesRegistry::chromeCounterEvents() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    JsonValue events = JsonValue::array();
    for (const auto &series : _series) {
        for (const SeriesPoint &p : series->points()) {
            JsonValue entry = JsonValue::object();
            entry["name"] = series->name();
            entry["cat"] = "bwsa.timeseries";
            entry["ph"] = "C";
            entry["ts"] = static_cast<double>(p.start);
            entry["pid"] = 2u; // separate track group from the spans
            JsonValue args = JsonValue::object();
            args["mean"] = p.mean();
            entry["args"] = std::move(args);
            events.push(std::move(entry));
        }
    }
    return events;
}

} // namespace bwsa::obs
