/**
 * @file
 * Tests for the bounded time-series layer: window accumulation,
 * budget-driven downsampling, out-of-order samples, the registry's
 * enable/disable contract, JSON/Chrome-trace export, and the
 * working-set series published from a phase accumulator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/phase_detect.hh"
#include "obs/timeseries.hh"

using namespace bwsa::obs;

// ---------------------------------------------------------- TimeSeries

TEST(TimeSeries, AccumulatesSamplesIntoFixedWindows)
{
    TimeSeries series("s", 100, 64);
    series.record(0, 2.0);
    series.record(99, 4.0);  // same window as ts=0
    series.record(100, 8.0); // next window

    ASSERT_EQ(series.points().size(), 2u);
    const SeriesPoint &w0 = series.points()[0];
    EXPECT_EQ(w0.start, 0u);
    EXPECT_EQ(w0.weight, 2u);
    EXPECT_DOUBLE_EQ(w0.sum, 6.0);
    EXPECT_DOUBLE_EQ(w0.mean(), 3.0);
    EXPECT_DOUBLE_EQ(w0.min, 2.0);
    EXPECT_DOUBLE_EQ(w0.max, 4.0);

    const SeriesPoint &w1 = series.points()[1];
    EXPECT_EQ(w1.start, 100u);
    EXPECT_EQ(w1.weight, 1u);
    EXPECT_DOUBLE_EQ(w1.mean(), 8.0);

    EXPECT_EQ(series.totalWeight(), 3u);
    EXPECT_EQ(series.windowWidth(), 100u);
    EXPECT_EQ(series.downsamples(), 0u);
}

TEST(TimeSeries, RatioSamplesMakeWindowMeanARate)
{
    // The misprediction-rate idiom: one 0/1 sample per branch.
    TimeSeries series("rate", 10, 64);
    for (int i = 0; i < 10; ++i)
        series.record(static_cast<std::uint64_t>(i), i < 3 ? 1.0 : 0.0);
    ASSERT_EQ(series.points().size(), 1u);
    EXPECT_DOUBLE_EQ(series.points()[0].mean(), 0.3);
}

TEST(TimeSeries, EmptyWindowsAreOmitted)
{
    TimeSeries series("gaps", 10, 64);
    series.record(5, 1.0);
    series.record(95, 1.0); // windows 10..80 never materialize
    ASSERT_EQ(series.points().size(), 2u);
    EXPECT_EQ(series.points()[0].start, 0u);
    EXPECT_EQ(series.points()[1].start, 90u);
}

TEST(TimeSeries, DownsamplesWhenBudgetExceeded)
{
    TimeSeries series("ds", 10, 4);
    // 8 consecutive windows against a 4-point budget: two pair-merge
    // passes, quadrupling the window width.
    for (std::uint64_t ts = 0; ts < 80; ts += 10)
        series.record(ts, 1.0);

    EXPECT_GE(series.downsamples(), 1u);
    EXPECT_LE(series.points().size(), 4u);
    EXPECT_EQ(series.windowWidth(), 10u << series.downsamples());

    // Mergers preserve mass: total weight and sum survive.
    EXPECT_EQ(series.totalWeight(), 8u);
    std::uint64_t weight = 0;
    double sum = 0.0;
    for (const SeriesPoint &p : series.points()) {
        weight += p.weight;
        sum += p.sum;
        EXPECT_EQ(p.start % series.windowWidth(), 0u);
    }
    EXPECT_EQ(weight, 8u);
    EXPECT_DOUBLE_EQ(sum, 8.0);
}

TEST(TimeSeries, BoundedForLongTraces)
{
    // An 8M-instruction trace with one sample per 1k instructions
    // stays within the point budget however long it runs.
    TimeSeries series("long", 65536, 512);
    for (std::uint64_t ts = 0; ts < 8'000'000; ts += 1000)
        series.record(ts, 1.0);
    EXPECT_LE(series.points().size(), 512u);
    EXPECT_EQ(series.totalWeight(), 8000u);
}

TEST(TimeSeries, OutOfOrderTimestampsFindTheirWindow)
{
    // Sharded replays publish ranges that can interleave backwards.
    TimeSeries series("ooo", 10, 64);
    series.record(50, 1.0);
    series.record(5, 2.0);  // behind the hot window
    series.record(25, 3.0); // in the gap
    series.record(7, 4.0);  // merges into the existing ts=5 window

    ASSERT_EQ(series.points().size(), 3u);
    EXPECT_EQ(series.points()[0].start, 0u);
    EXPECT_EQ(series.points()[0].weight, 2u);
    EXPECT_DOUBLE_EQ(series.points()[0].sum, 6.0);
    EXPECT_EQ(series.points()[1].start, 20u);
    EXPECT_EQ(series.points()[2].start, 50u);
}

TEST(TimeSeries, ToJsonCarriesCompactPointArrays)
{
    TimeSeries series("json", 100, 64);
    series.record(0, 1.0);
    series.record(150, 3.0);
    JsonValue doc = series.toJson();
    EXPECT_EQ(doc.find("name")->asString(), "json");
    EXPECT_EQ(doc.find("window")->asUint(), 100u);
    const JsonValue *points = doc.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_TRUE(points->isArray());
    ASSERT_EQ(points->size(), 2u);
    // [start, weight, mean, min, max]
    ASSERT_EQ(points->at(0).size(), 5u);
    EXPECT_EQ(points->at(1).at(0).asUint(), 100u);
    EXPECT_EQ(points->at(1).at(1).asUint(), 1u);
    EXPECT_DOUBLE_EQ(points->at(1).at(2).asDouble(), 3.0);
}

TEST(TimeSeriesDeath, RejectsDegenerateGeometry)
{
    EXPECT_DEATH(TimeSeries("bad", 0, 16), "width");
    EXPECT_DEATH(TimeSeries("bad", 16, 1), "budget");
}

// ------------------------------------------------- TimeSeriesRegistry

TEST(TimeSeriesRegistry, DisabledRegistryHandsOutNothing)
{
    TimeSeriesRegistry registry;
    EXPECT_FALSE(registry.enabled());
    EXPECT_EQ(registry.series("a"), nullptr);
    EXPECT_EQ(registry.seriesCount(), 0u);

    registry.setEnabled(true);
    TimeSeries *a = registry.series("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(registry.series("a"), a); // same series on re-request
    EXPECT_EQ(registry.seriesCount(), 1u);

    // Series created while enabled survive a later disable (the run
    // report still exports them); only creation is gated.
    registry.setEnabled(false);
    EXPECT_EQ(registry.series("b"), nullptr);
    EXPECT_EQ(registry.find("a"), a);
    EXPECT_EQ(registry.seriesCount(), 1u);
}

TEST(TimeSeriesRegistry, DefaultsConfigureNewSeries)
{
    TimeSeriesRegistry registry;
    registry.configureDefaults(4096, 16);
    registry.setEnabled(true);
    EXPECT_EQ(registry.defaultWidth(), 4096u);
    TimeSeries *s = registry.series("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->windowWidth(), 4096u);
}

TEST(TimeSeriesRegistry, ClearDropsSeries)
{
    TimeSeriesRegistry registry;
    registry.setEnabled(true);
    registry.series("gone");
    registry.clear();
    EXPECT_EQ(registry.seriesCount(), 0u);
    EXPECT_EQ(registry.find("gone"), nullptr);
    EXPECT_TRUE(registry.enabled()); // clear() keeps the flag
}

TEST(TimeSeriesRegistry, ChromeCounterEventsOnePerWindow)
{
    TimeSeriesRegistry registry;
    registry.configureDefaults(100, 16);
    registry.setEnabled(true);
    TimeSeries *s = registry.series("bench/miss_rate");
    s->record(0, 1.0);
    s->record(250, 0.0);

    JsonValue events = registry.chromeCounterEvents();
    ASSERT_TRUE(events.isArray());
    ASSERT_EQ(events.size(), 2u);
    const JsonValue &first = events.at(0);
    EXPECT_EQ(first.find("ph")->asString(), "C");
    EXPECT_EQ(first.find("name")->asString(), "bench/miss_rate");
    EXPECT_DOUBLE_EQ(first.find("ts")->asDouble(), 0.0);
    ASSERT_NE(first.find("args"), nullptr);
    EXPECT_DOUBLE_EQ(first.find("args")->find("mean")->asDouble(),
                     1.0);
}

// -------------------------------------------------- working-set series

namespace
{

/** Enabled registry whose new series match the accumulator's width. */
struct SeriesRegistry
{
    TimeSeriesRegistry registry;

    SeriesRegistry()
    {
        registry.configureDefaults(100, 64);
        registry.setEnabled(true);
    }
};

} // namespace

TEST(WorkingSetSeries, PublishesDistinctCountPerWindow)
{
    SeriesRegistry out;
    PhaseAccumulator windows(100);

    windows.sample(0xA, 0);
    windows.sample(0xB, 10);
    windows.sample(0xA, 20); // duplicate key, same window
    windows.sample(0xC, 150);
    windows.finish();
    publishWorkingSetSeries(windows, "s", out.registry);

    EXPECT_EQ(windows.windows().size(), 2u);
    const TimeSeries *size = out.registry.find("s/working_set/size");
    ASSERT_NE(size, nullptr);
    ASSERT_EQ(size->points().size(), 2u);
    EXPECT_DOUBLE_EQ(size->points()[0].mean(), 2.0);
    EXPECT_DOUBLE_EQ(size->points()[1].mean(), 1.0);
}

TEST(WorkingSetSeries, JaccardChurnAgainstPreviousWindow)
{
    SeriesRegistry out;
    PhaseAccumulator windows(100);

    // Window 0: {A, B}.  Window 1: {B, C} -> Jaccard 1/3.
    // Window 2: {B, C} -> Jaccard 1.  Window 3: {D} -> Jaccard 0.
    windows.sample(0xA, 0);
    windows.sample(0xB, 1);
    windows.sample(0xB, 100);
    windows.sample(0xC, 101);
    windows.sample(0xB, 200);
    windows.sample(0xC, 201);
    windows.sample(0xD, 300);
    windows.finish();
    publishWorkingSetSeries(windows, "s", out.registry);

    // No churn point for the first window (nothing to compare).
    const TimeSeries *churn =
        out.registry.find("s/working_set/jaccard");
    ASSERT_NE(churn, nullptr);
    ASSERT_EQ(churn->points().size(), 3u);
    EXPECT_DOUBLE_EQ(churn->points()[0].mean(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(churn->points()[1].mean(), 1.0);
    EXPECT_DOUBLE_EQ(churn->points()[2].mean(), 0.0);
}

TEST(WorkingSetSeries, FinishIsIdempotentAndSkipsEmptyStreams)
{
    SeriesRegistry out;
    {
        PhaseAccumulator windows(100);
        windows.finish(); // no samples: publishes nothing
        publishWorkingSetSeries(windows, "s", out.registry);
        EXPECT_TRUE(windows.windows().empty());
    }
    // Both series exist even when empty.
    const TimeSeries *size = out.registry.find("s/working_set/size");
    const TimeSeries *churn =
        out.registry.find("s/working_set/jaccard");
    ASSERT_NE(size, nullptr);
    ASSERT_NE(churn, nullptr);
    EXPECT_TRUE(size->points().empty());
    EXPECT_TRUE(churn->points().empty());

    PhaseAccumulator windows(100);
    windows.sample(0xA, 0);
    windows.finish();
    windows.finish(); // second flush is a no-op
    EXPECT_EQ(windows.windows().size(), 1u);
    publishWorkingSetSeries(windows, "s", out.registry);
    EXPECT_EQ(size->totalWeight(), 1u);
}

TEST(WorkingSetSeries, FinishFlushesFinalPartialWindow)
{
    SeriesRegistry out;
    PhaseAccumulator windows(100);

    // Window 0 closes naturally: {A, B}.  The tail window [100, 200)
    // only ever sees samples up to ts=130 -- a partial window that
    // nothing but finish() can close.
    windows.sample(0xA, 0);
    windows.sample(0xB, 99);
    windows.sample(0xA, 100);
    windows.sample(0xC, 130);

    // Before the flush only the naturally closed window exists.
    EXPECT_EQ(windows.windows().size(), 1u);

    windows.finish();
    publishWorkingSetSeries(windows, "s", out.registry);
    EXPECT_EQ(windows.windows().size(), 2u);
    const TimeSeries *size = out.registry.find("s/working_set/size");
    const TimeSeries *churn =
        out.registry.find("s/working_set/jaccard");
    ASSERT_NE(size, nullptr);
    ASSERT_NE(churn, nullptr);
    ASSERT_EQ(size->points().size(), 2u);
    EXPECT_EQ(size->points()[1].start, 100u);
    EXPECT_DOUBLE_EQ(size->points()[1].mean(), 2.0); // {A, C}
    // The partial window still gets its churn point: {A,C} vs {A,B}.
    ASSERT_EQ(churn->points().size(), 1u);
    EXPECT_DOUBLE_EQ(churn->points()[0].mean(), 1.0 / 3.0);
}

TEST(WorkingSetSeries, DisabledRegistryPublishesNothing)
{
    TimeSeriesRegistry registry;
    PhaseAccumulator windows(100);
    windows.sample(0xA, 0);
    windows.finish();
    publishWorkingSetSeries(windows, "s", registry);
    EXPECT_EQ(registry.seriesCount(), 0u);
}

TEST(WorkingSetSeriesDeath, UnfinishedAccumulatorPanics)
{
    TimeSeriesRegistry registry;
    PhaseAccumulator windows(100);
    windows.sample(0xA, 0);
    EXPECT_DEATH(publishWorkingSetSeries(windows, "s", registry),
                 "finished");
}
