/**
 * @file
 * End-to-end checks for the bench harness: parallel-sweep determinism
 * (Figure 3/4 and Table 2 tables byte-identical across thread and
 * shard counts), the --quiet/--progress CLI contract, and the
 * --timeseries/--interference observability paths (working-set series
 * identical across shard counts).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hh"
#include "obs/phase_detect.hh"
#include "obs/progress.hh"
#include "obs/run_report.hh"
#include "obs/timeseries.hh"
#include "util/logging.hh"

using namespace bwsa;
using namespace bwsa::bench;

namespace
{

BenchOptions
smallOptions(unsigned threads)
{
    BenchOptions options;
    options.scale = 0.02;
    options.benchmarks = {"compress", "li", "pgp"};
    options.threads = threads;
    return options;
}

} // namespace

TEST(BenchSweep, Fig3TableIdenticalAcrossThreadCounts)
{
    std::string serial =
        buildAllocationTable(smallOptions(1), false).render();
    std::string parallel =
        buildAllocationTable(smallOptions(4), false).render();
    EXPECT_EQ(parallel, serial);
    // Sanity: the table actually has the benchmark rows.
    EXPECT_NE(serial.find("compress"), std::string::npos);
    EXPECT_NE(serial.find("average"), std::string::npos);
}

TEST(BenchSweep, Fig4TableIdenticalAcrossThreadCounts)
{
    std::string serial =
        buildAllocationTable(smallOptions(1), true).render();
    std::string parallel =
        buildAllocationTable(smallOptions(3), true).render();
    EXPECT_EQ(parallel, serial);
}

TEST(BenchSweep, Table2IdenticalAcrossShardAndThreadCounts)
{
    // The Table 2 acceptance criterion for the sharded profiler: the
    // working-set table from a sharded multi-threaded run must be
    // byte-identical to the serial single-shard run, on every preset
    // in the sweep.
    std::string serial = buildWorkingSetTable(smallOptions(1)).render();

    BenchOptions sharded_options = smallOptions(4);
    sharded_options.shards = 4;
    std::string sharded =
        buildWorkingSetTable(sharded_options).render();
    EXPECT_EQ(sharded, serial);

    BenchOptions uneven_options = smallOptions(2);
    uneven_options.shards = 7;
    EXPECT_EQ(buildWorkingSetTable(uneven_options).render(), serial);

    EXPECT_NE(serial.find("compress"), std::string::npos);
}

TEST(BenchSweep, WorkingSetSeriesIdenticalAcrossShardCounts)
{
    // The --timeseries working-set series come from the cell's phase
    // accumulator, which sharded profiling folds exactly: a sharded
    // Table 2 run publishes the same points under the same names as
    // a serial one, with no per-shard series and no window cut short
    // at a segment boundary.
    const std::uint64_t interval = 4096;
    auto &registry = obs::TimeSeriesRegistry::global();
    auto publish = [&](unsigned shards) {
        registry.clear();
        registry.configureDefaults(interval);
        registry.setEnabled(true);
        BenchOptions options = smallOptions(2);
        options.scale = 0.05;
        options.benchmarks = {"m88ksim"};
        options.timeseries = true;
        options.interval = interval;
        options.shards = shards;
        buildWorkingSetTable(options);
        registry.setEnabled(false);
        return registry.toJson().dumpString();
    };
    const std::string serial = publish(1);
    EXPECT_EQ(publish(3), serial);

    // One point per window of the whole (unfiltered) trace.
    const obs::TimeSeries *size =
        registry.find("m88ksim/working_set/size");
    const obs::TimeSeries *churn =
        registry.find("m88ksim/working_set/jaccard");
    ASSERT_NE(size, nullptr);
    ASSERT_NE(churn, nullptr);
    EXPECT_EQ(registry.seriesCount(), 2u);
    EXPECT_EQ(size->downsamples(), 0u);

    ResolvedWorkload w = resolveWorkload(
        "m88ksim", presetInputs("m88ksim")[0].label, 0.05);
    MemoryTrace trace;
    w.source()->replay(trace);
    obs::PhaseAccumulator windows(interval);
    for (const BranchRecord &record : trace.records())
        windows.sample(record.pc, record.timestamp);
    windows.finish();
    const std::vector<obs::PhaseWindowStat> &stats = windows.windows();
    ASSERT_GT(stats.size(), 2u);
    ASSERT_EQ(size->points().size(), stats.size());
    ASSERT_EQ(churn->points().size(), stats.size() - 1);
    for (std::size_t i = 0; i < stats.size(); ++i) {
        EXPECT_EQ(size->points()[i].start, stats[i].start);
        EXPECT_EQ(size->points()[i].mean(),
                  static_cast<double>(stats[i].distinct));
        if (i == 0)
            continue;
        EXPECT_EQ(churn->points()[i - 1].start, stats[i].start);
        EXPECT_EQ(churn->points()[i - 1].mean(), stats[i].similarity);
    }
    registry.clear();
}

TEST(BenchSweep, RepeatedParallelRunsAreStable)
{
    // Two parallel runs with different worker counts agree too: the
    // result depends only on the inputs, never on the schedule.
    std::string a = buildAllocationTable(smallOptions(2), false).render();
    std::string b = buildAllocationTable(smallOptions(4), false).render();
    EXPECT_EQ(a, b);
}

TEST(BenchSweep, InterferenceAndTimeseriesPopulateReport)
{
    // The --timeseries --interference acceptance path: a Figure 3 run
    // produces the destructive-aliasing table, per-benchmark windowed
    // series, and a populated "interference" report section.
    auto &registry = obs::TimeSeriesRegistry::global();
    registry.clear();
    registry.configureDefaults(4096);
    registry.setEnabled(true);
    auto &report = obs::RunReport::global();
    report.begin("test_bench_sweep");

    BenchOptions options = smallOptions(2);
    options.benchmarks = {"compress", "li"};
    options.timeseries = true;
    options.interference = true;
    AllocationTables tables = buildAllocationTables(options, false);

    ASSERT_TRUE(tables.has_aliasing);
    std::string aliasing = tables.aliasing.render();
    EXPECT_NE(aliasing.find("compress"), std::string::npos);
    EXPECT_NE(aliasing.find("li"), std::string::npos);

    // The interleave pass published the working-set series under each
    // benchmark's scope, and the simulator a miss-rate series per
    // predictor.
    EXPECT_NE(registry.find("compress/working_set/size"), nullptr);
    EXPECT_NE(registry.find("li/working_set/jaccard"), nullptr);
    obs::JsonValue series = registry.toJson();
    bool found_miss_rate = false;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const std::string &name =
            series.at(i).find("name")->asString();
        if (name.rfind("compress/", 0) == 0 &&
            name.size() >= 10 &&
            name.compare(name.size() - 10, 10, "/miss_rate") == 0)
            found_miss_rate = true;
    }
    EXPECT_TRUE(found_miss_rate);

    // The v2 report carries both new sections, populated: one
    // interference entry per probed predictor per benchmark.
    obs::JsonValue doc = report.build();
    ASSERT_NE(doc.find("timeseries"), nullptr);
    EXPECT_GT(doc.find("timeseries")->size(), 0u);
    ASSERT_NE(doc.find("interference"), nullptr);
    EXPECT_EQ(doc.find("interference")->size(), 4u);
    const obs::JsonValue &entry = doc.find("interference")->at(0);
    EXPECT_NE(entry.find("destructive"), nullptr);
    EXPECT_NE(entry.find("top_entries"), nullptr);

    registry.setEnabled(false);
    registry.clear();
}

// --- CLI contract ---------------------------------------------------

namespace
{

/** parseBenchOptions against a throwaway argv. */
BenchOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    int argc = static_cast<int>(argv.size());
    return parseBenchOptions(argc, argv.data(), "test_bench");
}

} // namespace

TEST(BenchCli, QuietSuppressesProgressHeartbeatEntirely)
{
    // --quiet wins over --progress: the heartbeat thread never
    // starts, so neither beats nor the final "progress: done" flush
    // reach stderr.
    LogLevel saved = logLevel();
    testing::internal::CaptureStderr();
    BenchOptions options =
        parseArgs({"bench", "--quiet", "--progress=0.1"});
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    EXPECT_DOUBLE_EQ(options.progress_sec, 0.1);
    EXPECT_FALSE(obs::ProgressMeter::global().running());
    finishBench(options);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    // Without --quiet the same spelling does start the heartbeat and
    // flushes on stop -- the contrast that makes the test meaningful.
    setLogLevel(LogLevel::Normal);
    testing::internal::CaptureStderr();
    options = parseArgs({"bench", "--progress=0.1"});
    EXPECT_TRUE(obs::ProgressMeter::global().running());
    finishBench(options);
    EXPECT_FALSE(obs::ProgressMeter::global().running());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "progress: done"),
              std::string::npos);
    setLogLevel(saved);
}

TEST(BenchCli, CountsBeyondUnsignedAreRejectedNotWrapped)
{
    // Narrowed to unsigned, 2^32 + 1 would run 1 shard and 2^32 would
    // claim to be 0 threads.
    EXPECT_EXIT(parseArgs({"bench", "--shards=4294967297"}),
                ::testing::ExitedWithCode(1),
                "--shards must be <= 4294967295, got 4294967297");
    EXPECT_EXIT(parseArgs({"bench", "--threads=4294967296"}),
                ::testing::ExitedWithCode(1),
                "--threads must be <= 4294967295, got 4294967296");
}

TEST(BenchCli, ReplayIsAnUnknownOption)
{
    // Sweep cells have one replay engine, so there is no engine to
    // select: --replay is rejected like any misspelled flag.
    EXPECT_EXIT(parseArgs({"bench", "--replay=fanout"}),
                ::testing::ExitedWithCode(1),
                "unknown option '--replay=fanout'");
}
