/**
 * @file
 * Trace recording and offline analysis -- the workflow of a
 * trace-driven simulation shop: capture a benchmark's dynamic branch
 * stream into a compact file once, then run any number of analyses
 * against the file without re-executing.
 *
 * Usage:
 *   ./trace_tools record --preset=pgp --out=pgp.trace [--scale=0.5]
 *                        [--format=v1|v2]
 *   ./trace_tools analyze --in=pgp.trace [--threshold=100]
 *                         [--shards=4]
 *   ./trace_tools simulate --in=pgp.trace [--entries=1024]
 *                          [--shards=4]
 *
 * --format=v2 (the default) records into the seekable block container
 * (store/block_trace.hh); analyze/simulate open either format
 * transparently.  --shards runs the profiling pass of analyze/simulate
 * sharded: the trace file is split into contiguous segments replayed
 * concurrently -- on a v2 container each shard reads only its own
 * blocks, on a v1 stream it skip-decodes its prefix -- which is the
 * fastest way to analyze a large recorded trace.
 */

#include <cstdio>
#include <cstring>

#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "sim/batched_replay.hh"
#include "store/block_trace.hh"
#include "trace/trace_io.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "workload/presets.hh"

using namespace bwsa;

namespace
{

int
cmdRecord(const CliOptions &cli)
{
    std::string preset = cli.getString("preset", "pgp");
    std::string out = cli.getString("out", preset + ".trace");
    double scale = cli.getDouble("scale", 0.5);
    std::string format = cli.getString("format", "v2");

    Workload w = makeWorkload(preset, "", scale);
    WorkloadTraceSource source = w.source();
    std::uint64_t records = 0;
    if (format == "v2")
        records = store::writeBlockTraceFile(out, source);
    else if (format == "v1")
        records = writeTraceFile(out, source);
    else
        bwsa_fatal("unknown --format '", format, "' (want v1 or v2)");
    std::printf("recorded %s dynamic branches of %s into %s (%s)\n",
                withCommas(records).c_str(), preset.c_str(),
                out.c_str(), format.c_str());
    return 0;
}

/** --shards value shared by the analyze/simulate subcommands. */
unsigned
shardOption(const CliOptions &cli)
{
    unsigned shards =
        static_cast<unsigned>(cli.getUint("shards", 1));
    if (shards == 0)
        bwsa_fatal("--shards must be >= 1");
    return shards;
}

int
cmdAnalyze(const CliOptions &cli)
{
    std::string in = cli.getString("in", "");
    if (in.empty())
        bwsa_fatal("analyze requires --in=<trace file>");
    std::uint64_t threshold = cli.getUint("threshold", 100);
    unsigned shards = shardOption(cli);

    auto reader = store::openTraceReader(in);
    std::printf("%s: %s records\n", in.c_str(),
                withCommas(reader->recordCount()).c_str());

    ShardConfig shard_config;
    shard_config.shards = shards;
    shard_config.record_count = reader->recordCount();
    ConflictGraph graph;
    ShardRunStats shard_stats =
        profileTraceSharded(*reader, graph, shard_config);
    if (shards > 1)
        std::printf("profiled in %.1f ms across %u shards on %u "
                    "threads (stitch %.1f ms)\n",
                    shard_stats.total_millis, shard_stats.shards,
                    shard_stats.threads, shard_stats.stitch.millis);
    ConflictGraph pruned = graph.pruned(threshold);
    WorkingSetResult sets =
        findWorkingSets(pruned, WorkingSetDefinition::SeededClique);
    WorkingSetStats stats = computeWorkingSetStats(pruned, sets);

    std::printf("conflict graph: %zu branches, %zu edges (%zu above "
                "threshold)\n",
                graph.nodeCount(), graph.edgeCount(),
                pruned.edgeCount());
    std::printf("working sets: %zu total, avg static %.1f, avg "
                "dynamic %.1f\n",
                stats.total_sets, stats.avg_static_size,
                stats.avg_dynamic_size);
    return 0;
}

int
cmdSimulate(const CliOptions &cli)
{
    std::string in = cli.getString("in", "");
    if (in.empty())
        bwsa_fatal("simulate requires --in=<trace file>");
    std::uint64_t entries = cli.getUint("entries", 1024);

    auto reader = store::openTraceReader(in);

    PipelineConfig config;
    config.allocation.use_classification = true;
    AllocationPipeline pipeline(config);
    ProfileSession session(pipeline);
    session.addStats(*reader);
    session.commit();
    if (unsigned shards = shardOption(cli); shards > 1)
        session.addInterleaveSharded(*reader, shards);
    else
        session.addInterleave(*reader);
    session.finish();

    std::vector<PredictionStats> results = replayBatched(
        *reader, {paperBaselineSpec(), pipeline.predictorSpec(entries),
                  interferenceFreeSpec()});
    for (const PredictionStats &r : results)
        std::printf("%-42s miss %s\n", r.predictor_name.c_str(),
                    percentString(r.mispredicts.ratio(), 3).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: trace_tools record|analyze|simulate "
                     "[options]\n");
        return 2;
    }
    std::string command = argv[1];
    // Shift the subcommand out before option parsing.
    for (int i = 1; i + 1 < argc; ++i)
        argv[i] = argv[i + 1];
    --argc;

    CliOptions cli = CliOptions::parse(
        argc, argv,
        {"preset", "out", "in", "scale", "format", "threshold",
         "entries", "shards", "quiet", "verbose"});
    std::vector<std::string> unknown =
        CliOptions::unknownFlags(argc, argv);
    if (!unknown.empty())
        bwsa_fatal("unknown option '", unknown[0],
                   "' (supported: --preset --out --in --scale "
                   "--format --threshold --entries --shards --quiet "
                   "--verbose)");
    applyLogLevelOptions(cli);

    if (command == "record")
        return cmdRecord(cli);
    if (command == "analyze")
        return cmdAnalyze(cli);
    if (command == "simulate")
        return cmdSimulate(cli);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
}
