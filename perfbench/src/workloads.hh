/**
 * @file
 * The benchmark's workloads and the options they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "ledger.hh"
#include "workload/presets.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** "default" or "tiny" (the self-test size). */
    std::string size = "default";

    /** Scratch directory for trace containers. */
    std::string data_dir;

    /** Reference digests of the offline workloads. */
    std::string reference;

    /** Record this run's oracle digests as the reference. */
    bool write_reference = false;

    /** Chrome trace of a traced run's spans ("" = not written). */
    std::string trace_out;

    /** Worker threads, shards and clients (the CPUs we may use). */
    unsigned workers = 1;
};

/**
 * Seed of one input, derived from the run seed and the input's name,
 * so that every input changes with the run seed but inputs stay
 * distinct from each other.  Never 0.
 */
std::uint64_t inputSeed(std::uint64_t seed, const std::string &name);

/**
 * Preset @p name at @p scale (makeWorkload) with its phase schedule
 * pinned: every phase loop runs its mean trip count instead of a
 * geometric draw.  Left to the draw, the input seed decides how many
 * phases a run shortened by @p scale reaches, and with them the static
 * population and the cost of a run, which then differ by 2x between
 * seeds.  Pinned, the seed still drives every branch outcome, inner
 * loop and switch, but each seed's run covers the same phases.  The
 * caller sets the input seed.
 */
bwsa::Workload pinnedPreset(const std::string &name, double scale);

/**
 * Replay @p inputs runs of @p w into @p sink back to back, as one
 * trace: run i uses input seed inputSeed(@p seed, @p label + "#i"),
 * and its timestamps are shifted past the previous run's last one.
 * Ends with sink.onEnd().  This is a multi-input profile in one trace,
 * as the paper merges the profiles of several inputs; with pinned
 * phases every input covers the same code, so edge counts add up and
 * the thresholded graph no longer hinges on one input's draws.
 */
void replayInputs(const bwsa::Workload &w, int inputs, std::uint64_t seed,
                  const std::string &label, bwsa::TraceSink &sink);

RunResult runOfflineGccSharded(const Options &options, Ledger &ledger);
RunResult runOfflineSuite(const Options &options, Ledger &ledger);
RunResult runServeStream(const Options &options, Ledger &ledger);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
