/**
 * @file
 * Output oracle of the offline workloads: content digests of every
 * output the allocation flow produces, and the committed reference
 * digests of the default seed.
 *
 * One flow output is summarized by four 64-bit FNV-1a digests: the
 * profile (statistics, frequency selection and conflict graph, in the
 * canonical ProfileArtifact bytes), the working sets, the three
 * allocation maps and the per-lane misprediction counts.  Only
 * integer quantities enter a digest, so digests are portable across
 * compilers and hosts.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.hh"
#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "sim/bpred_sim.hh"

namespace perfbench
{

/** Incremental 64-bit FNV-1a. */
class Fnv64
{
  public:
    void bytes(const void *data, std::size_t size);
    void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
    std::uint64_t value() const { return _hash; }
    std::string hex() const;

  private:
    std::uint64_t _hash = 0xcbf29ce484222325ull;
};

/** Digests of one allocation-flow output. */
struct FlowDigest
{
    std::string profile; ///< stats + selection + conflict graph
    std::string wsets;   ///< working sets, in extraction order
    std::string alloc;   ///< the 16/128/1024-entry allocation maps
    std::string lanes;   ///< per-lane mispredicts and executions

    bool operator==(const FlowDigest &) const = default;

    /** Names of the differing parts ("" when equal). */
    std::string diff(const FlowDigest &other) const;
};

FlowDigest digestFlow(const bwsa::AllocationPipeline &pipeline,
                      const bwsa::WorkingSetResult &sets,
                      const std::vector<bwsa::AllocationResult> &allocs,
                      const std::vector<bwsa::PredictionStats> &lanes);

/** Cell label -> digests of one workload. */
using CellDigests = std::map<std::string, FlowDigest>;

/**
 * Reference digests of @p workload recorded at (@p size, @p seed) in
 * @p path; nullopt when the file has none for that combination.
 * A present but malformed file is fatal.
 */
std::optional<CellDigests> loadReference(const std::string &path,
                                         const std::string &workload,
                                         const std::string &size,
                                         std::uint64_t seed);

/**
 * Record @p digests as the reference of @p workload in @p path,
 * keeping the other workloads' entries when the file already holds
 * references for the same size and seed.
 */
void writeReference(const std::string &path,
                    const std::string &workload,
                    const std::string &size, std::uint64_t seed,
                    const CellDigests &digests);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
