/**
 * @file
 * Misprediction clustering analysis -- the open question the paper
 * poses in its future work: "Are the clustered branch mispredictions
 * found in recent work on dynamic prediction caused by changes in
 * working set?"
 *
 * This analysis runs a predictor over a trace while (a) grouping
 * mispredictions into bursts (maximal runs of misses separated by
 * fewer than a gap of correctly predicted branches) and (b) placing
 * each branch relative to the working-set shifts of a phase timeline
 * (obs/phase_detect.hh: a boundary is a window whose Jaccard
 * similarity to its predecessor drops below the detector threshold).
 * It then contrasts the miss rate in the aftermath of a shift against
 * the steady-state miss rate, quantifying how much of the clustering
 * is attributable to working-set change.
 */

#ifndef BWSA_SIM_CLUSTER_ANALYSIS_HH
#define BWSA_SIM_CLUSTER_ANALYSIS_HH

#include <cstdint>

#include "obs/phase_detect.hh"
#include "predict/predictor.hh"
#include "trace/trace.hh"
#include "util/stats.hh"

namespace bwsa
{

/** Knobs of the clustering analysis. */
struct ClusterConfig
{
    /** Misses separated by fewer correct branches fuse into a burst. */
    std::size_t burst_gap = 8;

    /** Minimum misses for a run to count as a burst. */
    std::size_t burst_min = 4;

    /** Branches after a shift considered "near" the shift. */
    std::size_t aftermath = 512;
};

/** Results of the clustering analysis. */
struct ClusterReport
{
    std::uint64_t branches = 0;      ///< dynamic branches simulated
    std::uint64_t misses = 0;        ///< total mispredictions

    std::uint64_t bursts = 0;        ///< qualifying miss bursts
    std::uint64_t burst_misses = 0;  ///< misses inside bursts
    double avg_burst_length = 0.0;   ///< mean misses per burst

    std::uint64_t shifts = 0;        ///< phase boundaries (shifts)

    /** Miss ratio within `aftermath` branches of a shift. */
    RatioStat near_shift;

    /** Miss ratio everywhere else (steady state). */
    RatioStat steady;

    /** Fraction of all misses that occur inside bursts. */
    double
    burstMissFraction() const
    {
        return misses ? static_cast<double>(burst_misses) /
                            static_cast<double>(misses)
                      : 0.0;
    }

    /**
     * How many times likelier a miss is near a working-set shift
     * than in steady state (>1 supports the paper's conjecture).
     */
    double
    shiftMissAmplification() const
    {
        double steady_rate = steady.ratio();
        return steady_rate > 0.0 ? near_shift.ratio() / steady_rate
                                 : 0.0;
    }
};

/**
 * Phase timeline of every branch in @p source: one PhaseAccumulator
 * at @p interval, segmented by a PhaseDetector with @p config.
 */
obs::PhaseTimeline
tracePhaseTimeline(const TraceSource &source, std::uint64_t interval,
                   const obs::PhaseDetectorConfig &config = {});

/**
 * Run the clustering analysis over one trace with one predictor.
 * Each boundary of @p timeline (every phase but the first) is a
 * shift; its aftermath opens at the first record whose timestamp
 * reaches the phase's start_ts.
 */
ClusterReport
analyzeMispredictionClustering(const TraceSource &source,
                               Predictor &predictor,
                               const obs::PhaseTimeline &timeline,
                               const ClusterConfig &config = {});

} // namespace bwsa

#endif // BWSA_SIM_CLUSTER_ANALYSIS_HH
