#include "sim/cluster_analysis.hh"

#include "obs/metrics.hh"

namespace bwsa
{

namespace
{

/** Feeds every branch of a stream into a phase accumulator. */
class PhaseSampleSink : public TraceSink
{
  public:
    explicit PhaseSampleSink(obs::PhaseAccumulator &accumulator)
        : _accumulator(accumulator)
    {
    }

    void
    onBranch(const BranchRecord &record) override
    {
        _accumulator.sample(record.pc, record.timestamp);
    }

  private:
    obs::PhaseAccumulator &_accumulator;
};

/**
 * Streaming sink combining prediction, burst detection, and shift
 * proximity accounting against a phase timeline in one pass.
 */
class ClusterSink : public TraceSink
{
  public:
    ClusterSink(Predictor &predictor, const obs::PhaseTimeline &timeline,
                const ClusterConfig &config, ClusterReport &report)
        : _predictor(predictor), _phases(timeline.phases),
          _config(config), _report(report)
    {
    }

    void
    onBranch(const BranchRecord &record) override
    {
        bool miss =
            (_predictor.predict(record.pc) != record.taken);
        _predictor.update(record.pc, record.taken);

        ++_report.branches;
        if (miss)
            ++_report.misses;

        // --- shift proximity accounting: the aftermath of a phase
        // boundary opens at the first record at or past its start.
        while (_next_phase < _phases.size() &&
               record.timestamp >= _phases[_next_phase].start_ts) {
            _since_shift = 0;
            ++_next_phase;
        }
        if (_since_shift < _config.aftermath) {
            _report.near_shift.record(miss);
            ++_since_shift;
        } else {
            _report.steady.record(miss);
        }

        // --- burst detection.
        if (miss) {
            if (_gap > _config.burst_gap && _run_misses > 0)
                closeRun();
            ++_run_misses;
            _gap = 0;
        } else if (_run_misses > 0) {
            ++_gap;
            if (_gap > _config.burst_gap)
                closeRun();
        }
    }

    void
    onEnd() override
    {
        closeRun();
        if (_report.bursts > 0)
            _report.avg_burst_length =
                static_cast<double>(_report.burst_misses) /
                static_cast<double>(_report.bursts);
    }

  private:
    void
    closeRun()
    {
        if (_run_misses >= _config.burst_min) {
            ++_report.bursts;
            _report.burst_misses += _run_misses;
        }
        _run_misses = 0;
        _gap = 0;
    }

    Predictor &_predictor;
    const std::vector<obs::Phase> &_phases;
    const ClusterConfig &_config;
    ClusterReport &_report;

    std::size_t _run_misses = 0;   ///< misses in the open run
    std::size_t _gap = 0;          ///< correct branches since a miss

    /** First phase whose boundary is still ahead (phase 0 has none). */
    std::size_t _next_phase = 1;
    std::size_t _since_shift = ~std::size_t(0) / 2; ///< start steady
};

} // namespace

obs::PhaseTimeline
tracePhaseTimeline(const TraceSource &source, std::uint64_t interval,
                   const obs::PhaseDetectorConfig &config)
{
    obs::PhaseAccumulator accumulator(interval);
    PhaseSampleSink sink(accumulator);
    source.replay(sink);
    accumulator.finish();
    return obs::detectPhases(accumulator, config);
}

ClusterReport
analyzeMispredictionClustering(const TraceSource &source,
                               Predictor &predictor,
                               const obs::PhaseTimeline &timeline,
                               const ClusterConfig &config)
{
    ClusterReport report;
    report.shifts =
        timeline.phases.empty() ? 0 : timeline.phases.size() - 1;
    ClusterSink sink(predictor, timeline, config, report);
    source.replay(sink);

    // One predictor over one replay, counted like the other engines.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.counter("sim.runs").inc();
    metrics.counter("sim.predictor_runs").inc();
    metrics.counter("sim.branches").inc(report.branches);
    metrics.counter("sim.mispredicts").inc(report.misses);
    return report;
}

} // namespace bwsa
