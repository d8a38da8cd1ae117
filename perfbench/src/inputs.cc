#include <algorithm>

#include "oracle.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace perfbench
{

std::uint64_t
inputSeed(std::uint64_t seed, const std::string &name)
{
    Fnv64 h;
    h.u64(seed);
    h.bytes(name.data(), name.size());
    // Keep it small and positive: graph specs print it as seed=N.
    return h.value() % 1000000007ull + 1;
}

bwsa::Workload
pinnedPreset(const std::string &name, double scale)
{
    bwsa::Workload w = bwsa::makeWorkload(name, "", scale);
    // A generated program's entry procedure is an outer loop over the
    // sequence of phase loops (workload/generator.cc).  A loop whose
    // mean trip count is not below its maximum runs exactly that
    // often, so capping each phase loop at its mean fixes the phase
    // schedule; the loops' statements and branch layout are untouched.
    bwsa::Stmt *outer = w.program.procedure(0).body.get();
    if (!outer || outer->kind != bwsa::StmtKind::Loop || !outer->body ||
        outer->body->kind != bwsa::StmtKind::Sequence)
        bwsa_fatal("preset '", name, "' has no outer phase loop");
    for (const bwsa::StmtPtr &phase : outer->body->stmts) {
        if (phase->kind != bwsa::StmtKind::Loop)
            bwsa_fatal("preset '", name, "' has a phase that is not a loop");
        phase->max_trips = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(phase->mean_trips));
    }
    return w;
}

namespace
{

/** Forwards records shifted past the previous input's last timestamp. */
class ShiftSink : public bwsa::TraceSink
{
  public:
    explicit ShiftSink(bwsa::TraceSink &inner) : _inner(inner) {}

    void
    onBranch(const bwsa::BranchRecord &record) override
    {
        bwsa::BranchRecord shifted = record;
        shifted.timestamp += _offset;
        _last = shifted.timestamp;
        _inner.onBranch(shifted);
    }

    /** The next input starts after everything forwarded so far. */
    void onEnd() override { _offset = _last; }

  private:
    bwsa::TraceSink &_inner;
    std::uint64_t _offset = 0;
    std::uint64_t _last = 0;
};

} // namespace

void
replayInputs(const bwsa::Workload &w, int inputs, std::uint64_t seed,
             const std::string &label, bwsa::TraceSink &sink)
{
    ShiftSink shift(sink);
    bwsa::ExecutorConfig config = w.config;
    for (int input = 0; input < inputs; ++input) {
        config.input_seed =
            inputSeed(seed, label + "#" + std::to_string(input));
        bwsa::WorkloadTraceSource(w.program, config).replay(shift);
    }
    sink.onEnd();
}

} // namespace perfbench
