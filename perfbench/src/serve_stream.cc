/**
 * @file
 * The serve_stream workload: streamed profiling through the service.
 *
 * An in-process ProfileService is driven by `workers` closed-loop
 * ServeClients, each on its own thread and tenant.  The loop is closed
 * because the client API is synchronous: a client sends its next
 * request only when the previous one is acknowledged.  A client runs
 * rounds until the measuring time is up; in one round it opens one
 * session per session trace, deals the traces' blocks to the sessions
 * round-robin, asks for a snapshot every kSnapshotEvery blocks of a
 * session, and finally finishes every session and compares the
 * finished artifact byte for byte with a batch ProfileSession over the
 * same records (the oracle, built during set-up).
 *
 * Latencies are exact per-request samples taken around each client
 * verb with steady_clock: "write" is one append round trip, "read"
 * one snapshot round trip.  Only requests sent before the deadline
 * count; the rounds in flight at the deadline still finish and are
 * still checked.
 */

#include <algorithm>
#include <memory>
#include <thread>

#include "core/pipeline.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "store/profile_artifact.hh"
#include "workload/presets.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace bwsa;

namespace
{

/** Times set-up is repeated; setup_s is the median. */
constexpr int kSetupRepetitions = 3;

/**
 * The sessions' preset; every client streams its own inputs.  Snapshot
 * cost follows a session's graph and grows along the session, so the
 * snapshot p50 and tail sit on the growth curve of the session graphs.
 * With one preset that curve is the same for every session and the
 * 12 inputs average out; mixing presets (li, perl, tex) put the p50 on
 * the boundary between one preset's cheap snapshots and another's
 * growing ones, where it jumped by 30% between seeds.
 */
constexpr const char *kSessionPreset = "li";

/** Sessions one client interleaves per round. */
constexpr int kSessionsPerClient = 3;

/** Snapshot cadence, in blocks of one session. */
constexpr std::size_t kSnapshotEvery = 8;

double
sessionScale(const Options &options)
{
    return options.size == "tiny" ? 0.004 : 0.12;
}

std::size_t
blockRecords(const Options &options)
{
    return options.size == "tiny" ? 512 : 2048;
}

/** One session trace and its batch oracle bytes. */
struct SessionTrace
{
    std::string label;
    std::vector<BranchRecord> records;
    std::string expected;
};

/** The service's session config: every record kept, no spilling. */
PipelineConfig
streamingPipelineConfig()
{
    PipelineConfig config;
    config.coverage = 1.0;
    config.max_static = 0;
    return config;
}

/** Batch ProfileSession over @p trace, serialized. */
std::string
batchArtifactBytes(const MemoryTrace &trace)
{
    AllocationPipeline pipeline(streamingPipelineConfig());
    ProfileSession session(pipeline);
    session.addStats(trace);
    session.commit();
    session.addInterleave(trace);
    session.finish();
    return store::serializeProfileArtifact(
        {pipeline.lastStats(), pipeline.lastSelection(), pipeline.graph()});
}

/** Every client's session traces, each its own input. */
std::vector<std::vector<SessionTrace>>
makeSessionTraces(const Options &options)
{
    std::vector<std::vector<SessionTrace>> clients(options.workers);
    Workload w = pinnedPreset(kSessionPreset, sessionScale(options));
    for (int k = 0; k < kSessionsPerClient; ++k) {
        for (unsigned c = 0; c < options.workers; ++c) {
            std::string label = std::string(kSessionPreset) + "." +
                                std::to_string(k) + "@" + std::to_string(c);
            w.config.input_seed = inputSeed(options.seed, "serve:" + label);
            MemoryTrace trace;
            w.source().replay(trace);
            clients[c].push_back(
                {label, trace.records(), batchArtifactBytes(trace)});
        }
    }
    return clients;
}

/**
 * Loopback transport that times ProfileService::handle: the
 * "serve.handle" span and the handle time the client-side round trip
 * is split by.
 */
class TimedLoopbackChannel : public serve::ServeChannel
{
  public:
    TimedLoopbackChannel(serve::ProfileService &service,
                         std::uint64_t tenant)
        : _service(service), _tenant(tenant)
    {}

    bool
    roundTrip(const serve::Frame &request, serve::Frame &response,
              std::string &) override
    {
        Ledger::Scope scope(ledger, "serve.handle");
        Clock::time_point start = Clock::now();
        response = _service.handle(_tenant, request, &_events);
        handle_ms += msSince(start);
        return true;
    }

    Ledger *ledger = nullptr; ///< null on untraced rounds
    double handle_ms = 0.0;   ///< summed handle time

  private:
    serve::ProfileService &_service;
    std::uint64_t _tenant;
};

/** What one client measured and checked. */
struct ClientLog
{
    RunResult checks;       ///< verdicts of every request and finish
    RequestTimes appends;   ///< by position in the round
    RequestTimes snapshots; ///< by position in the round
    std::uint64_t acked_records = 0; ///< appended before the deadline
    std::vector<LayerSample> layers; ///< traced rounds
    std::vector<double> traced_round_ms;
    std::vector<double> untraced_round_ms;
};

/**
 * One round's request schedule: block b of every session in turn,
 * then block b + 1, with @p snapshot(k) after every kSnapshotEvery-th
 * block of session k.
 */
template <typename Append, typename Snapshot>
void
forRoundSchedule(const std::vector<SessionTrace> &traces,
                 std::size_t block, Append &&append, Snapshot &&snapshot)
{
    std::size_t longest = 0;
    for (const SessionTrace &t : traces)
        longest = std::max(longest, t.records.size());
    for (std::size_t b = 0; b * block < longest; ++b) {
        for (std::size_t k = 0; k < traces.size(); ++k) {
            const std::size_t at = b * block;
            if (at >= traces[k].records.size())
                continue;
            append(k, traces[k].records.data() + at,
                   std::min(block, traces[k].records.size() - at));
            if ((b + 1) % kSnapshotEvery == 0)
                snapshot(k);
        }
    }
}

/**
 * One client's closed loop: rounds until @p deadline (at least one),
 * every request timed, every finish checked.
 */
void
runClient(serve::ProfileService &service, std::uint64_t tenant,
          const std::vector<SessionTrace> &traces, std::size_t block,
          Clock::time_point deadline, Ledger *ledger, ClientLog &log)
{
    TimedLoopbackChannel channel(service, tenant);
    serve::ServeClient client(channel);
    log.checks.check(client.hello(), "hello: " + client.lastError());

    for (std::uint64_t round = 0; round == 0 || Clock::now() < deadline;
         ++round) {
        const bool traced = ledger && round % 2 == 0;
        Ledger *lp = traced ? ledger : nullptr;
        channel.ledger = lp;
        channel.handle_ms = 0.0;
        double client_ms = 0.0;
        std::uint64_t appends = 0, snapshots = 0, errors = 0;
        std::vector<double> growth;
        Clock::time_point round_start = Clock::now();
        Ledger::Scope round_scope(lp, "bench.round");

        // A request's round trip, kept as request @p index's sample
        // when it was sent before the deadline.
        auto request = [&](const char *span, auto &&verb,
                           RequestTimes *times, std::size_t index) {
            Clock::time_point start = Clock::now();
            bool ok;
            {
                Ledger::Scope scope(lp, span);
                ok = verb();
            }
            double ms = msSince(start);
            client_ms += ms;
            if (times && start < deadline)
                times->add(index, ms);
            if (!ok)
                ++errors;
            return std::make_pair(ok, ms);
        };

        std::vector<std::uint64_t> ids(traces.size());
        for (std::size_t k = 0; k < traces.size(); ++k) {
            ids[k] = round * traces.size() + k;
            bool ok = request(
                          "serve.begin",
                          [&] { return client.begin(ids[k]); }, nullptr,
                          0)
                          .first;
            log.checks.check(ok, "begin: " + client.lastError());
        }

        std::vector<double> first_snapshot(traces.size(), 0.0);
        std::vector<double> last_snapshot(traces.size(), 0.0);
        forRoundSchedule(
            traces, block,
            [&](std::size_t k, const BranchRecord *records,
                std::size_t count) {
                Clock::time_point sent = Clock::now();
                bool ok = request(
                              "serve.append",
                              [&] {
                                  return client.append(ids[k], records,
                                                       count);
                              },
                              &log.appends, appends++)
                              .first;
                log.checks.check(ok, "append: " + client.lastError());
                if (ok && sent < deadline)
                    log.acked_records += count;
            },
            [&](std::size_t k) {
                auto [ok, ms] = request(
                    "serve.snapshot",
                    [&] { return client.snapshotBytes(ids[k]).has_value(); },
                    &log.snapshots, snapshots++);
                log.checks.check(ok, "snapshot: " + client.lastError());
                if (first_snapshot[k] == 0.0)
                    first_snapshot[k] = ms;
                last_snapshot[k] = ms;
            });

        for (std::size_t k = 0; k < traces.size(); ++k) {
            std::optional<std::string> bytes;
            request(
                "serve.finish",
                [&] {
                    bytes = client.finishBytes(ids[k]);
                    return bytes.has_value();
                },
                nullptr, 0);
            log.checks.check(bytes && *bytes == traces[k].expected,
                      traces[k].label +
                          ": finished artifact differs from batch" +
                          (bytes ? "" : " (" + client.lastError() + ")"));
            if (first_snapshot[k] > 0.0)
                growth.push_back(last_snapshot[k] / first_snapshot[k]);
        }

        const double round_ms = msSince(round_start);
        if (!ledger)
            continue;
        (traced ? log.traced_round_ms : log.untraced_round_ms)
            .push_back(round_ms);
        if (!traced)
            continue;
        log.layers.push_back(
            {{"serve.handle_ms", channel.handle_ms},
             {"serve.client_ms", client_ms - channel.handle_ms},
             {"serve.appends", static_cast<double>(appends)},
             {"serve.snapshots", static_cast<double>(snapshots)},
             {"serve.errors", static_cast<double>(errors)},
             {"serve.snapshot_growth", median(growth)}});
    }
}

/**
 * Shadow drive: one client round's block schedule straight into
 * StreamingProfileSession, timing the core layer without the service.
 */
LayerSample
shadowDrive(const std::vector<SessionTrace> &traces, std::size_t block,
            Ledger &ledger, RunResult &result)
{
    double append_ms = 0.0, snapshot_ms = 0.0, resident_max = 0.0,
           spilled = 0.0;
    std::vector<std::unique_ptr<StreamingProfileSession>> sessions;
    for (std::size_t k = 0; k < traces.size(); ++k) {
        StreamingSessionConfig config;
        config.pipeline = streamingPipelineConfig();
        sessions.push_back(
            std::make_unique<StreamingProfileSession>(std::move(config)));
    }
    forRoundSchedule(
        traces, block,
        [&](std::size_t k, const BranchRecord *records, std::size_t count) {
            Ledger::Scope scope(&ledger, "core.stream_append");
            Clock::time_point start = Clock::now();
            sessions[k]->appendBlock(records, count);
            append_ms += msSince(start);
            resident_max = std::max(
                resident_max,
                static_cast<double>(sessions[k]->residentBytes()));
        },
        [&](std::size_t k) {
            Ledger::Scope scope(&ledger, "core.stream_snapshot");
            Clock::time_point start = Clock::now();
            store::ProfileArtifact artifact = sessions[k]->snapshot();
            snapshot_ms += msSince(start);
        });
    for (std::size_t k = 0; k < traces.size(); ++k) {
        spilled += static_cast<double>(sessions[k]->spilledEpochs());
        std::string bytes =
            store::serializeProfileArtifact(sessions[k]->finish());
        result.check(bytes == traces[k].expected,
                     traces[k].label +
                         ": shadow streaming session differs from batch");
    }
    return {{"core.stream_append_ms", append_ms},
            {"core.stream_snapshot_ms", snapshot_ms},
            {"core.stream_resident_bytes_max", resident_max},
            {"core.stream_spilled_epochs", spilled}};
}

void
merge(RunResult &result, const RunResult &checks)
{
    result.attempted += checks.attempted;
    result.failed += checks.failed;
    result.notes.insert(result.notes.end(), checks.notes.begin(),
                        checks.notes.end());
}

} // namespace

RunResult
runServeStream(const Options &options, Ledger &ledger)
{
    RunResult result;
    EndToEndSamples e2e;
    e2e.write_tail_q = 0.99;
    e2e.read_tail_q = 0.9;
    const std::size_t block = blockRecords(options);

    std::vector<std::vector<SessionTrace>> traces;
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
        Clock::time_point start = Clock::now();
        traces = makeSessionTraces(options);
        // Warm-up: one untimed client round through a fresh service.
        serve::ProfileService service(serve::ServiceConfig{});
        ClientLog warm;
        runClient(service, 0, traces[0], block, Clock::now(), nullptr,
                  warm);
        merge(result, warm.checks);
        e2e.setup_s.push_back(secondsSince(start));
    }

    std::vector<LayerSample> layers;
    if (options.trace)
        layers.push_back(shadowDrive(traces[0], block, ledger, result));

    serve::ProfileService service(serve::ServiceConfig{});
    std::vector<ClientLog> logs(options.workers);
    Clock::time_point begin = Clock::now();
    Clock::time_point deadline =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < options.workers; ++c)
            clients.emplace_back([&, c] {
                runClient(service, c + 1, traces[c], block, deadline,
                          options.trace ? &ledger : nullptr, logs[c]);
            });
        for (std::thread &t : clients)
            t.join();
    }

    std::uint64_t acked = 0;
    std::vector<double> traced_ms, untraced_ms;
    for (const ClientLog &log : logs) {
        merge(result, log.checks);
        acked += log.acked_records;
        e2e.write.extend(log.appends);
        e2e.read.extend(log.snapshots);
        layers.insert(layers.end(), log.layers.begin(), log.layers.end());
        traced_ms.insert(traced_ms.end(), log.traced_round_ms.begin(),
                         log.traced_round_ms.end());
        untraced_ms.insert(untraced_ms.end(),
                           log.untraced_round_ms.begin(),
                           log.untraced_round_ms.end());
    }
    e2e.mrec_s.push_back(static_cast<double>(acked) / options.seconds /
                         1e6);

    result.end_to_end = endToEndMetrics(e2e);
    if (options.trace) {
        layers.push_back(tracingOverhead(traced_ms, untraced_ms));
        result.per_layer = perLayerMedians(layers);
    }
    result.notes.push_back(
        "serve_stream: " + std::to_string(options.workers) +
        " closed-loop clients, " + std::to_string(e2e.write.samples()) +
        " appends (" + std::to_string(e2e.write.requests()) +
        " distinct) and " + std::to_string(e2e.read.samples()) +
        " snapshots (" + std::to_string(e2e.read.requests()) +
        " distinct) timed, " + std::to_string(block) +
        " records per block");
    return result;
}

} // namespace perfbench
