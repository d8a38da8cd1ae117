/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--size default|tiny] [--data-dir DIR] [--reference FILE]
 *             [--write-reference] [--trace-out FILE]
 *
 * Runs one workload (offline_gcc_sharded, offline_suite,
 * serve_stream), prints the host fingerprint, the oracle verdicts and
 * every metric by name with its unit, and as the last line one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.  Untraced
 * runs report the end-to-end metrics, traced runs the per-layer
 * ledger.  Exits 1 when any output differs from its oracle.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "util/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size default|tiny] [--data-dir DIR] "
                 "[--reference FILE] [--write-reference] "
                 "[--trace-out FILE]\n",
                 error.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    o.workers = hostCpus();
    bool trace_set = false, seconds_set = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--write-reference") {
            o.write_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = parseCount(flag, value);
        else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseCount(flag, value));
            seconds_set = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
            trace_set = true;
        } else if (flag == "--size") {
            if (value != "default" && value != "tiny")
                usage("--size takes default or tiny");
            o.size = value;
        } else if (flag == "--data-dir")
            o.data_dir = value;
        else if (flag == "--reference")
            o.reference = value;
        else if (flag == "--trace-out")
            o.trace_out = value;
        else
            usage("unknown flag " + flag);
    }
    if (o.workload.empty() || !trace_set || !seconds_set)
        usage("--workload, --seconds and --trace are required");
    if (o.data_dir.empty())
        usage("--data-dir is required");
    if (o.write_reference && o.reference.empty())
        usage("--write-reference needs --reference");
    return o;
}

/** A number with every digit it has. */
std::string
number(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/**
 * The workload-specific name a generic metric stands for, printed
 * beside it (e.g. write_tail_ms is append_p99_ms on serve_stream).
 */
std::string
alias(const std::string &workload, const std::string &metric)
{
    const bool serve = workload == "serve_stream";
    if (metric == "mrec_s")
        return serve ? "ingest_mrec_s" : "offline_mrec_s";
    if (!serve)
        return metric == "write_p50_ms"    ? "profile_p50_ms"
               : metric == "write_tail_ms" ? "profile_p90_ms"
               : metric == "read_p50_ms"   ? "result_p50_ms"
               : metric == "read_tail_ms"  ? "result_p90_ms"
                                           : "";
    return metric == "write_p50_ms"    ? "append_p50_ms"
           : metric == "write_tail_ms" ? "append_p99_ms"
           : metric == "read_p50_ms"   ? "snapshot_p50_ms"
           : metric == "read_tail_ms"  ? "snapshot_p90_ms"
                                       : "";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseOptions(argc, argv);
    bwsa::setLogLevel(bwsa::LogLevel::Quiet);
    Ledger ledger(options.trace);

    RunResult result;
    if (options.workload == "offline_gcc_sharded")
        result = runOfflineGccSharded(options, ledger);
    else if (options.workload == "offline_suite")
        result = runOfflineSuite(options, ledger);
    else if (options.workload == "serve_stream")
        result = runServeStream(options, ledger);
    else
        usage("unknown workload '" + options.workload +
              "' (offline_gcc_sharded, offline_suite, serve_stream)");

    const std::string host = hostFingerprint();
    std::cout << "host " << host << "\n";
    std::cout << "run workload=" << options.workload
              << " seed=" << options.seed << " seconds=" << options.seconds
              << " size=" << options.size
              << " trace=" << (options.trace ? 1 : 0) << "\n";
    for (const std::string &note : result.notes)
        std::cout << note << "\n";

    const double failed_frac =
        result.attempted ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 1.0;
    std::cout << "metric failed_frac = " << number(failed_frac)
              << " ratio (" << result.failed << " of " << result.attempted
              << " checked outputs)\n";
    for (const Metric &m : result.end_to_end) {
        std::string a = alias(options.workload, m.name);
        std::cout << "metric " << m.name << " = " << number(m.value) << " "
                  << m.unit << (a.empty() ? "" : "  [" + a + "]") << "\n";
    }
    if (options.trace) {
        for (const Metric &m : result.per_layer)
            std::cout << "layer " << m.name << " = " << number(m.value)
                      << " " << m.unit << "\n";
        std::cout << "spans (name count total_ms self_ms):\n";
        for (const auto &[name, t] : ledger.totals())
            std::cout << "span " << name << " " << t.count << " "
                      << number(t.total_ms) << " " << number(t.self_ms)
                      << "\n";
        if (!options.trace_out.empty()) {
            ledger.writeChromeTrace(options.trace_out, host);
            std::cout << "spans written to " << options.trace_out << "\n";
        }
    }

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    const std::vector<Metric> &metrics =
        options.trace ? result.per_layer : result.end_to_end;
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << number(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
}
