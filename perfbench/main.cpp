/**
 * @file
 * Layer-by-layer benchmark: command line, set-up and result line.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--scale F] [--workers N]
 *             [--inject corrupt-archive|wrong-count] [--out-dir D]
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 is the
 * separate traced run that reports the per-layer metrics. Lines
 * starting with '#' describe the run; the last line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"

namespace
{

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

double
parseNumber(const std::string &flag, const std::string &text, double lo,
            double hi)
{
    size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || !(v >= lo && v <= hi)) {
        throw std::invalid_argument(flag + " expects a number in [" +
                                    std::to_string(lo) + ", " +
                                    std::to_string(hi) + "], got '" +
                                    text + "'");
    }
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = static_cast<uint64_t>(
                parseNumber(arg, val, 0, 9.0e15));
        } else if (arg == "--seconds") {
            o.seconds = parseNumber(arg, val, 0.01, 3600);
        } else if (arg == "--trace") {
            o.trace = parseNumber(arg, val, 0, 1) != 0.0;
        } else if (arg == "--scale") {
            o.scale = parseNumber(arg, val, 1e-4, 4);
        } else if (arg == "--workers") {
            o.workers = static_cast<unsigned>(parseNumber(arg, val, 1, 64));
        } else if (arg == "--inject") {
            o.inject = val;
        } else if (arg == "--out-dir") {
            o.outDir = val;
        } else {
            throw std::invalid_argument("unknown flag " + arg);
        }
    }
    if (!haveWorkload)
        throw std::invalid_argument("--workload is required");
    return o;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printDigest(const WorkloadRunner &runner)
{
    for (const auto &[key, r] : runner.digest()) {
        std::cout << "# digest " << key << " mispredictions="
                  << r.mispredictions << " cond_branches="
                  << r.condBranches << " instructions=" << r.instructions
                  << " mpki=" << std::fixed << std::setprecision(4)
                  << r.mpki() << std::defaultfloat
                  << std::setprecision(6) << "\n";
    }
    const PairResult &b = runner.biasedResult();
    if (b.condBranches != 0) {
        std::cout << "# digest BIASED/bf-neural mispredictions="
                  << b.mispredictions << " cond_branches="
                  << b.condBranches << " instructions=" << b.instructions
                  << "\n";
    }
}

int
run(const Options &opts)
{
    const WorkloadSpec &spec = workloadByName(opts.workload);
    const Prepared prep = prepare(spec, opts);

    std::cout << "# perfbench workload=" << spec.name
              << " seed=" << opts.seed << " seconds=" << opts.seconds
              << " trace=" << (opts.trace ? 1 : 0) << "\n"
              << "# build type=" << PERFBENCH_BUILD_TYPE
              << " compiler=\"" << PERFBENCH_COMPILER << "\" flags=\""
              << PERFBENCH_CXX_FLAGS << "\" nproc="
              << std::thread::hardware_concurrency() << "\n"
              << "# workload scale=" << prep.scale
              << " update_delay=" << spec.updateDelay
              << " workers=" << prep.workers << " predictors=";
    for (const std::string &p : spec.predictors)
        std::cout << p << (&p == &spec.predictors.back() ? "" : ",");
    std::cout << "\n";
    for (const TraceData &td : prep.traces) {
        std::cout << "# trace " << td.recipe.name << " recipe_seed="
                  << td.recipe.seed << " records=" << td.sums.records
                  << " cond_branches=" << td.sums.condBranches
                  << " instructions=" << td.sums.instructions << "\n";
    }
    std::cout << "# setup_s samples:";
    for (const double s : prep.setupSeconds)
        std::cout << " " << s;
    std::cout << " (tracegen " << prep.tracegenSeconds << " s)\n";

    WorkloadRunner runner(prep);
    std::vector<Metric> metrics;
    if (!opts.trace) {
        const std::vector<double> rates = runRounds(runner, opts.seconds);
        std::cout << "# rounds=" << rates.size() << " operations="
                  << runner.attempted() << " records_per_s median="
                  << median(rates) << "\n# round records_per_s:";
        for (const double r : rates)
            std::cout << " " << r;
        std::cout << "\n";
        metrics.push_back({"records_per_s", median(rates), "records/s"});
        metrics.push_back({"setup_s", median(prep.setupSeconds), "s"});
        metrics.push_back({"peak_rss_mib", peakRssMiB(), "MiB"});
        metrics.push_back({"mpki", runner.meanMpki(), "mispred/kinst"});
    } else {
        metrics = runTraced(prep, opts, runner);
    }
    printDigest(runner);
    for (const std::string &note : runner.failures())
        std::cout << "# FAILED " << note << "\n";

    std::ostringstream js;
    js << std::setprecision(12);
    js << "{\"correct\": " << (runner.correct() ? "true" : "false")
       << ", \"attempted\": " << runner.attempted()
       << ", \"failed\": " << runner.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        js << (i == 0 ? "" : ", ") << jsonString(metrics[i].name)
           << ": {\"value\": " << metrics[i].value
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
