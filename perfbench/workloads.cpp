/**
 * @file
 * Workload definitions, set-up, and the round-by-round operations
 * with their checks.
 */

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/factory.hpp"
#include "perfbench.hpp"
#include "replay.hpp"
#include "sim/evaluator.hpp"
#include "sim/suite_runner.hpp"
#include "sim/trace_io.hpp"
#include "telemetry/tracing.hpp"
#include "util/hashing.hpp"
#include "util/random.hpp"

namespace perfbench
{

using bfbp::BranchRecord;

namespace
{

// One trace per behaviour class of the suite: the longest-distance
// SPEC correlations, server phase churn, multimedia local periodic
// patterns (the recency stack's failure mode) and a hard INT trace.
const std::vector<std::string> classTraces = {"SPEC17", "SERV2", "MM5",
                                              "INT1"};

std::vector<WorkloadSpec>
buildWorkloads()
{
    std::vector<WorkloadSpec> w;

    WorkloadSpec imm;
    imm.name = "bf-immediate";
    imm.traces = classTraces;
    imm.predictors = {"bf-neural", "bf-isl-tage-10"};
    imm.scale = 0.2;
    imm.updateDelay = 0;
    imm.feed = Feed::Memory;
    imm.biasedCheck = true;
    w.push_back(imm);

    WorkloadSpec del = imm;
    del.name = "bf-delayed";
    del.updateDelay = 32;
    del.biasedCheck = false;
    w.push_back(del);

    WorkloadSpec arc;
    arc.name = "tage-archive";
    arc.traces = classTraces;
    arc.predictors = {"tage-15", "isl-tage-10"};
    arc.scale = 0.2;
    arc.feed = Feed::Archive;
    w.push_back(arc);

    WorkloadSpec fig;
    fig.name = "fig-suite";
    fig.traces = classTraces;
    fig.predictors = {"oh-snap", "tage-15", "bf-neural", "isl-tage-10",
                      "bf-isl-tage-10"};
    fig.scale = 0.2;
    fig.feed = Feed::Suite;
    w.push_back(fig);
    return w;
}

/** FNV-1a over little-endian bytes of @p v. */
uint64_t
fnv(uint64_t h, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::vector<BranchRecord>
generate(const bfbp::tracegen::TraceRecipe &recipe, double scale)
{
    std::unique_ptr<bfbp::TraceSource> src =
        bfbp::tracegen::makeSource(recipe, scale);
    return bfbp::collect(*src);
}

/**
 * A stream of completely biased conditional branches whose PCs map
 * to distinct BST entries under the default 2^14-entry table, each
 * visited @p visits times in a seeded order. bf-neural predicts a
 * branch it has never seen as taken and every later instance from
 * its recorded direction, so under immediate update no static
 * branch may mispredict more than once.
 */
constexpr size_t biasedStatics = 2000;

std::vector<BranchRecord>
biasedStream(uint64_t seed, size_t statics, int visits)
{
    bfbp::Rng rng(bfbp::hashCombine(seed, 0xb1a5));
    std::unordered_set<uint64_t> usedEntries;
    std::vector<BranchRecord> sites;
    for (uint64_t pc = 0x500000; sites.size() < statics; pc += 4) {
        if (!usedEntries.insert(bfbp::hashPc(pc, 14)).second)
            continue;
        BranchRecord r;
        r.pc = pc;
        r.target = pc + 0x40;
        r.instCount = 4;
        r.taken = rng.below(2) == 1;
        sites.push_back(r);
    }
    std::vector<BranchRecord> out;
    out.reserve(statics * static_cast<size_t>(visits));
    std::vector<size_t> order(statics);
    for (size_t i = 0; i < statics; ++i)
        order[i] = i;
    for (int v = 0; v < visits; ++v) {
        for (size_t i = statics; i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (size_t i : order)
            out.push_back(sites[i]);
    }
    return out;
}

std::string
archivePath(const Options &opts, const std::string &trace,
            const char *format)
{
    return opts.outDir + "/archives/" + trace + "." + format + ".bft";
}

/** Flips one payload byte of the first v2 block. */
void
corruptArchive(const std::string &path)
{
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    const std::streamoff at = static_cast<std::streamoff>(
        bfbp::trace_format::headerBytes +
        bfbp::trace_format::blockHeaderBytes + 5);
    f.seekg(at);
    char c = 0;
    f.get(c);
    f.seekp(at);
    f.put(static_cast<char>(c ^ 0x5a));
    if (!f)
        throw std::runtime_error("cannot corrupt " + path);
}

/** Reads an archive back through the public block interface. */
std::vector<BranchRecord>
decodeArchive(const std::string &path)
{
    bfbp::TraceFileSource src(path);
    std::vector<BranchRecord> out(src.recordCount());
    size_t got = 0;
    while (got < out.size()) {
        const size_t n = src.nextBlock(out.data() + got,
                                       std::min<size_t>(4096,
                                                        out.size() - got));
        if (n == 0)
            break;
        got += n;
    }
    out.resize(got);
    return out;
}

/**
 * Moves the calling thread between the cores it may run on, and
 * restores its original mask on destruction. On a shared VM each
 * core's speed depends on its neighbours' load and stays high or low
 * for tens of seconds; visiting every core puts every core's share
 * into each run's median instead of letting the core a run happens
 * to start on decide it.
 */
class CoreRotation
{
  public:
    CoreRotation()
    {
        CPU_ZERO(&original);
        if (sched_getaffinity(0, sizeof(original), &original) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &original))
                cores.push_back(c);
        }
    }

    ~CoreRotation()
    {
        if (!cores.empty())
            sched_setaffinity(0, sizeof(original), &original);
    }

    CoreRotation(const CoreRotation &) = delete;
    CoreRotation &operator=(const CoreRotation &) = delete;

    /** Pins the thread to allowed core @p k (modulo their number). */
    void
    moveTo(uint64_t k)
    {
        if (cores.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cores[k % cores.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original;
    std::vector<int> cores;
};

} // anonymous namespace

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> w = buildWorkloads();
    return w;
}

const WorkloadSpec &
workloadByName(const std::string &name)
{
    std::string names;
    for (const WorkloadSpec &w : allWorkloads()) {
        if (w.name == name)
            return w;
        names += (names.empty() ? "" : ", ") + w.name;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (valid: " + names + ")");
}

void
RecordSums::add(const BranchRecord &r)
{
    ++records;
    instructions += r.instCount;
    if (r.isConditional())
        ++condBranches;
    digest = fnv(digest, r.pc, 8);
    digest = fnv(digest, r.target, 8);
    digest = fnv(digest, r.instCount, 4);
    digest = fnv(digest, static_cast<uint64_t>(r.type), 1);
    digest = fnv(digest, r.taken ? 1 : 0, 1);
}

RecordSums
sumRecords(const std::vector<BranchRecord> &records)
{
    RecordSums s;
    for (const BranchRecord &r : records)
        s.add(r);
    return s;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Prepared
prepare(const WorkloadSpec &spec, const Options &opts)
{
    Prepared prep;
    prep.spec = &spec;
    prep.scale = opts.scale > 0.0 ? opts.scale : spec.scale;
    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    prep.workers = std::min(opts.workers != 0 ? opts.workers
                                              : spec.workers,
                            cores);
    if (spec.feed == Feed::Archive)
        std::filesystem::create_directories(opts.outDir + "/archives");

    for (unsigned rep = 0; rep < setupRepeats; ++rep) {
        const Clock::time_point t0 = Clock::now();
        prep.traces.clear();
        for (const std::string &name : spec.traces) {
            TraceData td;
            td.recipe = bfbp::tracegen::recipeByName(name);
            td.recipe.seed = bfbp::hashCombine(td.recipe.seed, opts.seed);
            td.records = generate(td.recipe, prep.scale);
            td.sums = sumRecords(td.records);
            prep.traces.push_back(std::move(td));
        }
        prep.tracegenSeconds = secondsSince(t0);

        if (spec.feed == Feed::Archive) {
            for (TraceData &td : prep.traces) {
                td.v1Path = archivePath(opts, td.recipe.name, "v1");
                td.v2Path = archivePath(opts, td.recipe.name, "v2");
                bfbp::writeTrace(td.v1Path, td.records,
                                 bfbp::TraceFormat::V1);
                bfbp::writeTrace(td.v2Path, td.records,
                                 bfbp::TraceFormat::V2);
            }
        }
        if (spec.biasedCheck) {
            prep.biasedStatics = biasedStatics;
            prep.biased = biasedStream(opts.seed, biasedStatics, 8);
        }
        // Construction cost of every predictor the workload runs;
        // operations build their own fresh instances.
        for (const std::string &p : spec.predictors)
            bfbp::createPredictor(p);
        prep.setupSeconds.push_back(secondsSince(t0));
    }

    if (opts.inject == "corrupt-archive") {
        if (spec.feed != Feed::Archive)
            throw std::invalid_argument(
                "--inject corrupt-archive needs an archive workload");
        corruptArchive(prep.traces.front().v2Path);
    } else if (opts.inject == "wrong-count") {
        ++prep.traces.front().sums.condBranches;
    } else if (!opts.inject.empty()) {
        throw std::invalid_argument("unknown --inject '" + opts.inject +
                                    "' (valid: corrupt-archive, "
                                    "wrong-count)");
    }
    return prep;
}

WorkloadRunner::WorkloadRunner(const Prepared &prepared) : prep(prepared)
{
}

void
WorkloadRunner::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    allChecksHeld = false;
    if (notes.size() < 8)
        notes.push_back(what);
}

double
WorkloadRunner::meanMpki() const
{
    if (firstRound.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &kv : firstRound)
        sum += kv.second.mpki();
    return sum / static_cast<double>(firstRound.size());
}

void
WorkloadRunner::fail(const std::string &what, bool check_failed)
{
    opFailed = true;
    if (check_failed)
        check(false, what);
    else if (notes.size() < 8)
        notes.push_back(what);
}

void
WorkloadRunner::settle(const std::string &key, const PairResult &r,
                       const RecordSums &expected)
{
    if (r.condBranches != expected.condBranches ||
        r.instructions != expected.instructions) {
        fail(key + ": evaluate() counted " +
                 std::to_string(r.condBranches) + " branches / " +
                 std::to_string(r.instructions) +
                 " instructions, the records hold " +
                 std::to_string(expected.condBranches) + " / " +
                 std::to_string(expected.instructions),
             true);
        return;
    }
    const auto [it, fresh] = firstRound.emplace(key, r);
    if (!fresh && it->second.mispredictions != r.mispredictions) {
        fail(key + ": " + std::to_string(r.mispredictions) +
                 " mispredictions, first round had " +
                 std::to_string(it->second.mispredictions),
             true);
    }
}

std::vector<double>
runRounds(WorkloadRunner &runner, double seconds)
{
    // Suite rounds start worker threads, which inherit the caller's
    // mask; they must keep every core.
    CoreRotation rotation;
    uint64_t round = 0;
    uint64_t firstOp = 0;
    if (runner.singleThreaded()) {
        // Operation j of round r runs on core j + r, so every
        // operation visits every core, whatever a round's length.
        runner.beforeOperation = [&] {
            rotation.moveTo(runner.attempted() - 1 - firstOp + round);
        };
    }
    std::vector<double> rates;
    const Clock::time_point start = Clock::now();
    do {
        firstOp = runner.attempted();
        const RoundStats s = runner.runRound();
        ++round;
        rates.push_back(s.seconds > 0.0
                            ? static_cast<double>(s.records) / s.seconds
                            : 0.0);
    } while (secondsSince(start) < seconds);
    runner.beforeOperation = nullptr;
    return rates;
}

RoundStats
WorkloadRunner::runRound()
{
    RoundStats stats;
    switch (prep.spec->feed) {
      case Feed::Memory:
        runMemoryOps(stats);
        break;
      case Feed::Archive:
        runArchiveOps(stats);
        break;
      case Feed::Suite:
        runSuiteOps(stats);
        break;
    }
    if (prep.spec->biasedCheck)
        runBiasedOp();
    ++rounds;
    return stats;
}

template <typename Body>
void
WorkloadRunner::operation(const std::string &key, Body &&body)
{
    ++attemptedOps;
    opFailed = false;
    if (beforeOperation)
        beforeOperation();
    try {
        body();
    } catch (const std::exception &e) {
        fail(key + ": " + e.what(), false);
    }
    if (opFailed)
        ++failedOps;
}

bfbp::EvalResult
WorkloadRunner::timedEvaluate(bfbp::TraceSource &source,
                              const std::string &spec,
                              const std::string &key,
                              const RecordSums &sums, RoundStats &stats)
{
    auto p = bfbp::createPredictor(spec);
    bfbp::EvalOptions eo;
    eo.updateDelay = prep.spec->updateDelay;
    const bfbp::telemetry::ScopedSpan span("op", key);
    const Clock::time_point t0 = Clock::now();
    bfbp::EvalResult r = bfbp::evaluate(source, *p, eo);
    const double dt = secondsSince(t0);
    stats.seconds += dt;
    stats.records += sums.records;
    settle(key, {r.mispredictions, r.condBranches, r.instructions}, sums);
    return r;
}

void
WorkloadRunner::checkReplay(const std::string &key,
                            const std::vector<BranchRecord> &records,
                            const std::string &spec,
                            uint64_t mispredictions)
{
    auto q = bfbp::createPredictor(spec);
    const ReplayResult rr = replay(records, *q, prep.spec->updateDelay);
    if (rr.mispredictions != mispredictions) {
        fail(key + ": replay loop mispredicted " +
                 std::to_string(rr.mispredictions) + " times, evaluate() " +
                 std::to_string(mispredictions),
             true);
    }
}

void
WorkloadRunner::runMemoryOps(RoundStats &stats)
{
    for (const TraceData &td : prep.traces) {
        for (const std::string &spec : prep.spec->predictors) {
            const std::string key = td.recipe.name + "/" + spec;
            operation(key, [&] {
                BorrowedSource src(td.records, td.recipe.name);
                const bfbp::EvalResult r =
                    timedEvaluate(src, spec, key, td.sums, stats);
                if (rounds == 0)
                    checkReplay(key, td.records, spec, r.mispredictions);
            });
        }
    }
}

void
WorkloadRunner::runArchiveOps(RoundStats &stats)
{
    for (const TraceData &td : prep.traces) {
        for (const char *format : {"v1", "v2"}) {
            const std::string &path =
                format[1] == '1' ? td.v1Path : td.v2Path;
            for (const std::string &spec : prep.spec->predictors) {
                const std::string key =
                    td.recipe.name + "/" + spec + "/" + format;
                operation(key, [&] {
                    bfbp::TraceFileSource src(path);
                    const bfbp::EvalResult r =
                        timedEvaluate(src, spec, key, td.sums, stats);
                    if (rounds != 0)
                        return;
                    const std::vector<BranchRecord> decoded =
                        decodeArchive(path);
                    if (!(sumRecords(decoded) == td.sums)) {
                        fail(key + ": the archive decodes to other "
                                   "records than were written",
                             true);
                    }
                    checkReplay(key, decoded, spec, r.mispredictions);
                    // v2 must score the pair exactly as v1 did.
                    const std::string v1Key =
                        td.recipe.name + "/" + spec + "/v1";
                    const auto v1 = firstRound.find(v1Key);
                    if (format[1] == '2' && v1 != firstRound.end() &&
                        v1->second.mispredictions != r.mispredictions) {
                        fail(key + ": v1 and v2 archives scored "
                                   "differently",
                             true);
                    }
                });
            }
        }
    }
}

void
WorkloadRunner::runSuiteOps(RoundStats &stats)
{
    std::vector<bfbp::SuiteJob> jobs;
    std::vector<const TraceData *> jobTrace;
    for (const TraceData &td : prep.traces) {
        for (const std::string &spec : prep.spec->predictors) {
            bfbp::SuiteJob job;
            job.traceName = td.recipe.name;
            job.makeSource = [recipe = td.recipe, scale = prep.scale] {
                return bfbp::tracegen::makeSource(recipe, scale);
            };
            job.makePredictor = [spec] {
                return bfbp::createPredictor(spec);
            };
            job.options.updateDelay = prep.spec->updateDelay;
            jobs.push_back(std::move(job));
            jobTrace.push_back(&td);
        }
    }
    const bfbp::SuiteRunner runner(prep.workers);
    const Clock::time_point t0 = Clock::now();
    const std::vector<bfbp::SuiteOutcome> outcomes = runner.run(jobs);
    stats.seconds += secondsSince(t0);

    for (size_t i = 0; i < outcomes.size(); ++i) {
        const bfbp::SuiteOutcome &o = outcomes[i];
        const std::string key = jobs[i].traceName + "/" +
            prep.spec->predictors[i % prep.spec->predictors.size()];
        stats.records += jobTrace[i]->sums.records;
        operation(key, [&] {
            if (o.failed)
                throw std::runtime_error(o.error);
            settle(key, {o.result.mispredictions, o.result.condBranches,
                         o.result.instructions},
                   jobTrace[i]->sums);
        });
    }
}

void
WorkloadRunner::runBiasedOp()
{
    const std::string key = "BIASED/bf-neural";
    operation(key, [&] {
        BorrowedSource src(prep.biased, "BIASED");
        auto p = bfbp::createPredictor("bf-neural");
        const bfbp::EvalResult r = bfbp::evaluate(src, *p);
        std::unordered_map<uint64_t, uint64_t> byPc;
        auto q = bfbp::createPredictor("bf-neural");
        const ReplayResult rr = replay(prep.biased, *q, 0, nullptr, &byPc);
        uint64_t worst = 0;
        for (const auto &kv : byPc)
            worst = std::max(worst, kv.second);
        if (rr.mispredictions != r.mispredictions || worst > 1 ||
            r.mispredictions > prep.biasedStatics) {
            fail(key + ": " + std::to_string(r.mispredictions) +
                     " mispredictions over " +
                     std::to_string(prep.biasedStatics) +
                     " biased statics (replay " +
                     std::to_string(rr.mispredictions) +
                     ", worst static " + std::to_string(worst) + ")",
                 true);
        }
        if (biasedFirst.condBranches == 0)
            biasedFirst = {r.mispredictions, r.condBranches,
                           r.instructions};
        else if (biasedFirst.mispredictions != r.mispredictions)
            fail(key + ": result changed between rounds", true);
    });
}

} // namespace perfbench
