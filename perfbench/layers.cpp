/**
 * @file
 * The traced run: times the public calls of every layer on the
 * workload's own records, records one span per evaluation or layer
 * pass (never per record) and writes them out as Perfetto JSON.
 *
 * Component timings cover a whole loop of calls with one clock pair;
 * predictor predict()/update() timings are per call, with the cost
 * of a clock pair subtracted. Each timing is printed beside the
 * deterministic work count it divides by.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

#include "core/bias_table.hpp"
#include "core/factory.hpp"
#include "core/recency_stack.hpp"
#include "core/segmented_rs.hpp"
#include "perfbench.hpp"
#include "predictors/sizing.hpp"
#include "replay.hpp"
#include "sim/evaluator.hpp"
#include "sim/suite_runner.hpp"
#include "sim/trace_io.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/tracing.hpp"
#include "util/folded_history.hpp"
#include "util/hashing.hpp"
#include "util/history_register.hpp"

namespace perfbench
{

using bfbp::BranchRecord;
using bfbp::telemetry::ScopedSpan;

namespace
{

/** The predictors every traced run replays, with their layer. */
const std::vector<std::pair<std::string, std::string>> tracedPredictors =
    {{"predictors", "tage-15"},
     {"predictors", "isl-tage-10"},
     {"predictors", "oh-snap"},
     {"core", "bf-neural"},
     {"core", "bf-isl-tage-10"}};

class Ledger
{
  public:
    void
    put(const std::string &name, double value, const std::string &unit,
        const std::string &work = "")
    {
        metrics.push_back({name, value, unit});
        std::cout << "# layer " << name << " = " << value << " " << unit;
        if (!work.empty())
            std::cout << "   [" << work << "]";
        std::cout << "\n";
    }

    std::vector<Metric> metrics;
};

double
nsPer(double seconds, uint64_t count)
{
    return count == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(count);
}

/** @p num / @p den; 0 when there was nothing to divide by. */
double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Ends of each worker thread's jobs, logged by TimedSource. */
struct JobLog
{
    std::mutex lock;
    std::vector<std::pair<std::thread::id, Clock::time_point>> ends;
};

/** Forwards to a job's source and logs when the job lets go of it,
 *  which the suite runner does right after the job's evaluation. */
class TimedSource final : public bfbp::TraceSource
{
  public:
    TimedSource(std::unique_ptr<bfbp::TraceSource> source, JobLog &log)
        : inner(std::move(source)), jobLog(log)
    {
    }

    ~TimedSource() override
    {
        const std::lock_guard<std::mutex> guard(jobLog.lock);
        jobLog.ends.emplace_back(std::this_thread::get_id(),
                                 Clock::now());
    }

    TimedSource(const TimedSource &) = delete;
    TimedSource &operator=(const TimedSource &) = delete;

    bool next(BranchRecord &out) override { return inner->next(out); }

    size_t
    nextBlock(BranchRecord *out, size_t max) override
    {
        return inner->nextBlock(out, max);
    }

    std::string name() const override { return inner->name(); }

  protected:
    void resetImpl() override { inner->reset(); }

  private:
    std::unique_ptr<bfbp::TraceSource> inner;
    JobLog &jobLog;
};

/** Conditional branches of every trace, in order. */
std::vector<BranchRecord>
conditionals(const Prepared &prep)
{
    std::vector<BranchRecord> out;
    for (const TraceData &td : prep.traces) {
        for (const BranchRecord &r : td.records) {
            if (r.isConditional())
                out.push_back(r);
        }
    }
    return out;
}

void
tracegenLayer(const Prepared &prep, Ledger &ledger)
{
    ScopedSpan span("layer", "tracegen");
    std::vector<BranchRecord> block(4096);
    uint64_t records = 0;
    const Clock::time_point t0 = Clock::now();
    for (const TraceData &td : prep.traces) {
        auto src = bfbp::tracegen::makeSource(td.recipe, prep.scale);
        while (const size_t n = src->nextBlock(block.data(), block.size()))
            records += n;
    }
    const double s = secondsSince(t0);
    ledger.put("tracegen.ns_per_record", nsPer(s, records), "ns",
               "records=" + std::to_string(records));
}

void
traceIoLayer(const Prepared &prep, const Options &opts, Ledger &ledger,
             WorkloadRunner &runner)
{
    const std::string dir = opts.outDir + "/layers";
    std::filesystem::create_directories(dir);
    for (const auto format : {bfbp::TraceFormat::V1,
                              bfbp::TraceFormat::V2}) {
        const std::string tag = format == bfbp::TraceFormat::V1 ? "v1"
                                                                : "v2";
        uint64_t records = 0;
        uint64_t bytes = 0;
        double writeS = 0.0;
        double decodeS = 0.0;
        uint64_t blocks = 0;
        for (const TraceData &td : prep.traces) {
            const std::string path =
                dir + "/" + td.recipe.name + "." + tag + ".bft";
            {
                ScopedSpan span("layer", "trace_io." + tag + ".write");
                const Clock::time_point t0 = Clock::now();
                bfbp::TraceFileWriter writer(path, format);
                for (const BranchRecord &r : td.records)
                    writer.append(r);
                writer.close();
                writeS += secondsSince(t0);
            }
            bytes += std::filesystem::file_size(path);
            std::vector<BranchRecord> decoded(td.records.size() + 1);
            size_t got = 0;
            {
                ScopedSpan span("layer", "trace_io." + tag + ".decode");
                const Clock::time_point t0 = Clock::now();
                bfbp::TraceFileSource src(path);
                blocks += src.blockCount();
                while (const size_t n = src.nextBlock(
                           decoded.data() + got,
                           std::min<size_t>(4096, decoded.size() - got)))
                    got += n;
                decodeS += secondsSince(t0);
            }
            records += got;
            decoded.resize(got);
            runner.check(sumRecords(decoded) == td.sums,
                         td.recipe.name + " " + tag +
                             " archive decodes to other records");
        }
        ledger.put("sim.trace_io." + tag + "_write_ns_per_record",
                   nsPer(writeS, records), "ns",
                   "records=" + std::to_string(records));
        ledger.put("sim.trace_io." + tag + "_decode_ns_per_record",
                   nsPer(decodeS, records), "ns",
                   "records=" + std::to_string(records) +
                       " blocks=" + std::to_string(blocks) +
                       " bytes=" + std::to_string(bytes));
        if (format == bfbp::TraceFormat::V2) {
            ledger.put("sim.trace_io.v2_bytes_per_record",
                       ratio(bytes, records), "bytes",
                       "bytes=" + std::to_string(bytes));
        }
    }
}

void
evaluatorLayer(const Prepared &prep, Ledger &ledger,
               WorkloadRunner &runner)
{
    ScopedSpan span("layer", "evaluator");
    bfbp::EvalOptions eo;
    eo.updateDelay = prep.spec->updateDelay;
    uint64_t records = 0;
    double s = 0.0;
    for (const TraceData &td : prep.traces) {
        BorrowedSource src(td.records, td.recipe.name);
        StaticTakenPredictor p;
        const Clock::time_point t0 = Clock::now();
        const bfbp::EvalResult r = bfbp::evaluate(src, p, eo);
        s += secondsSince(t0);
        records += td.sums.records;
        runner.check(r.condBranches == td.sums.condBranches &&
                         r.instructions == td.sums.instructions,
                     td.recipe.name + ": evaluator miscounted under "
                                      "the trivial predictor");
    }
    ledger.put("sim.evaluator.ns_per_record", nsPer(s, records), "ns",
               "records=" + std::to_string(records) + " delay=" +
                   std::to_string(prep.spec->updateDelay));
}

void
predictorLayer(const Prepared &prep, Ledger &ledger, double clock_ns)
{
    for (const auto &[layer, spec] : tracedPredictors) {
        ScopedSpan span("layer", layer + "." + spec);
        CallTimes times;
        bfbp::telemetry::Telemetry tel;
        uint64_t storageBits = 0;
        uint64_t mispredictions = 0;
        for (const TraceData &td : prep.traces) {
            auto p = bfbp::createPredictor(spec);
            mispredictions += replay(td.records, *p,
                                     prep.spec->updateDelay, &times)
                                  .mispredictions;
            p->emitTelemetry(tel);
            storageBits = p->storage().totalBits();
        }
        const std::string base = layer + "." + spec;
        const std::string work =
            "calls=" + std::to_string(times.predicts) +
            " mispredictions=" + std::to_string(mispredictions) +
            " storage_bits=" + std::to_string(storageBits);
        ledger.put(base + ".predict_ns",
                   perCallNs(times.predictNs, times.predicts, clock_ns),
                   "ns", work);
        ledger.put(base + ".update_ns",
                   perCallNs(times.updateNs, times.updates, clock_ns),
                   "ns", work);
        if (spec == "tage-15") {
            const uint64_t allocs = tel.counterValue("tage.alloc.success");
            ledger.put("predictors.tage.allocs_per_kbranch",
                       1000.0 * ratio(allocs, times.predicts), "count",
                       "allocs=" + std::to_string(allocs) + " fails=" +
                           std::to_string(tel.counterValue(
                               "tage.alloc.fail")));
        } else if (spec == "bf-neural") {
            const uint64_t direct =
                tel.counterValue("bf_neural.pred.bst_direct");
            const uint64_t neural = tel.counterValue("bf_neural.pred.neural");
            ledger.put("core.bf-neural.bst_direct_share",
                       ratio(direct, direct + neural), "ratio",
                       "bst_direct=" + std::to_string(direct) +
                           " neural=" + std::to_string(neural));
            const uint64_t pushes = tel.counterValue("bf_neural.rs.pushes");
            const uint64_t misses = tel.counterValue("bf_neural.rs.misses");
            ledger.put("core.bf-neural.rs_miss_share",
                       ratio(misses, pushes), "ratio",
                       "pushes=" + std::to_string(pushes) +
                           " misses=" + std::to_string(misses) +
                           " train_events=" +
                           std::to_string(tel.counterValue(
                               "bf_neural.train.events")));
        }
    }
}

void
componentLayer(const Prepared &prep, Ledger &ledger,
               WorkloadRunner &runner, double clock_ns)
{
    const std::vector<BranchRecord> cond = conditionals(prep);
    const uint64_t n = cond.size();

    // BST: the commit-time FSM transition, the call every BF
    // predictor makes once per conditional branch.
    {
        ScopedSpan span("layer", "core.bias_table");
        bfbp::BranchStatusTable bst;
        unsigned sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (const BranchRecord &r : cond)
            sink += static_cast<unsigned>(bst.train(r.pc, r.taken));
        const double s = secondsSince(t0);
        const auto &tr = bst.transitions();
        ledger.put("core.bias_table.train_ns", nsPer(s, n), "ns",
                   "calls=" + std::to_string(n) + " to_non_biased=" +
                       std::to_string(tr.toNonBiased) + " state_sum=" +
                       std::to_string(sink));
    }

    // The filtered stream the recency structures see: hashed PC,
    // outcome, commit index and bias status after the commit.
    struct Commit
    {
        uint16_t hash;
        bool taken;
        bool nonBiased;
        uint64_t now;
    };
    std::vector<Commit> commits;
    commits.reserve(n);
    {
        bfbp::BranchStatusTable bst;
        uint64_t now = 0;
        for (const BranchRecord &r : cond) {
            bst.train(r.pc, r.taken);
            commits.push_back({static_cast<uint16_t>(bfbp::hashPc(r.pc, 14)),
                               r.taken, bst.isNonBiased(r.pc), ++now});
        }
    }

    {
        ScopedSpan span("layer", "core.recency_stack");
        bfbp::RecencyStack rs(48);
        const Clock::time_point t0 = Clock::now();
        for (const Commit &c : commits) {
            if (c.nonBiased)
                rs.push(c.hash, c.taken, c.now);
        }
        const double s = secondsSince(t0);
        ledger.put("core.recency_stack.push_ns", nsPer(s, rs.pushes()),
                   "ns",
                   "pushes=" + std::to_string(rs.pushes()) + " misses=" +
                       std::to_string(rs.misses()));
    }

    {
        ScopedSpan span("layer", "core.segmented_rs.commit");
        bfbp::SegmentedRecencyStacks stacks;
        const Clock::time_point t0 = Clock::now();
        for (const Commit &c : commits)
            stacks.commit(c.hash, c.taken, c.nonBiased);
        const double s = secondsSince(t0);
        const auto &churn = stacks.churn();
        ledger.put("core.segmented_rs.commit_ns", nsPer(s, n), "ns",
                   "commits=" + std::to_string(n) + " inserts=" +
                       std::to_string(churn.inserts) + " evictions=" +
                       std::to_string(churn.evictions));
        ledger.put("core.bf_ghr.inserts_per_commit",
                   ratio(churn.inserts, n), "count",
                   "inserts=" + std::to_string(churn.inserts) +
                       " commits=" + std::to_string(n));
    }

    // BF-GHR folds at the bf-isl-tage-10 geometry: three folds per
    // table after every commit, as the predictor refreshes them.
    {
        ScopedSpan span("layer", "core.segmented_rs.fold");
        const bfbp::TageConfig geo = bfbp::bfTageConfig(10);
        bfbp::SegmentedRecencyStacks stacks;
        uint64_t foldNs = 0;
        uint64_t acc = 0;
        for (const Commit &c : commits) {
            stacks.commit(c.hash, c.taken, c.nonBiased);
            const Clock::time_point t0 = Clock::now();
            for (size_t t = 0; t < geo.numTables(); ++t) {
                const unsigned len = geo.historyLengths[t];
                acc ^= stacks.fold(len, geo.logSizes[t]) ^
                    stacks.fold(len, geo.tagBits[t]) ^
                    stacks.fold(len, std::max(1u, geo.tagBits[t] - 1));
            }
            foldNs += nsBetween(t0, Clock::now());
        }
        const uint64_t calls = n * 3 * geo.numTables();
        const double net = std::max(
            0.0, static_cast<double>(foldNs) - clock_ns * static_cast<double>(n));
        ledger.put("core.segmented_rs.fold_ns",
                   calls == 0 ? 0.0 : net / static_cast<double>(calls),
                   "ns",
                   "folds=" + std::to_string(calls) + " fold_xor=" +
                       std::to_string(acc));
    }

    // Incremental TAGE folds at the tage-15 geometry, checked at the
    // end against the naive recomputation from the full history.
    {
        ScopedSpan span("layer", "util.folded_history");
        const bfbp::TageConfig geo = bfbp::conventionalTageConfig(15);
        std::vector<bfbp::FoldedHistory> folds;
        std::vector<unsigned> outDepth;
        for (size_t t = 0; t < geo.numTables(); ++t) {
            const unsigned len = geo.historyLengths[t];
            for (const unsigned w :
                 {geo.logSizes[t], geo.tagBits[t],
                  std::max(1u, geo.tagBits[t] - 1)}) {
                folds.emplace_back(len, w);
                outDepth.push_back(len - 1);
            }
        }
        bfbp::HistoryRegister hist(4096);
        const Clock::time_point t0 = Clock::now();
        for (const BranchRecord &r : cond) {
            for (size_t f = 0; f < folds.size(); ++f)
                folds[f].update(r.taken, hist[outDepth[f]]);
            hist.push(r.taken);
        }
        const double s = secondsSince(t0);
        const uint64_t calls = n * folds.size();
        bool exact = true;
        for (const bfbp::FoldedHistory &f : folds) {
            exact = exact && f.value() == bfbp::FoldedHistory::naiveFold(
                                              hist, f.length(), f.width());
        }
        runner.check(exact, "incremental folds differ from naiveFold");
        ledger.put("util.folded_history.update_ns", nsPer(s, calls), "ns",
                   "updates=" + std::to_string(calls) + " folds=" +
                       std::to_string(folds.size()));
    }
}

void
suiteLayer(const Prepared &prep, Ledger &ledger, WorkloadRunner &runner)
{
    ScopedSpan span("layer", "suite_runner");
    JobLog log;
    std::vector<bfbp::SuiteJob> jobs;
    for (const TraceData &td : prep.traces) {
        for (const std::string &spec : prep.spec->predictors) {
            bfbp::SuiteJob job;
            job.traceName = td.recipe.name;
            if (prep.spec->feed == Feed::Suite) {
                job.makeSource = [&log, recipe = td.recipe,
                                  scale = prep.scale] {
                    return std::make_unique<TimedSource>(
                        bfbp::tracegen::makeSource(recipe, scale), log);
                };
            } else {
                job.makeSource = [&log, &td] {
                    return std::make_unique<TimedSource>(
                        std::make_unique<BorrowedSource>(td.records,
                                                         td.recipe.name),
                        log);
                };
            }
            job.makePredictor = [spec] {
                return bfbp::createPredictor(spec);
            };
            job.options.updateDelay = prep.spec->updateDelay;
            jobs.push_back(std::move(job));
        }
    }
    const bfbp::SuiteRunner suite(prep.workers);
    const Clock::time_point t0 = Clock::now();
    const std::vector<bfbp::SuiteOutcome> outcomes = suite.run(jobs);
    const Clock::time_point t1 = Clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();

    double jobSeconds = 0.0;
    std::vector<double> perPredictor(prep.spec->predictors.size(), 0.0);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const bfbp::SuiteOutcome &o = outcomes[i];
        jobSeconds += o.seconds;
        perPredictor[i % perPredictor.size()] += o.seconds;
        runner.check(!o.failed, "suite job failed: " + o.error);
    }
    std::cout << "# suite job-seconds share:";
    for (size_t k = 0; k < perPredictor.size(); ++k) {
        std::cout << " " << prep.spec->predictors[k] << "="
                  << perPredictor[k] / jobSeconds;
    }
    std::cout << "\n";
    // A worker goes idle when it ends its last job; the tail is the
    // time from the first such moment to the end of the run.
    std::vector<std::pair<std::thread::id, Clock::time_point>> lastEnd;
    for (const auto &[tid, end] : log.ends) {
        auto it = std::find_if(lastEnd.begin(), lastEnd.end(),
                               [&](const auto &e) { return e.first == tid; });
        if (it == lastEnd.end())
            lastEnd.emplace_back(tid, end);
        else
            it->second = std::max(it->second, end);
    }
    Clock::time_point firstIdle = t1;
    for (const auto &e : lastEnd)
        firstIdle = std::min(firstIdle, e.second);
    const double tail = std::chrono::duration<double>(t1 - firstIdle).count();

    const std::string work = "jobs=" + std::to_string(jobs.size()) +
        " workers=" + std::to_string(suite.workerCount()) +
        " wall_s=" + std::to_string(wall) +
        " job_s=" + std::to_string(jobSeconds);
    ledger.put("sim.suite_runner.efficiency",
               jobSeconds / (wall * suite.workerCount()), "ratio", work);
    ledger.put("sim.suite_runner.tail_s", tail, "s", work);
}

} // anonymous namespace

std::vector<Metric>
runTraced(const Prepared &prep, const Options &opts,
          WorkloadRunner &runner)
{
    Ledger ledger;
    bfbp::telemetry::TraceSession &session =
        bfbp::telemetry::TraceSession::instance();

    // Tracing overhead: whole rounds untraced, then whole rounds with
    // the session armed, a quarter of the run length each.
    const double untraced = median(runRounds(runner, opts.seconds / 4));
    session.start("perfbench " + prep.spec->name);
    session.setCurrentThreadName("main");
    const double traced = median(runRounds(runner, opts.seconds / 4));
    std::cout << "# trace untraced_records_per_s=" << untraced
              << " traced_records_per_s=" << traced << "\n";
    ledger.put("trace.records_per_s", traced, "records/s");
    ledger.put("trace.overhead_share",
               untraced > 0.0 ? 1.0 - traced / untraced : 0.0, "ratio");

    const double clockNs = clockPairNs();
    std::cout << "# clock pair cost " << clockNs << " ns\n";
    tracegenLayer(prep, ledger);
    traceIoLayer(prep, opts, ledger, runner);
    evaluatorLayer(prep, ledger, runner);
    predictorLayer(prep, ledger, clockNs);
    componentLayer(prep, ledger, runner, clockNs);
    suiteLayer(prep, ledger, runner);

    session.stop();
    const std::string path =
        opts.outDir + "/perfbench-" + prep.spec->name + ".trace.json";
    std::filesystem::create_directories(opts.outDir);
    session.writeFile(path);
    std::cout << "# perfetto trace " << path << " ("
              << session.eventCount() << " events)\n";
    return ledger.metrics;
}

} // namespace perfbench
