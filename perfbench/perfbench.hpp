/**
 * @file
 * Shared types of the layer-by-layer benchmark (see README.md).
 *
 * The benchmark drives the library only through its public headers:
 * tracegen generates the records, sim evaluates and archives them,
 * predictors/core supply the predictors and their components. Every
 * timing is taken here, around calls into those layers.
 */

#ifndef BFBP_PERFBENCH_PERFBENCH_HPP
#define BFBP_PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/branch.hpp"
#include "sim/evaluator.hpp"
#include "sim/trace_source.hpp"
#include "tracegen/workloads.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0;       //!< 0 = the workload's own scale.
    unsigned workers = 0;     //!< 0 = the workload's own count.
    std::string inject;       //!< "", "corrupt-archive", "wrong-count".
    std::string outDir = ".bench_build/perfbench-out";
};

/** How a workload feeds its evaluations. */
enum class Feed
{
    Memory,  //!< Records generated at set-up, held in memory.
    Archive, //!< Records replayed from v1 and v2 archive files.
    Suite,   //!< SuiteRunner jobs streaming from tracegen.
};

/** One workload's fixed definition (README.md gives the reasons). */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> traces;
    std::vector<std::string> predictors;
    double scale = 0.1;
    uint64_t updateDelay = 0;
    unsigned workers = 4; //!< Capped at the machine's core count.
    Feed feed = Feed::Memory;
    bool biasedCheck = false; //!< Run the BST-direct property check.
};

const std::vector<WorkloadSpec> &allWorkloads();

/** @throws std::invalid_argument naming the valid workloads. */
const WorkloadSpec &workloadByName(const std::string &name);

/** Record-stream summary computed by the benchmark itself, never
 *  by the library: counts plus an FNV-1a digest of every field. */
struct RecordSums
{
    uint64_t records = 0;
    uint64_t condBranches = 0;
    uint64_t instructions = 0;
    uint64_t digest = 0xcbf29ce484222325ULL;

    void add(const bfbp::BranchRecord &r);

    bool operator==(const RecordSums &) const = default;
};

RecordSums sumRecords(const std::vector<bfbp::BranchRecord> &records);

/** One trace of a workload, as set-up left it. */
struct TraceData
{
    bfbp::tracegen::TraceRecipe recipe; //!< Re-seeded copy.
    std::vector<bfbp::BranchRecord> records;
    RecordSums sums;
    std::string v1Path; //!< Archive workloads only.
    std::string v2Path;
};

/** Everything set-up produced for one workload. */
struct Prepared
{
    const WorkloadSpec *spec = nullptr;
    double scale = 0.0;
    unsigned workers = 1;
    std::vector<TraceData> traces;

    /** Completely biased stream with one BST entry per static
     *  branch (biasedCheck workloads only). */
    std::vector<bfbp::BranchRecord> biased;
    size_t biasedStatics = 0;

    std::vector<double> setupSeconds; //!< One sample per repeat.
    double tracegenSeconds = 0.0;     //!< Last repeat's generation.
};

/** Set-up is repeated this often; setup_s is the median. */
constexpr unsigned setupRepeats = 5;

/** Runs set-up setupRepeats times and keeps the last result. */
Prepared prepare(const WorkloadSpec &spec, const Options &opts);

/** Outcome of one (trace, predictor[, archive format]) evaluation. */
struct PairResult
{
    uint64_t mispredictions = 0;
    uint64_t condBranches = 0;
    uint64_t instructions = 0;

    double
    mpki() const
    {
        return instructions == 0 ? 0.0
            : 1000.0 * static_cast<double>(mispredictions) /
              static_cast<double>(instructions);
    }
};

/** Totals of one whole round of a workload's operations. */
struct RoundStats
{
    uint64_t records = 0; //!< Through evaluate(), all evaluations.
    double seconds = 0.0; //!< evaluate() wall time (suite: run()).
};

/**
 * Runs a workload's operations round by round. One operation is one
 * (trace, predictor) evaluation through evaluate() together with its
 * checks; an operation fails when the library throws or a check does
 * not hold, and a failed check also clears correct().
 */
class WorkloadRunner
{
  public:
    explicit WorkloadRunner(const Prepared &prep);

    RoundStats runRound();

    /** Whether rounds run on the calling thread alone. */
    bool singleThreaded() const { return prep.spec->feed != Feed::Suite; }

    /** Called before every operation, after it is counted, when set
     *  (runRounds moves the thread to the operation's core here). */
    std::function<void()> beforeOperation;

    uint64_t attempted() const { return attemptedOps; }
    uint64_t failed() const { return failedOps; }
    bool correct() const { return allChecksHeld; }

    /** First-round result per "trace/predictor[/format]". */
    const std::map<std::string, PairResult> &digest() const
    {
        return firstRound;
    }

    /** First-round result of the biased-stream check (zero counts
     *  when the workload has none). Not part of the digest. */
    const PairResult &biasedResult() const { return biasedFirst; }

    /** Mean MPKI over the digest (the paper's average). */
    double meanMpki() const;

    /** A check outside any operation (the traced run's layer
     *  passes): clears correct() when @p ok is false. */
    void check(bool ok, const std::string &what);

    /** Up to a few failure diagnostics. */
    const std::vector<std::string> &failures() const { return notes; }

  private:
    void runMemoryOps(RoundStats &stats);
    void runArchiveOps(RoundStats &stats);
    void runSuiteOps(RoundStats &stats);
    void runBiasedOp();

    /** Runs @p body as one operation: counts it, and counts it
     *  failed when it throws or fails a check. */
    template <typename Body>
    void operation(const std::string &key, Body &&body);

    /** evaluate() on a fresh @p spec predictor, timed into @p stats
     *  and settled against @p sums. */
    bfbp::EvalResult timedEvaluate(bfbp::TraceSource &source,
                                   const std::string &spec,
                                   const std::string &key,
                                   const RecordSums &sums,
                                   RoundStats &stats);

    /** Replays @p records on a fresh predictor and checks its wrong
     *  predictions against evaluate()'s @p mispredictions. */
    void checkReplay(const std::string &key,
                     const std::vector<bfbp::BranchRecord> &records,
                     const std::string &spec, uint64_t mispredictions);

    /** Records a pair result and checks it against the first round
     *  and the set-up sums. */
    void settle(const std::string &key, const PairResult &result,
                const RecordSums &expected);
    void fail(const std::string &what, bool check_failed);

    const Prepared &prep;
    std::map<std::string, PairResult> firstRound;
    PairResult biasedFirst;
    uint64_t rounds = 0;
    uint64_t attemptedOps = 0;
    uint64_t failedOps = 0;
    bool allChecksHeld = true;
    bool opFailed = false;
    std::vector<std::string> notes;
};

/** Runs whole rounds until @p seconds have passed (at least one) and
 *  returns each round's records/s. */
std::vector<double> runRounds(WorkloadRunner &runner, double seconds);

/** One named figure of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The traced run: per-layer metrics on the workload's own records.
 *  Writes the Perfetto JSON under opts.outDir. */
std::vector<Metric> runTraced(const Prepared &prep, const Options &opts,
                              WorkloadRunner &runner);

/** Median of @p values (copied); 0 for an empty set. */
double median(std::vector<double> values);

} // namespace perfbench

#endif // BFBP_PERFBENCH_PERFBENCH_HPP
