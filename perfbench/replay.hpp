/**
 * @file
 * The benchmark's own replay loop, a trivial predictor and an
 * in-memory source over borrowed records.
 *
 * replay() calls predict() and update() directly, in commit order
 * under immediate update and through a FIFO as deep as the update
 * delay otherwise — the same schedule the evaluator documents
 * (EvalOptions::updateDelay), written independently so the checks
 * can compare the two. The traced run times it call by call.
 */

#ifndef BFBP_PERFBENCH_REPLAY_HPP
#define BFBP_PERFBENCH_REPLAY_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench.hpp"
#include "sim/predictor.hpp"
#include "sim/trace_source.hpp"

namespace perfbench
{

/** Summed per-call wall time of predict() and update(). */
struct CallTimes
{
    uint64_t predictNs = 0;
    uint64_t updateNs = 0;
    uint64_t predicts = 0;
    uint64_t updates = 0;
};

struct ReplayResult
{
    uint64_t condBranches = 0;
    uint64_t instructions = 0;
    uint64_t mispredictions = 0;
};

inline uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/**
 * Replays @p records through @p predictor with an update delay of
 * @p delay conditional branches. With @p times set every predict()
 * and update() call is timed on its own; with @p by_pc set the
 * mispredictions are also tallied per static branch.
 */
inline ReplayResult
replay(const std::vector<bfbp::BranchRecord> &records,
       bfbp::BranchPredictor &predictor, uint64_t delay,
       CallTimes *times = nullptr,
       std::unordered_map<uint64_t, uint64_t> *by_pc = nullptr)
{
    struct InFlight
    {
        uint64_t pc;
        uint64_t target;
        bool taken;
        bool predicted;
    };
    std::deque<InFlight> fifo;
    ReplayResult out;

    const auto commit = [&](const InFlight &b) {
        if (times == nullptr) {
            predictor.update(b.pc, b.taken, b.predicted, b.target);
            return;
        }
        const Clock::time_point t0 = Clock::now();
        predictor.update(b.pc, b.taken, b.predicted, b.target);
        times->updateNs += nsBetween(t0, Clock::now());
        ++times->updates;
    };

    for (const bfbp::BranchRecord &r : records) {
        out.instructions += r.instCount;
        if (!r.isConditional()) {
            predictor.trackOtherInst(r);
            continue;
        }
        bool predicted;
        if (times == nullptr) {
            predicted = predictor.predict(r.pc);
        } else {
            const Clock::time_point t0 = Clock::now();
            predicted = predictor.predict(r.pc);
            times->predictNs += nsBetween(t0, Clock::now());
            ++times->predicts;
        }
        ++out.condBranches;
        if (predicted != r.taken) {
            ++out.mispredictions;
            if (by_pc != nullptr)
                ++(*by_pc)[r.pc];
        }
        fifo.push_back({r.pc, r.target, r.taken, predicted});
        if (fifo.size() > delay) {
            commit(fifo.front());
            fifo.pop_front();
        }
    }
    for (const InFlight &b : fifo)
        commit(b);
    return out;
}

/** Mean cost of one back-to-back pair of clock reads, subtracted
 *  from per-call timings. */
inline double
clockPairNs()
{
    constexpr int reps = 200000;
    uint64_t total = 0;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        total += nsBetween(t0, Clock::now());
    }
    return static_cast<double>(total) / reps;
}

/** Per-call nanoseconds with the clock-read cost removed. */
inline double
perCallNs(uint64_t total_ns, uint64_t calls, double clock_ns)
{
    if (calls == 0)
        return 0.0;
    return std::max(0.0, static_cast<double>(total_ns) /
                                 static_cast<double>(calls) -
                             clock_ns);
}

/** Trivial predictor: always taken, no state. Evaluating it costs
 *  only the evaluator's own bookkeeping and the source. */
class StaticTakenPredictor final : public bfbp::BranchPredictor
{
  public:
    bool predict(uint64_t) override { return true; }
    void update(uint64_t, bool, bool, uint64_t) override {}
    std::string name() const override { return "static-taken"; }

    bfbp::StorageReport
    storage() const override
    {
        return bfbp::StorageReport("static-taken");
    }
};

/** Source over records owned elsewhere (the set-up's vectors, which
 *  outlive every round), so no evaluation copies its trace. */
class BorrowedSource final : public bfbp::TraceSource
{
  public:
    BorrowedSource(const std::vector<bfbp::BranchRecord> &recs,
                   std::string trace_name)
        : records(recs), label(std::move(trace_name))
    {
    }

    bool
    next(bfbp::BranchRecord &out) override
    {
        if (pos >= records.size())
            return false;
        out = records[pos++];
        return true;
    }

    size_t
    nextBlock(bfbp::BranchRecord *out, size_t max) override
    {
        const size_t n = std::min(max, records.size() - pos);
        std::copy_n(records.data() + pos, n, out);
        pos += n;
        return n;
    }

    std::string name() const override { return label; }

  protected:
    void resetImpl() override { pos = 0; }

  private:
    const std::vector<bfbp::BranchRecord> &records;
    std::string label;
    size_t pos = 0;
};

} // namespace perfbench

#endif // BFBP_PERFBENCH_REPLAY_HPP
