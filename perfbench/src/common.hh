/**
 * @file
 * Shared plumbing of the end-to-end benchmark: command-line options,
 * the result line, order statistics, and the layer probe that reads
 * the program's own counters and spans around a measured section.
 *
 * Every workload runs in one process and follows the same shape:
 * set up many times (setup_s is the fastest bring-up), run an untimed
 * and checked warm-up, compute the reference answers, then run whole
 * operations until --seconds have passed, checking every operation's
 * output outside its timed sections. With --trace 1 the run is split
 * in two equal halves, the first with span tracing off and the second
 * with it on; a LayerProbe around each operation sums the per-layer
 * metrics of the traced half, and trace.overhead compares the two
 * halves' median operation times.
 */

#ifndef SKYBENCH_COMMON_HH
#define SKYBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "heap/heap.hh"
#include "obs/span.hh"
#include "support/stopwatch.hh"

namespace skybench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** One named value of the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * What one benchmark run prints as its last line. correct is false
 * once any check failed, timed operation or warm-up alike.
 */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one operation; a failed check fails it, not the run. */
    void
    record(bool ok)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
        }
    }
};

/** Print @p r as one JSON object on its own (last) line. */
void printResult(const Result &r);

double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in (0, 100]. */
double percentile(std::vector<double> v, double p);

/** One stderr line: operation count and time percentiles. */
void describe(const char *what, const std::vector<double> &samples);

/** Seconds since @p sw started, as a double. */
inline double
seconds(const skyway::Stopwatch &sw)
{
    return static_cast<double>(sw.elapsedNs()) / 1e9;
}

/**
 * The program's process-wide counters and span totals: at one instant
 * (take()), or what a section of the run added (the difference of two
 * instants, or a sum of such differences).
 */
struct Layers
{
    std::map<std::string, double> counters;
    std::map<std::string, double> spanNs;

    static Layers take();

    double counter(const std::string &name) const;
    double spanSeconds(const std::string &name) const;

    Layers operator-(const Layers &before) const;
    Layers &operator+=(const Layers &more);
};

/** Heap bytes ever allocated, summed over @p heaps. */
double heapAllocatedBytes(const std::vector<skyway::ManagedHeap *> &heaps);

/**
 * Sums the counters, spans and heap allocation of the traced
 * operations: mark() before each operation, add() after it, both
 * outside its timed sections. Idle unless @c on (a --trace 1 run); then
 * it takes its snapshots around every operation of both halves, so
 * that trace.overhead compares operations with the same surroundings,
 * and sums only those that ran with span tracing on. Work between
 * operations (spark-tc's cluster re-bring-ups) is left out.
 */
struct LayerProbe
{
    struct Mark
    {
        Layers snap;
        double allocated = 0;
    };

    bool on = false;
    Layers layers;
    double allocatedBytes = 0;

    Mark mark(const std::vector<skyway::ManagedHeap *> &heaps) const;
    void add(const Mark &m, const std::vector<skyway::ManagedHeap *> &heaps);
};

/**
 * The per-layer values of a traced section by metric name, totals over
 * the section before emitPerLayer() divides them by the operation
 * count. Values a workload does not produce stay 0.
 */
using LayerTotals = std::map<std::string, double>;

/** The end-to-end values of one measured run (see README.md). */
struct EndToEnd
{
    double setupS = 0;
    double jobS = 0;
    double modeledJobS = 0;
    double recordsPerS = 0;
    double transferP50Us = 0;
    double goodputMbS = 0;
    double wireBytesPerRecord = 0;
    double peakHeapMb = 0;
};

void emitEndToEnd(Result &r, const EndToEnd &e);

/** One operation: its timed seconds and whether its check passed. */
struct OpOutcome
{
    double seconds;
    bool ok;
};

/**
 * Run whole operations until @p budget seconds of wall time have
 * passed (at least one); returns each operation's timed seconds.
 */
template <typename Op>
std::vector<double>
runFor(double budget, Result &r, Op &&op)
{
    skyway::Stopwatch sw;
    std::vector<double> samples;
    do {
        OpOutcome o = op();
        r.record(o.ok);
        samples.push_back(o.seconds);
    } while (seconds(sw) < budget);
    return samples;
}

/** The operation times of the two halves of a --trace 1 run. */
struct TracedRun
{
    std::vector<double> base;   // tracing off
    std::vector<double> traced; // tracing on

    double overhead() const { return median(traced) / median(base); }
};

/**
 * The first half of @p budget runs @p op with span tracing off, the
 * second with it on.
 */
template <typename Op>
TracedRun
runTraced(double budget, Result &r, Op &&op)
{
    TracedRun t;
    t.base = runFor(budget / 2, r, op);
    skyway::obs::SpanTracer::setTracingEnabled(true);
    t.traced = runFor(budget / 2, r, op);
    skyway::obs::SpanTracer::setTracingEnabled(false);
    return t;
}

/**
 * Fill the layers every workload shares from what @p probe summed of
 * the program's counters and spans (skyway sender/receiver/wirecompact,
 * net, gc) and the heaps' allocation, plus trace.overhead of @p run.
 */
void addCommonLayers(LayerTotals &t, const LayerProbe &probe,
                     const TracedRun &run);

/**
 * Append every per-layer metric of the benchmark to @p r, in a fixed
 * order, as a per-operation value over @p ops operations (ratios and
 * the set-up count are reported as they are).
 */
void emitPerLayer(Result &r, const LayerTotals &t, double ops);

/**
 * Largest heap use over a set of nodes, in MB: the larger of each
 * node's HeapStats::peakUsedBytes (which the GC samples after a
 * scavenge only) and its usedBytes() sampled at every sample() call.
 */
class PeakHeap
{
  public:
    explicit PeakHeap(std::vector<skyway::ManagedHeap *> heaps)
        : heaps_(std::move(heaps))
    {}

    void sample();
    double mb() const;

  private:
    std::vector<skyway::ManagedHeap *> heaps_;
    double peakBytes_ = 0;
};

/**
 * Fastest wall time of @p n calls of @p make, each of which brings up
 * a fresh instance into @p out (replacing, and so tearing down, the
 * previous one before the clock starts). A bring-up takes 0.03-1 ms and
 * starts threads and sockets, so scheduler and host noise dominate its
 * median; the fastest of many is the steady figure for the work itself.
 */
template <typename T, typename Make>
double
fastestSetup(int n, std::unique_ptr<T> &out, Make &&make)
{
    double best = 0;
    for (int i = 0; i < n; ++i) {
        out.reset();
        skyway::Stopwatch sw;
        out = make();
        double t = seconds(sw);
        if (i == 0 || t < best)
            best = t;
    }
    return best;
}

Result runSparkTc(const Args &args);
Result runSmallTransfer(const Args &args);
Result runTcpBulk(const Args &args);

} // namespace skybench

#endif // SKYBENCH_COMMON_HH
