/**
 * @file
 * spark-tc: minispark TriangleCount on a LiveJournal-shaped graph,
 * three workers plus the driver, the Skyway serializer with the
 * adaptive wire encoding, the model transport with the 1 GbE and disk
 * cost models, one thread. One operation is one job. This is the
 * paper's S/D-bound Spark job: about 1.2 M two-field edge and wedge
 * records make the sender, the receiver's parse and absolutize steps
 * and the GC carry the time, while the wire is only modeled.
 */

#include <algorithm>
#include <cstdio>

#include "common.hh"
#include "minispark/apps.hh"
#include "obs/span.hh"

using namespace skyway;

namespace skybench
{

namespace
{

/** Graph size: ~103 k edges and ~1.1 M wedge records per job. */
constexpr double graphScale = 0.3;
/**
 * Bring-ups timed for setup_s. One takes ~60 us, so it takes many to
 * span the host's slow phases (see TwoNodes::setUp).
 */
constexpr int setupRepeats = 2001;
/**
 * Jobs one cluster runs before a fresh one replaces it (untimed, with
 * its own warm-up job). Each job leaves ~15-20 MB of freed input-buffer
 * chunks per worker that only a full GC reclaims; the first full GCs
 * of a worker that still holds live young objects can die with
 * "old generation full during promotion" (README.md, known faults),
 * which at this graph size happens after 12-22 jobs. Six jobs per
 * cluster (the warm-up and five measured) stay below the first full
 * GC.
 */
constexpr int jobsPerCluster = 5;

struct SparkRig
{
    ClassCatalog catalog;
    ClusterSkywayFactory factory;
    std::unique_ptr<SparkCluster> cluster;

    SparkRig()
    {
        catalog = makeStandardCatalog();
        defineSparkAppClasses(catalog);
        cluster = std::make_unique<SparkCluster>(catalog, factory);
        factory.bind(*cluster);
        cluster->driver().skyway().setWireCompactMode(
            WireCompactMode::Auto);
        for (int w = 0; w < cluster->numWorkers(); ++w)
            cluster->worker(w).skyway().setWireCompactMode(
                WireCompactMode::Auto);
    }

    std::vector<ManagedHeap *>
    heaps()
    {
        std::vector<ManagedHeap *> out{&cluster->driver().heap()};
        for (int w = 0; w < cluster->numWorkers(); ++w)
            out.push_back(&cluster->worker(w).heap());
        return out;
    }
};

/** What a correct job must report, computed apart from minispark. */
struct Reference
{
    std::uint64_t triangles = 0;
    std::uint64_t shuffledRecords = 0;
};

/**
 * Triangles: count each triangle once over the de-duplicated
 * undirected graph, with the neighbour sets oriented by vertex id.
 * Shuffled records: every input edge (duplicates included) in round
 * one, plus one wedge per pair of out-neighbours under the app's
 * (degree, id) orientation in round two.
 */
Reference
reference(const EdgeList &g)
{
    std::uint32_t n = g.numVertices;
    std::vector<std::uint32_t> degree(n, 0);
    for (auto [u, v] : g.edges) {
        ++degree[u];
        ++degree[v];
    }
    std::vector<std::vector<std::uint32_t>> byId(n), byDegree(n);
    for (auto [u, v] : g.edges) {
        byId[std::min(u, v)].push_back(std::max(u, v));
        bool uFirst = degree[u] != degree[v] ? degree[u] < degree[v]
                                             : u < v;
        byDegree[uFirst ? u : v].push_back(uFirst ? v : u);
    }
    Reference ref;
    ref.shuffledRecords = g.edges.size();
    for (auto *adj : {&byId, &byDegree}) {
        for (auto &list : *adj) {
            std::sort(list.begin(), list.end());
            list.erase(std::unique(list.begin(), list.end()), list.end());
        }
    }
    for (const auto &list : byDegree) {
        if (list.size() > 1)
            ref.shuffledRecords += list.size() * (list.size() - 1) / 2;
    }

    std::vector<std::uint8_t> mark(n, 0);
    for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t v : byId[u])
            mark[v] = 1;
        for (std::uint32_t v : byId[u])
            for (std::uint32_t w : byId[v])
                ref.triangles += mark[w];
        for (std::uint32_t v : byId[u])
            mark[v] = 0;
    }
    return ref;
}

} // namespace

Result
runSparkTc(const Args &args)
{
    Result r;
    std::unique_ptr<SparkRig> rig;
    Layers beforeSetup = Layers::take();
    double setupS = fastestSetup(
        setupRepeats, rig, [] { return std::make_unique<SparkRig>(); });
    double setupRequests =
        (Layers::take() - beforeSetup).counter("net.requests") /
        setupRepeats;

    GraphSpec spec = liveJournalShaped(graphScale);
    spec.seed = args.seed;
    EdgeList graph = generateGraph(spec);
    Reference ref = reference(graph);

    auto check = [&](const SparkAppResult &res) {
        bool ok = res.checksum == static_cast<double>(ref.triangles) &&
                  res.shuffledRecords == ref.shuffledRecords;
        if (!ok)
            std::fprintf(stderr,
                         "spark-tc: job found %.0f triangles in %llu "
                         "records, expected %llu in %llu\n",
                         res.checksum,
                         static_cast<unsigned long long>(
                             res.shuffledRecords),
                         static_cast<unsigned long long>(ref.triangles),
                         static_cast<unsigned long long>(
                             ref.shuffledRecords));
        return ok;
    };

    // Warm-up: class loads and type ids. Heap peaks only grow, so the
    // peak is read over a fixed amount of work, set-up and this job,
    // not over however many jobs the run's time allows.
    r.correct &= check(runTriangleCount(*rig->cluster, graph));
    PeakHeap peak(rig->heaps());
    peak.sample();

    std::vector<double> modeled;
    SparkAppResult last;
    PhaseBreakdown tracedTotal;
    LayerProbe probe;
    probe.on = args.trace;
    int jobsOnCluster = 0;
    auto job = [&]() -> OpOutcome {
        if (jobsOnCluster == jobsPerCluster) {
            // Untimed: a fresh cluster and its warm-up job.
            rig = std::make_unique<SparkRig>();
            r.correct &= check(runTriangleCount(*rig->cluster, graph));
            jobsOnCluster = 0;
        }
        ++jobsOnCluster;
        auto heaps = rig->heaps();
        LayerProbe::Mark mark = probe.mark(heaps);
        Stopwatch sw;
        SparkAppResult res = runTriangleCount(*rig->cluster, graph);
        double t = seconds(sw);
        probe.add(mark, heaps);
        modeled.push_back(res.average.totalNs() / 1e9);
        if (obs::SpanTracer::tracingEnabled())
            tracedTotal += res.average;
        last = res;
        return {t, check(res)};
    };

    if (!args.trace) {
        std::vector<double> jobs = runFor(args.seconds, r, job);
        EndToEnd e;
        e.setupS = setupS;
        e.jobS = median(jobs);
        e.modeledJobS = median(modeled);
        e.recordsPerS = static_cast<double>(last.shuffledRecords) / e.jobS;
        e.transferP50Us = e.jobS * 1e6;
        e.goodputMbS = static_cast<double>(last.shuffledBytes) / e.jobS / 1e6;
        e.wireBytesPerRecord = static_cast<double>(last.shuffledBytes) /
                               static_cast<double>(last.shuffledRecords);
        e.peakHeapMb = peak.mb();
        emitEndToEnd(r, e);
        describe("spark-tc", jobs);
        std::fprintf(stderr, "spark-tc: %llu records, %llu triangles per job\n",
                     static_cast<unsigned long long>(ref.shuffledRecords),
                     static_cast<unsigned long long>(ref.triangles));
        return r;
    }

    TracedRun t = runTraced(args.seconds, r, job);
    LayerTotals lt;
    addCommonLayers(lt, probe, t);
    double jobs = static_cast<double>(t.traced.size());
    lt["minispark.compute_s"] = tracedTotal.computeNs / 1e9;
    lt["minispark.ser_s"] = tracedTotal.serNs / 1e9;
    lt["minispark.deser_s"] = tracedTotal.deserNs / 1e9;
    lt["minispark.write_io_s"] = tracedTotal.writeIoNs / 1e9;
    lt["minispark.read_io_s"] = tracedTotal.readIoNs / 1e9;
    lt["minispark.shuffled_records"] =
        static_cast<double>(ref.shuffledRecords) * jobs;
    lt["sender.write_s"] = probe.layers.spanSeconds("sender.writeObject");
    lt["typereg.requests"] = setupRequests;
    emitPerLayer(r, lt, jobs);
    return r;
}

} // namespace skybench
