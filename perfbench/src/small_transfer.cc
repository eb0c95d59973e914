/**
 * @file
 * small-transfer: a closed loop with one caller. Each operation opens
 * a socket stream pair from node 0 to node 1 over the model transport,
 * ships one JSBS MediaContent graph (the paper's Figure 7 data, about
 * 1.5 KB in 10 objects), closes, pumps, reads the graph back and
 * frees the buffer. The per-transfer cost dominates here: phase start,
 * stream set-up, chunk reservation, framing, finalize and, with the
 * adaptive wire encoding, expanding the compact segment.
 */

#include <cstdio>

#include "common.hh"
#include "graphcheck.hh"
#include "transfer.hh"
#include "workloads/media.hh"

using namespace skyway;

namespace skybench
{

namespace
{

/**
 * Distinct graphs cycled through. Not a multiple of 255, so a graph's
 * next transfer never lands on the phase id its header still carries
 * from its previous one.
 */
constexpr std::size_t poolSize = 64;
constexpr std::size_t warmupTransfers = 8 * poolSize;

} // namespace

Result
runSmallTransfer(const Args &args)
{
    Result r;
    std::unique_ptr<TwoNodes> nodes;
    double setupRequests = 0;
    double setupS = TwoNodes::setUp(TransportKind::Model, nodes,
                                    setupRequests);

    Jvm &src = *nodes->sender;
    Jvm &dst = *nodes->receiver;
    ClusterNetwork &net = *nodes->net;

    // The inputs: a pool of graphs drawn from the seed, every object
    // carrying a cached identity hash the copy must keep.
    LocalRoots pool(src.heap());
    Rng rng(args.seed);
    for (std::size_t i = 0; i < poolSize; ++i) {
        LocalRoots parts(src.heap());
        std::size_t root = makeMediaContent(src, parts, rng);
        pool.push(parts.get(root));
        hashWholeGraph(src.heap(), pool.get(i));
    }

    StepTimes steps;
    steps.probe.on = args.trace;
    std::size_t next = 0;
    auto transfer = [&]() -> OpOutcome {
        std::size_t i = next++ % poolSize;
        Address sent = pool.get(i);
        return transferOnce(
            src, dst, net, {sent}, steps,
            [&](const std::vector<Address> &got) {
                std::string why;
                if (sameGraph(src.heap(), sent, dst.heap(), got[0], why))
                    return true;
                std::fprintf(stderr, "small-transfer: graph %zu: %s\n", i,
                             why.c_str());
                return false;
            });
    };
    // Warm-up, untimed. Heap peaks only grow, so the peak is read over
    // a fixed amount of work, set-up and these transfers, not over
    // however many transfers the run's time allows.
    PeakHeap peak(nodes->heaps());
    for (std::size_t i = 0; i < warmupTransfers; ++i) {
        r.correct &= transfer().ok;
        peak.sample();
    }

    std::uint64_t bytesBefore = net.bytesSent(0, 1);
    std::uint64_t wireNsBefore = net.wireNs(0);
    if (!args.trace) {
        std::vector<double> t = runFor(args.seconds, r, transfer);
        double ops = static_cast<double>(t.size());
        EndToEnd e;
        e.setupS = setupS;
        e.jobS = median(t);
        e.modeledJobS =
            e.jobS + static_cast<double>(net.wireNs(0) - wireNsBefore) /
                         1e9 / ops;
        e.recordsPerS = 1 / e.jobS;
        e.transferP50Us = e.jobS * 1e6;
        e.wireBytesPerRecord =
            static_cast<double>(net.bytesSent(0, 1) - bytesBefore) / ops;
        e.goodputMbS = e.wireBytesPerRecord * e.recordsPerS / 1e6;
        e.peakHeapMb = peak.mb();
        emitEndToEnd(r, e);
        describe("small-transfer", t);
        return r;
    }

    TracedRun t = runTraced(args.seconds, r, transfer);
    LayerTotals lt;
    addCommonLayers(lt, steps.probe, t);
    steps.addTo(lt);
    lt["typereg.requests"] = setupRequests;
    emitPerLayer(r, lt, static_cast<double>(t.traced.size()));
    return r;
}

} // namespace skybench
