/**
 * @file
 * tcp-bulk: node 0 sends and node 1 receives over real loopback TCP
 * (two event-loop threads plus the main thread). Each operation is one
 * round of eight 64 KiB double[] records through the socket streams,
 * which pollTagInto delivers straight into input-buffer chunks.
 * Skyway's work per record is one copy, so the TCP data plane sets the
 * rate: event loop, credit, parking, recv-into. The same sender and
 * receiver as small-transfer, with a few big roots instead of many
 * small ones.
 *
 * The exchange is one-way on purpose: with both nodes sending and
 * receiving, a full GC on a node that holds live young objects dies
 * once freed input-buffer chunks fill its old generation (README.md,
 * known faults).
 */

#include <cstdio>
#include <cstring>

#include "common.hh"
#include "heap/objectops.hh"
#include "support/rng.hh"
#include "transfer.hh"

using namespace skyway;

namespace skybench
{

namespace
{

constexpr std::size_t arraysPerRound = 8;
constexpr std::size_t elemsPerArray = 8192; // 64 KiB of doubles
constexpr double payloadPerRound =
    arraysPerRound * elemsPerArray * sizeof(double);
/**
 * Distinct rounds cycled through, built before timing starts so that
 * one round follows the last with no generator work between them. Not
 * a multiple of 255 (see small_transfer.cc).
 */
constexpr std::size_t poolRounds = 16;
constexpr int warmupRounds = 64;

/** Element @p j of array @p k of round @p round: in [1, 2), no zeros. */
double
elementValue(std::uint64_t seed, std::uint64_t round, std::uint64_t k,
             std::uint64_t j)
{
    std::uint64_t st = seed * 0x9e3779b97f4a7c15ull ^ round << 24 ^
                       k << 16 ^ j;
    return 1.0 + static_cast<double>(splitmix64(st) >> 11) * 0x1.0p-53;
}

} // namespace

Result
runTcpBulk(const Args &args)
{
    Result r;
    std::unique_ptr<TwoNodes> nodes;
    double setupRequests = 0;
    double setupS =
        TwoNodes::setUp(TransportKind::Tcp, nodes, setupRequests);

    Jvm &src = *nodes->sender;
    Jvm &dst = *nodes->receiver;
    ClusterNetwork &net = *nodes->net;
    Klass *doubles = src.klasses().arrayOfPrimitive(FieldType::Double);
    const std::string doublesName = doubles->name();

    // The inputs, and the generator's values kept apart from the heap
    // for the checks.
    std::vector<std::vector<double>> expected(poolRounds * arraysPerRound);
    LocalRoots pool(src.heap());
    for (std::size_t rd = 0; rd < poolRounds; ++rd) {
        for (std::size_t k = 0; k < arraysPerRound; ++k) {
            std::vector<double> &want = expected[rd * arraysPerRound + k];
            for (std::size_t j = 0; j < elemsPerArray; ++j)
                want.push_back(elementValue(args.seed, rd, k, j));
            Address a = src.heap().allocateArray(doubles, elemsPerArray);
            for (std::size_t j = 0; j < elemsPerArray; ++j)
                array::set<double>(src.heap(), a, j, want[j]);
            pool.push(a);
        }
    }

    StepTimes steps;
    steps.probe.on = args.trace;
    std::uint64_t next = 0;
    auto transfer = [&]() -> OpOutcome {
        std::size_t rd = next++ % poolRounds;
        std::vector<Address> roots;
        for (std::size_t k = 0; k < arraysPerRound; ++k)
            roots.push_back(pool.get(rd * arraysPerRound + k));

        std::uint64_t recvBefore = net.recvIntoBytes();
        std::uint64_t sentBefore = net.bytesSent(0, 1);
        return transferOnce(
            src, dst, net, roots, steps,
            [&](const std::vector<Address> &got) {
                const ManagedHeap &h = dst.heap();
                for (std::size_t k = 0; k < got.size(); ++k) {
                    const std::vector<double> &want =
                        expected[rd * arraysPerRound + k];
                    const Klass *gk = h.klassOf(got[k]);
                    if (gk->name() != doublesName ||
                        h.arrayLength(got[k]) !=
                            static_cast<std::int64_t>(elemsPerArray) ||
                        std::memcmp(reinterpret_cast<const void *>(
                                        got[k] + h.arrayElemOffset(gk, 0)),
                                    want.data(),
                                    want.size() * sizeof(double)) != 0) {
                        std::fprintf(stderr,
                                     "tcp-bulk: round %zu array %zu "
                                     "differs from what was sent\n",
                                     rd, k);
                        return false;
                    }
                }
                std::uint64_t recvInto = net.recvIntoBytes() - recvBefore;
                std::uint64_t sent = net.bytesSent(0, 1) - sentBefore;
                if (recvInto != sent) {
                    std::fprintf(stderr,
                                 "tcp-bulk: round %zu: %llu of %llu "
                                 "payload bytes received in place\n",
                                 rd,
                                 static_cast<unsigned long long>(recvInto),
                                 static_cast<unsigned long long>(sent));
                    return false;
                }
                return true;
            });
    };
    // Warm-up, untimed; the heap peak is read over this fixed amount
    // of work (see small_transfer.cc).
    PeakHeap peak(nodes->heaps());
    for (int i = 0; i < warmupRounds; ++i) {
        r.correct &= transfer().ok;
        peak.sample();
    }

    std::uint64_t bytesBefore = net.bytesSent(0, 1);
    std::uint64_t wireNsBefore = net.wireNs(0);
    if (!args.trace) {
        std::vector<double> t = runFor(args.seconds, r, transfer);
        double rounds = static_cast<double>(t.size());
        EndToEnd e;
        e.setupS = setupS;
        e.jobS = median(t);
        e.modeledJobS =
            e.jobS + static_cast<double>(net.wireNs(0) - wireNsBefore) /
                         1e9 / rounds;
        e.recordsPerS = arraysPerRound / e.jobS;
        e.transferP50Us = e.jobS * 1e6;
        e.goodputMbS = payloadPerRound / e.jobS / 1e6;
        e.wireBytesPerRecord =
            static_cast<double>(net.bytesSent(0, 1) - bytesBefore) /
            (rounds * arraysPerRound);
        e.peakHeapMb = peak.mb();
        emitEndToEnd(r, e);
        describe("tcp-bulk", t);
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
