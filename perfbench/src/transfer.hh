/**
 * @file
 * One Skyway transfer between two nodes through the socket streams,
 * the operation of small-transfer and tcp-bulk: open an output and an
 * input stream, write the roots, close, pump the receiver until the
 * end of stream, read the roots back, check them (untimed), and free
 * the input buffer. With tracing on, each step is also timed on its
 * own, and the whole operation is probed, for the per-layer metrics.
 */

#ifndef SKYBENCH_TRANSFER_HH
#define SKYBENCH_TRANSFER_HH

#include <functional>
#include <memory>
#include <vector>

#include "common.hh"
#include "skyway/jvm.hh"

namespace skybench
{

/**
 * Node 0 (the driver, which sends) and node 1 (which receives) over
 * one fabric, both with the adaptive wire encoding on.
 */
struct TwoNodes
{
    skyway::ClassCatalog catalog;
    std::unique_ptr<skyway::ClusterNetwork> net;
    std::unique_ptr<skyway::Jvm> sender;
    std::unique_ptr<skyway::Jvm> receiver;

    explicit TwoNodes(skyway::TransportKind kind);

    std::vector<skyway::ManagedHeap *> heaps();

    /**
     * Bring the pair up many times into @p out; returns the fastest
     * set-up's seconds and sets @p requests to the registry round trips
     * one set-up makes.
     */
    static double setUp(skyway::TransportKind kind,
                        std::unique_ptr<TwoNodes> &out, double &requests);
};

/**
 * What the traced operations did: seconds in each stream step, and
 * the probe of each whole operation (set probe.on for a traced run).
 */
struct StepTimes
{
    double write = 0; // writeObject
    double close = 0; // flush and end-of-stream
    double pump = 0;  // every pump() call
    double wait = 0;  // pump() calls that delivered nothing
    double free = 0;  // InputBuffer::free()
    LayerProbe probe;

    void addTo(LayerTotals &t) const;
};

/** Fabric tag of the benchmark's data streams. */
constexpr int transferTag = 77;

/**
 * Ship @p roots (on @p src's heap, in order) to @p dst as one stream;
 * @p check sees the received roots before the buffer is freed and
 * returns whether they are right. The check is not timed.
 */
OpOutcome
transferOnce(skyway::Jvm &src, skyway::Jvm &dst,
             skyway::ClusterNetwork &net,
             const std::vector<skyway::Address> &roots, StepTimes &steps,
             const std::function<bool(const std::vector<skyway::Address> &)>
                 &check);

} // namespace skybench

#endif // SKYBENCH_TRANSFER_HH
