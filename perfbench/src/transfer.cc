#include "transfer.hh"

#include <memory>

#include "obs/span.hh"
#include "skyway/streams.hh"
#include "workloads/media.hh"

using namespace skyway;

namespace skybench
{

namespace
{

/** Run @p f, timing it into @p acc only while tracing. */
template <typename F>
void
step(double &acc, bool on, F &&f)
{
    if (!on) {
        f();
        return;
    }
    Stopwatch sw;
    f();
    acc += seconds(sw);
}

} // namespace

TwoNodes::TwoNodes(TransportKind kind)
{
    catalog = makeStandardCatalog();
    defineMediaClasses(catalog);
    net = std::make_unique<ClusterNetwork>(2, gigabitEthernet(), kind);
    sender = std::make_unique<Jvm>(catalog, *net, 0, 0);
    receiver = std::make_unique<Jvm>(catalog, *net, 1, 0);
    for (Jvm *j : {sender.get(), receiver.get()})
        j->skyway().setWireCompactMode(WireCompactMode::Auto);
    // Connection set-up belongs to bring-up: one message opens the
    // pair's pooled connection on the tcp transport.
    constexpr int helloTag = 78;
    net->send(0, 1, helloTag, {1});
    NetMessage hello;
    while (!net->pollTag(1, helloTag, hello)) {
    }
}

std::vector<ManagedHeap *>
TwoNodes::heaps()
{
    return {&sender->heap(), &receiver->heap()};
}

double
TwoNodes::setUp(TransportKind kind, std::unique_ptr<TwoNodes> &out,
                double &requests)
{
    // A model bring-up takes ~30 us, so it takes many to span the
    // host's slow phases. A tcp one takes ~0.2 ms and leaves sockets
    // in TIME_WAIT: with a thousand per run, back to back, some later
    // runs had no bring-up under 1.3 ms.
    const int repeats = kind == TransportKind::Tcp ? 301 : 3001;
    Layers before = Layers::take();
    double s = fastestSetup(repeats, out, [kind] {
        return std::make_unique<TwoNodes>(kind);
    });
    requests = (Layers::take() - before).counter("net.requests") /
               repeats;
    return s;
}

void
StepTimes::addTo(LayerTotals &t) const
{
    t["sender.write_s"] = write;
    t["flush.close_s"] = close;
    t["receiver.pump_s"] = pump;
    t["net.wait_s"] = wait;
    t["receiver.free_s"] = free;
}

OpOutcome
transferOnce(Jvm &src, Jvm &dst, ClusterNetwork &net,
             const std::vector<Address> &roots, StepTimes &steps,
             const std::function<bool(const std::vector<Address> &)> &check)
{
    bool on = obs::SpanTracer::tracingEnabled();
    std::vector<ManagedHeap *> heaps{&src.heap(), &dst.heap()};
    LayerProbe::Mark mark = steps.probe.mark(heaps);
    Stopwatch sw;
    src.skyway().shuffleStart();
    auto out = std::make_unique<SkywaySocketOutputStream>(
        src.skyway(), net, src.id(), dst.id(), transferTag);
    auto in = std::make_unique<SkywaySocketInputStream>(
        dst.skyway(), net, dst.id(), transferTag);
    for (Address root : roots)
        step(steps.write, on, [&] { out->writeObject(root); });
    step(steps.close, on, [&] { out->close(); });
    while (true) {
        std::uint64_t before = in->buffer().stats().bytesReceived;
        Stopwatch pumpSw;
        bool done = in->pump();
        if (on) {
            double t = seconds(pumpSw);
            steps.pump += t;
            if (!done && in->buffer().stats().bytesReceived == before)
                steps.wait += t;
        }
        if (done)
            break;
    }
    std::vector<Address> got;
    while (in->hasNext())
        got.push_back(in->readObject());
    double timed = seconds(sw);

    bool ok = got.size() == roots.size() && check(got);

    sw.reset();
    step(steps.free, on, [&] { in->buffer().free(); });
    in.reset();
    out.reset();
    timed += seconds(sw);
    steps.probe.add(mark, heaps);
    return {timed, ok};
}

} // namespace skybench
