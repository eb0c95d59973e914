#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "skyway/inputbuffer.hh"

namespace skybench
{

namespace
{

/** JSON has no NaN or infinity; a metric that cannot be formed is 0. */
double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct LayerMetric
{
    const char *name;
    const char *unit;
    bool perOp; // divided by the operation count
};

/** The per-layer metrics, in output order (BENCHMARK.json lists the same). */
const std::vector<LayerMetric> &
perLayerMetrics()
{
    static const std::vector<LayerMetric> list = {
        {"minispark.compute_s", "s/op", true},
        {"minispark.ser_s", "s/op", true},
        {"minispark.deser_s", "s/op", true},
        {"minispark.write_io_s", "s/op", true},
        {"minispark.read_io_s", "s/op", true},
        {"minispark.shuffled_records", "count/op", true},
        {"sender.write_s", "s/op", true},
        {"sender.objects", "count/op", true},
        {"sender.top_marks", "count/op", true},
        {"sender.header_bytes", "B/op", true},
        {"sender.padding_bytes", "B/op", true},
        {"sender.pointer_bytes", "B/op", true},
        {"sender.data_bytes", "B/op", true},
        {"flush.close_s", "s/op", true},
        {"wirecompact.bytes_saved", "B/op", true},
        {"wirecompact.records", "count/op", true},
        {"receiver.pump_s", "s/op", true},
        {"receiver.commit_s", "s/op", true},
        {"receiver.absolutize_s", "s/op", true},
        {"receiver.expand_s", "s/op", true},
        {"receiver.free_s", "s/op", true},
        {"receiver.objects", "count/op", true},
        {"receiver.refs_absolutized", "count/op", true},
        {"receiver.chunks", "count/op", true},
        {"receiver.chunk_fill", "ratio", false},
        {"net.wait_s", "s/op", true},
        {"net.real_wire_s", "s/op", true},
        {"net.credit_stall_s", "s/op", true},
        {"net.epoll_wakeups", "count/op", true},
        {"net.frames_sent", "count/op", true},
        {"net.zero_copy_share", "ratio", false},
        {"net.modeled_wire_s", "s/op", true},
        {"net.bytes_sent", "B/op", true},
        {"gc.scavenges", "count/op", true},
        {"gc.full_gcs", "count/op", true},
        {"gc.pause_s", "s/op", true},
        {"gc.promoted_bytes", "B/op", true},
        {"gc.old_swept_bytes", "B/op", true},
        {"heap.allocated_mb", "MB/op", true},
        {"typereg.requests", "count", false},
        {"trace.overhead", "ratio", false},
    };
    return list;
}

} // namespace

void
printResult(const Result &r)
{
    std::string line = "{\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        std::snprintf(buf, sizeof buf, "%.17g", finite(m.value));
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void
describe(const char *what, const std::vector<double> &samples)
{
    std::fprintf(stderr,
                 "%s: %zu ops, us p10 %.1f p50 %.1f p90 %.1f p99 %.1f "
                 "max %.1f\n",
                 what, samples.size(), percentile(samples, 10) * 1e6,
                 percentile(samples, 50) * 1e6, percentile(samples, 90) * 1e6,
                 percentile(samples, 99) * 1e6,
                 percentile(samples, 100) * 1e6);
}

Layers
Layers::take()
{
    Layers s;
    for (const auto &[name, v] :
         skyway::obs::MetricsRegistry::global().snapshot().scalars)
        s.counters[name] = static_cast<double>(v);
    for (const auto &row : skyway::obs::SpanTracer::global().cumulative())
        s.spanNs[row.name] = static_cast<double>(row.totalNs);
    return s;
}

double
Layers::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double
Layers::spanSeconds(const std::string &name) const
{
    auto it = spanNs.find(name);
    return it == spanNs.end() ? 0 : it->second / 1e9;
}

Layers
Layers::operator-(const Layers &before) const
{
    Layers d;
    for (const auto &[name, v] : counters)
        d.counters[name] = v - before.counter(name);
    for (const auto &[name, v] : spanNs)
        d.spanNs[name] = v - before.spanSeconds(name) * 1e9;
    return d;
}

Layers &
Layers::operator+=(const Layers &more)
{
    for (const auto &[name, v] : more.counters)
        counters[name] += v;
    for (const auto &[name, v] : more.spanNs)
        spanNs[name] += v;
    return *this;
}

LayerProbe::Mark
LayerProbe::mark(const std::vector<skyway::ManagedHeap *> &heaps) const
{
    if (!on)
        return {};
    return {Layers::take(), heapAllocatedBytes(heaps)};
}

void
LayerProbe::add(const Mark &m,
                const std::vector<skyway::ManagedHeap *> &heaps)
{
    if (!on)
        return;
    Layers d = Layers::take() - m.snap;
    double allocated = heapAllocatedBytes(heaps) - m.allocated;
    if (!skyway::obs::SpanTracer::tracingEnabled())
        return;
    layers += d;
    allocatedBytes += allocated;
}

void
addCommonLayers(LayerTotals &t, const LayerProbe &probe,
                const TracedRun &run)
{
    const Layers &d = probe.layers;
    t["heap.allocated_mb"] = probe.allocatedBytes / 1e6;
    t["trace.overhead"] = run.overhead();
    t["sender.objects"] = d.counter("skyway.sender.objects_copied");
    t["sender.top_marks"] = d.counter("skyway.sender.top_marks");
    t["sender.header_bytes"] = d.counter("skyway.sender.header_bytes");
    t["sender.padding_bytes"] = d.counter("skyway.sender.padding_bytes");
    t["sender.pointer_bytes"] = d.counter("skyway.sender.pointer_bytes");
    t["sender.data_bytes"] = d.counter("skyway.sender.data_bytes");
    t["wirecompact.bytes_saved"] =
        d.counter("skyway.sender.compact_bytes_saved");
    t["wirecompact.records"] = d.counter("skyway.sender.compact_records");

    t["receiver.commit_s"] = d.spanSeconds("receiver.commit");
    t["receiver.absolutize_s"] = d.spanSeconds("receiver.absolutize");
    t["receiver.expand_s"] = d.spanSeconds("receiver.expand");
    t["receiver.objects"] = d.counter("skyway.receiver.objects_received");
    t["receiver.refs_absolutized"] =
        d.counter("skyway.receiver.refs_absolutized");
    double chunks = d.counter("skyway.receiver.chunks_allocated");
    t["receiver.chunks"] = chunks;
    // Capacity is counted at the regular chunk size; oversized chunks
    // (records larger than a chunk) do not occur in these workloads.
    t["receiver.chunk_fill"] = ratio(
        d.counter("skyway.receiver.bytes_received"),
        chunks * static_cast<double>(skyway::defaultInputChunkBytes));

    double payload = d.counter("net.bytes_sent");
    t["net.bytes_sent"] = payload;
    t["net.modeled_wire_s"] = d.counter("net.wire_ns") / 1e9;
    t["net.real_wire_s"] = d.counter("net.real_wire_ns") / 1e9;
    t["net.credit_stall_s"] = d.counter("net.credit_stalls_ns") / 1e9;
    t["net.epoll_wakeups"] = d.counter("net.epoll_wakeups");
    t["net.frames_sent"] = d.counter("net.frames_sent");
    t["net.zero_copy_share"] =
        ratio(d.counter("net.recv_into_bytes"), payload);

    t["gc.scavenges"] = d.counter("gc.scavenges");
    t["gc.full_gcs"] = d.counter("gc.full_gcs");
    t["gc.pause_s"] =
        d.spanSeconds("gc.scavenge") + d.spanSeconds("gc.full");
    t["gc.promoted_bytes"] = d.counter("gc.promoted_bytes");
    t["gc.old_swept_bytes"] = d.counter("gc.old_swept_bytes");
}

double
heapAllocatedBytes(const std::vector<skyway::ManagedHeap *> &heaps)
{
    double sum = 0;
    for (const skyway::ManagedHeap *h : heaps)
        sum += static_cast<double>(h->stats().bytesAllocated);
    return sum;
}

void
PeakHeap::sample()
{
    for (const skyway::ManagedHeap *h : heaps_)
        peakBytes_ = std::max(
            {peakBytes_, static_cast<double>(h->usedBytes()),
             static_cast<double>(h->stats().peakUsedBytes)});
}

double
PeakHeap::mb() const
{
    return peakBytes_ / 1e6;
}

void
emitPerLayer(Result &r, const LayerTotals &t, double ops)
{
    for (const LayerMetric &m : perLayerMetrics()) {
        auto it = t.find(m.name);
        double v = it == t.end() ? 0 : it->second;
        r.add(m.name, m.perOp ? ratio(v, ops) : v, m.unit);
    }
}

void
emitEndToEnd(Result &r, const EndToEnd &e)
{
    r.add("setup_s", e.setupS, "s");
    r.add("job_s", e.jobS, "s");
    r.add("modeled_job_s", e.modeledJobS, "s");
    r.add("records_per_s", e.recordsPerS, "records/s");
    r.add("transfer_p50_us", e.transferP50Us, "us");
    r.add("goodput_mb_s", e.goodputMbS, "MB/s");
    r.add("wire_bytes_per_record", e.wireBytesPerRecord, "B");
    r.add("peak_heap_mb", e.peakHeapMb, "MB");
}

} // namespace skybench
