#include "miniflink/miniflink.hh"

#include <optional>

namespace skyway
{

FlinkCluster::FlinkCluster(const ClassCatalog &catalog,
                           FlinkSerMode mode, FlinkConfig config)
    : config_(config),
      mode_(mode),
      net_(std::make_unique<ClusterNetwork>(config.numWorkers + 1,
                                            config.network,
                                            config.transport)),
      breakdowns_(config.numWorkers)
{
    nodes_.push_back(
        std::make_unique<Jvm>(catalog, *net_, 0, 0, HeapConfig{}));
    for (int w = 0; w < config.numWorkers; ++w) {
        nodes_.push_back(std::make_unique<Jvm>(
            catalog, *net_, w + 1, 0, config.workerHeap));
        nodes_.back()->disk() = SimDisk(config.disk);
    }
    for (int w = 0; w < config.numWorkers; ++w)
        skywaySer_.push_back(
            std::make_unique<SkywaySerializer>(worker(w).skyway()));
}

PhaseBreakdown
FlinkCluster::averageBreakdown() const
{
    PhaseBreakdown total;
    for (const auto &b : breakdowns_)
        total += b;
    int n = config_.numWorkers;
    return PhaseBreakdown{total.computeNs / n, total.serNs / n,
                          total.writeIoNs / n, total.deserNs / n,
                          total.readIoNs / n, total.bytesLocal,
                          total.bytesRemote};
}

PhaseBreakdown
FlinkCluster::totalBreakdown() const
{
    PhaseBreakdown total;
    for (const auto &b : breakdowns_)
        total += b;
    return total;
}

void
FlinkCluster::resetBreakdowns()
{
    for (auto &b : breakdowns_)
        b = PhaseBreakdown{};
}

FlinkRowSerializer::FlinkRowSerializer(
    KlassTable &klasses, const std::string &row_class,
    const std::vector<std::string> &needed)
    : klass_(klasses.load(row_class))
{
    const auto &fields = klass_->fields();
    neededMask_.assign(fields.size(), needed.empty());
    for (const std::string &name : needed) {
        bool found = false;
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (fields[i].name == name) {
                neededMask_[i] = true;
                found = true;
            }
        }
        if (!found)
            panic("FlinkRowSerializer: no field " + name + " in " +
                  row_class);
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (neededMask_[i]) {
            lastNeeded_ = i;
            if (fields[i].type == FieldType::Ref)
                materializesRefs_ = true;
        }
    }
}

void
FlinkRowSerializer::write(Jvm &jvm, Address row, ByteSink &out) const
{
    ManagedHeap &h = jvm.heap();
    panicIf(h.klassOf(row)->name() != klass_->name(),
            "FlinkRowSerializer: wrong row class on channel");
    // Flink's RecordWriter first serializes the record into an
    // intermediate DataOutputSerializer, then copies it — with a
    // length frame — into the outgoing network buffer. The reader
    // parses non-spanning records in place, with no second copy:
    // one of the reasons Flink's deserialization is cheaper than its
    // serialization even before lazy field skipping.
    tmp_.clear();
    ByteSink &body = tmp_;
    for (const FieldDesc &f : klass_->fields()) {
        switch (f.type) {
          case FieldType::Boolean:
          case FieldType::Byte:
            body.writeU8(h.load<std::uint8_t>(row, f.offset));
            break;
          case FieldType::Char:
          case FieldType::Short:
            body.writeU16(h.load<std::uint16_t>(row, f.offset));
            break;
          case FieldType::Int:
          case FieldType::Float:
            body.writeU32(h.load<std::uint32_t>(row, f.offset));
            break;
          case FieldType::Long:
          case FieldType::Double:
            body.writeU64(h.load<std::uint64_t>(row, f.offset));
            break;
          case FieldType::Ref: {
            // Schema constraint: reference fields are strings.
            Address s = h.loadRef(row, f.offset);
            if (s == nullAddr) {
                body.writeVarU64(0);
            } else {
                ObjectBuilder builder(h, jvm.klasses());
                std::string v = builder.stringValue(s);
                body.writeVarU64(v.size() + 1);
                body.write(v.data(), v.size());
            }
            break;
          }
        }
    }
    out.writeU32(static_cast<std::uint32_t>(tmp_.bytes().size()));
    out.write(tmp_.bytes().data(), tmp_.bytes().size());
}

Address
FlinkRowSerializer::read(Jvm &jvm, ByteSource &in) const
{
    ManagedHeap &h = jvm.heap();
    // Root the row only when a needed reference field will allocate
    // mid-read; pure-primitive reads cannot trigger a collection.
    std::optional<LocalRoots> roots;
    std::size_t rrow = 0;
    Address row_raw = h.allocateInstance(klass_);
    if (materializesRefs_) {
        roots.emplace(h);
        rrow = roots->push(row_raw);
    }
    auto row = [&] {
        return materializesRefs_ ? roots->get(rrow) : row_raw;
    };

    std::uint32_t frame = in.readU32(); // record length (no spanning)
    std::size_t body_start = in.position();
    const auto &fields = klass_->fields();
    for (std::size_t i = 0; i <= lastNeeded_; ++i) {
        const FieldDesc &f = fields[i];
        bool need = neededMask_[i];
        switch (f.type) {
          case FieldType::Boolean:
          case FieldType::Byte: {
            std::uint8_t v = in.readU8();
            if (need)
                h.store<std::uint8_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Char:
          case FieldType::Short: {
            std::uint16_t v = in.readU16();
            if (need)
                h.store<std::uint16_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Int:
          case FieldType::Float: {
            std::uint32_t v = in.readU32();
            if (need)
                h.store<std::uint32_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Long:
          case FieldType::Double: {
            std::uint64_t v = in.readU64();
            if (need)
                h.store<std::uint64_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Ref: {
            std::size_t marker = in.readVarU64();
            if (marker == 0)
                break;
            std::size_t len = marker - 1;
            if (need) {
                // Materialize the string object.
                const std::uint8_t *p = in.view(len);
                ObjectBuilder builder(h, jvm.klasses());
                Address s = builder.makeString(std::string_view(
                    reinterpret_cast<const char *>(p), len));
                h.storeRef(row(), f.offset, s);
            } else {
                // Lazy: skip the bytes, never create the object.
                in.view(len);
            }
            break;
          }
        }
    }
    // Fields past the last needed one are never parsed: jump to the
    // record end through the length frame.
    in.view(frame - (in.position() - body_start));
    return row();
}

FlinkShuffle::FlinkShuffle(FlinkCluster &cluster, std::string name,
                           std::string row_class,
                           std::vector<std::string> needed)
    : cluster_(cluster),
      name_(std::move(name)),
      rowClass_(std::move(row_class))
{
    int n = cluster.numWorkers();
    buckets_.resize(n);
    counts_.assign(n, std::vector<std::uint64_t>(n, 0));
    for (int w = 0; w < n; ++w) {
        srcRoots_.push_back(
            std::make_unique<LocalRoots>(cluster.worker(w).heap()));
        buckets_[w].resize(n);
        rowSer_.push_back(std::make_unique<FlinkRowSerializer>(
            cluster.worker(w).klasses(), rowClass_, needed));
        if (cluster.mode() == FlinkSerMode::Skyway) {
            cluster.skywaySerializer(w).startPhase();
            cluster.skywaySerializer(w).releaseReceived();
        }
    }
}

std::string
FlinkShuffle::fileName(int src, int dst) const
{
    return name_ + ".s" + std::to_string(src) + ".d" +
           std::to_string(dst) + ".flink";
}

void
FlinkShuffle::add(int src, int dst, Address row)
{
    panicIf(written_, "FlinkShuffle: add after writePhase");
    std::size_t slot = srcRoots_[src]->push(row);
    buckets_[src][dst].push_back(slot);
    ++counts_[src][dst];
    ++recordsAdded_;
}

void
FlinkShuffle::writePhase()
{
    panicIf(written_, "FlinkShuffle: writePhase twice");
    written_ = true;
    int n = cluster_.numWorkers();
    bool use_skyway = cluster_.mode() == FlinkSerMode::Skyway;
    for (int src = 0; src < n; ++src) {
        Jvm &jvm = cluster_.worker(src);
        PhaseBreakdown &b = cluster_.breakdown(src);
        for (int dst = 0; dst < n; ++dst) {
            if (buckets_[src][dst].empty())
                continue;
            VectorSink sink;
            {
                ScopedTimer timer(b.serNs);
                if (use_skyway) {
                    SkywaySerializer &ser =
                        cluster_.skywaySerializer(src);
                    for (std::size_t slot : buckets_[src][dst])
                        ser.writeObject(srcRoots_[src]->get(slot),
                                        sink);
                    ser.endStream(sink);
                } else {
                    for (std::size_t slot : buckets_[src][dst])
                        rowSer_[src]->write(
                            jvm, srcRoots_[src]->get(slot), sink);
                }
            }
            bytesWritten_ += sink.bytesWritten();
            b.writeIoNs += jvm.disk().writeFile(fileName(src, dst),
                                                sink.takeBytes());
        }
        srcRoots_[src]->clear();
    }
}

std::unique_ptr<RecordBatch>
FlinkShuffle::read(int dst)
{
    panicIf(!written_, "FlinkShuffle: read before writePhase");
    int n = cluster_.numWorkers();
    Jvm &jvm = cluster_.worker(dst);
    PhaseBreakdown &b = cluster_.breakdown(dst);
    bool use_skyway = cluster_.mode() == FlinkSerMode::Skyway;
    // Skyway delivers into pinned buffers: no per-record roots.
    auto out = use_skyway
                   ? std::make_unique<RecordBatch>()
                   : std::make_unique<RecordBatch>(jvm.heap());

    for (int src = 0; src < n; ++src) {
        if (counts_[src][dst] == 0)
            continue;
        SimDisk &src_disk = cluster_.worker(src).disk();
        const auto &file = src_disk.file(fileName(src, dst));
        b.readIoNs += src_disk.chargeRead(file.size());
        std::vector<std::uint8_t> fetched;
        const std::vector<std::uint8_t> *bytes = &file;
        if (src != dst) {
            b.readIoNs +=
                cluster_.net().model().transferNs(file.size());
            b.bytesRemote += file.size();
            // The partition crosses the fabric for real (an actual
            // socket on the tcp transport).
            cluster_.net().send(src + 1, dst + 1, flinkmsg::shuffle,
                                file);
            NetMessage msg;
            while (!cluster_.net().pollTag(dst + 1, flinkmsg::shuffle,
                                           msg)) {
            }
            fetched = std::move(msg.payload);
            bytes = &fetched;
        } else {
            b.bytesLocal += file.size();
        }

        ByteSource in(*bytes);
        ScopedTimer timer(b.deserNs);
        if (use_skyway) {
            SkywaySerializer &des = cluster_.skywaySerializer(dst);
            for (std::uint64_t i = 0; i < counts_[src][dst]; ++i)
                out->push(des.readObject(in));
        } else {
            for (std::uint64_t i = 0; i < counts_[src][dst]; ++i)
                out->push(rowSer_[dst]->read(jvm, in));
        }
    }
    return out;
}

} // namespace skyway
