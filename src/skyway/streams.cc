#include "skyway/streams.hh"

#include "skyway/wirecompact.hh"

namespace skyway
{

namespace
{

/** A wire validator when the context asks for one (debug mode). */
std::unique_ptr<sanitize::WireValidator>
makeWireValidator(SkywayContext &ctx, const ObjectFormat &wire_format)
{
    if (!ctx.debug().validateWire)
        return nullptr;
    return std::make_unique<sanitize::WireValidator>(
        ctx.resolver(), sanitize::WireCheckConfig{wire_format});
}

/** Tee flushed segments into @p v before the sink sees them. */
OutputBuffer::FlushFn
teeIntoValidator(OutputBuffer::FlushFn sink, sanitize::WireValidator *v)
{
    if (!v)
        return sink;
    return [sink = std::move(sink), v](const std::uint8_t *data,
                                       std::size_t len) {
        v->feed(data, len);
        sink(data, len);
    };
}

} // namespace

SkywayObjectOutputStream::SkywayObjectOutputStream(
    SkywayContext &ctx, OutputBuffer::FlushFn sink,
    std::size_t buffer_bytes, std::optional<ObjectFormat> target_format)
    : validator_(makeWireValidator(
          ctx, target_format.value_or(ctx.heap().format()))),
      // Stage order matters: the validator tees off the *raw* flushed
      // segment (the semantic stream), then the compaction stage may
      // rewrite what actually hits the sink. The receiver's validator
      // sees the compact wire bytes, so both encodings get checked.
      buffer_(buffer_bytes,
              teeIntoValidator(
                  compactStage(ctx,
                               target_format.value_or(
                                   ctx.heap().format()),
                               std::move(sink)),
                  validator_.get())),
      sender_(ctx, buffer_,
              target_format.value_or(ctx.heap().format()))
{
}

void
SkywayObjectOutputStream::checkWire()
{
    validator_->finish();
    if (!validator_->ok())
        panic("SkywaySan: sender wire validation failed: " +
              validator_->firstFault());
}

SkywayFileOutputStream::SkywayFileOutputStream(SkywayContext &ctx,
                                               SimDisk &disk,
                                               std::string file_name,
                                               std::size_t buffer_bytes)
    : SkywayFileOutputStream(ctx, disk, std::move(file_name),
                             buffer_bytes,
                             std::make_shared<std::uint64_t>(0))
{
}

SkywayFileOutputStream::SkywayFileOutputStream(
    SkywayContext &ctx, SimDisk &disk, std::string file_name,
    std::size_t buffer_bytes, std::shared_ptr<std::uint64_t> write_ns)
    : SkywayObjectOutputStream(
          ctx,
          [&disk, file_name, write_ns](const std::uint8_t *data,
                                       std::size_t len) {
              *write_ns += disk.appendFile(file_name, data, len);
          },
          buffer_bytes),
      writeNs_(write_ns)
{
}

SkywayFileInputStream::SkywayFileInputStream(SkywayContext &ctx,
                                             SimDisk &disk,
                                             const std::string &file_name,
                                             std::size_t chunk_bytes)
    : SkywayObjectInputStream(ctx, chunk_bytes)
{
    const auto &bytes = disk.file(file_name);
    readNs_ = disk.chargeRead(bytes.size());
    if (!bytes.empty())
        feed(bytes.data(), bytes.size());
    finish();
}

SkywaySocketOutputStream::SkywaySocketOutputStream(
    SkywayContext &ctx, ClusterNetwork &net, NodeId src, NodeId dst,
    int tag, std::size_t buffer_bytes)
    : SkywayObjectOutputStream(
          ctx,
          [&net, src, dst, tag](const std::uint8_t *data,
                                std::size_t len) {
              net.send(src, dst, tag,
                       std::vector<std::uint8_t>(data, data + len));
          },
          buffer_bytes),
      net_(net),
      src_(src),
      dst_(dst),
      tag_(tag)
{
}

void
SkywaySocketOutputStream::close()
{
    if (closed_)
        return;
    flush();
    // Zero-length message = end of stream.
    net_.send(src_, dst_, tag_, {});
    closed_ = true;
}

SkywaySocketInputStream::SkywaySocketInputStream(SkywayContext &ctx,
                                                 ClusterNetwork &net,
                                                 NodeId self, int tag,
                                                 std::size_t chunk_bytes)
    : SkywayObjectInputStream(ctx, chunk_bytes),
      net_(net),
      self_(self),
      tag_(tag)
{
}

bool
SkywaySocketInputStream::pump()
{
    if (done_)
        return true;
    while (true) {
        // Zero-copy handoff: the fabric delivers each flushed segment
        // straight into old-gen chunk storage posted by the input
        // buffer; commitChunk() then parses the records in place.
        std::ptrdiff_t n = net_.pollTagInto(
            self_, tag_, [this](std::size_t len) {
                return buffer().reserveChunk(len);
            });
        if (n < 0)
            return false;
        if (n == 0) {
            // Zero-length message = end of stream.
            finish();
            done_ = true;
            return true;
        }
        buffer().commitChunk(static_cast<std::size_t>(n));
    }
}

SkywaySerializer::SkywaySerializer(SkywayContext &ctx,
                                   std::size_t buffer_bytes,
                                   std::size_t chunk_bytes)
    : ctx_(ctx), bufferBytes_(buffer_bytes), chunkBytes_(chunk_bytes)
{
    // The adapter drives phases itself when the host system does not:
    // a phase must be open before the first writeObject.
    if (ctx_.currentSid() == 0)
        ctx_.shuffleStart();
}

void
SkywaySerializer::bindSink(ByteSink &out)
{
    if (curSink_ == &out)
        return;
    if (curSink_)
        endStream(*curSink_);
    ByteSink *sink = &out;
    wireValidator_ = makeWireValidator(ctx_, ctx_.heap().format());
    // One u32 frame per flushed segment; compaction (when on) rewrites
    // the segment before framing, and the validator audits the raw
    // bytes ahead of both.
    outBuf_ = std::make_unique<OutputBuffer>(
        bufferBytes_,
        teeIntoValidator(
            compactStage(
                ctx_, ctx_.heap().format(),
                [sink](const std::uint8_t *data, std::size_t len) {
                    sink->writeU32(static_cast<std::uint32_t>(len));
                    sink->write(data, len);
                }),
            wireValidator_.get()));
    sender_ = std::make_unique<SkywaySender>(ctx_, *outBuf_,
                                             ctx_.heap().format());
    curSink_ = &out;
}

void
SkywaySerializer::writeObject(Address root, ByteSink &out)
{
    bindSink(out);
    sender_->writeObject(root);
}

void
SkywaySerializer::endStream(ByteSink &out)
{
    if (!curSink_)
        return;
    panicIf(curSink_ != &out,
            "SkywaySerializer: endStream on a different sink");
    outBuf_->flushNow();
    sender_->publishMetrics();
    if (wireValidator_) {
        wireValidator_->finish();
        if (!wireValidator_->ok())
            panic("SkywaySan: sender wire validation failed: " +
                  wireValidator_->firstFault());
    }
    out.writeU32(0);
    // Fold this stream's stats into the running totals.
    const SkywaySendStats &s = sender_->stats();
    doneStats_.objectsCopied += s.objectsCopied;
    doneStats_.bytesCopied += s.bytesCopied;
    doneStats_.topMarks += s.topMarks;
    doneStats_.backRefs += s.backRefs;
    doneStats_.hashFallbacks += s.hashFallbacks;
    doneStats_.casRetries += s.casRetries;
    doneStats_.headerBytes += s.headerBytes;
    doneStats_.pointerBytes += s.pointerBytes;
    doneStats_.paddingBytes += s.paddingBytes;
    doneStats_.dataBytes += s.dataBytes;
    sender_.reset();
    outBuf_.reset();
    wireValidator_.reset();
    curSink_ = nullptr;
}

void
SkywaySerializer::startPhase()
{
    if (curSink_)
        endStream(*curSink_);
    ctx_.shuffleStart();
}

void
SkywaySerializer::ingest(ByteSource &in)
{
    if (inStream_)
        retired_.push_back(inStream_->releaseBuffer());
    inStream_ = std::make_unique<SkywayObjectInputStream>(ctx_,
                                                          chunkBytes_);
    while (true) {
        std::uint32_t len = in.readU32();
        if (len == 0)
            break;
        const std::uint8_t *seg = in.view(len);
        inStream_->feed(seg, len);
    }
    inStream_->finish();
}

Address
SkywaySerializer::readObject(ByteSource &in)
{
    if (!inStream_ || !inStream_->hasNext())
        ingest(in);
    return inStream_->readObject();
}

void
SkywaySerializer::freeInputBuffers()
{
    if (inStream_)
        retired_.push_back(inStream_->releaseBuffer());
    inStream_.reset();
    for (auto &buf : retired_)
        buf->free();
    retired_.clear();
}

SkywaySendStats
SkywaySerializer::sendStats() const
{
    SkywaySendStats total = doneStats_;
    if (sender_) {
        const SkywaySendStats &s = sender_->stats();
        total.objectsCopied += s.objectsCopied;
        total.bytesCopied += s.bytesCopied;
        total.topMarks += s.topMarks;
        total.backRefs += s.backRefs;
        total.hashFallbacks += s.hashFallbacks;
        total.casRetries += s.casRetries;
        total.headerBytes += s.headerBytes;
        total.pointerBytes += s.pointerBytes;
        total.paddingBytes += s.paddingBytes;
        total.dataBytes += s.dataBytes;
    }
    return total;
}

} // namespace skyway
