#include "skyway/sender.hh"

#include <atomic>
#include <cstring>

#include "obs/metrics.hh"
#include "obs/span.hh"

namespace skyway
{

namespace
{

/** Encode a reference slot for the wire: 0 is null, else rel + 1. */
constexpr Word
encodeSlot(std::uint64_t rel)
{
    return rel + 1;
}

/** Registry-backed sender counters, resolved once per process. */
struct SenderMetrics
{
    obs::Counter &objectsCopied;
    obs::Counter &bytesCopied;
    obs::Counter &topMarks;
    obs::Counter &backRefs;
    obs::Counter &hashFallbacks;
    obs::Counter &casRetries;
    obs::Counter &headerBytes;
    obs::Counter &pointerBytes;
    obs::Counter &paddingBytes;
    obs::Counter &dataBytes;

    static SenderMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static SenderMetrics m{
            r.counter("skyway.sender.objects_copied"),
            r.counter("skyway.sender.bytes_copied"),
            r.counter("skyway.sender.top_marks"),
            r.counter("skyway.sender.back_refs"),
            r.counter("skyway.sender.hash_fallbacks"),
            r.counter("skyway.sender.cas_retries"),
            r.counter("skyway.sender.header_bytes"),
            r.counter("skyway.sender.pointer_bytes"),
            r.counter("skyway.sender.padding_bytes"),
            r.counter("skyway.sender.data_bytes"),
        };
        return m;
    }
};

} // namespace

SkywaySender::SkywaySender(SkywayContext &ctx, OutputBuffer &ob,
                           ObjectFormat target_format)
    : ctx_(ctx),
      heap_(ctx.heap()),
      ob_(ob),
      tid_(ctx.allocateStreamId()),
      srcFmt_(ctx.heap().format()),
      dstFmt_(target_format),
      headerDelta_(static_cast<std::ptrdiff_t>(srcFmt_.headerBytes()) -
                   static_cast<std::ptrdiff_t>(dstFmt_.headerBytes()))
{
    panicIf(!srcFmt_.hasBaddr,
            "SkywaySender: sending requires the Skyway object layout "
            "(baddr header word)");
}

Word
SkywaySender::loadBaddr(Address o)
{
    std::atomic_ref<Word> ref(
        *reinterpret_cast<Word *>(o + offsetBaddr));
    return ref.load(std::memory_order_acquire);
}

bool
SkywaySender::casBaddr(Address o, Word &expected, Word desired)
{
    std::atomic_ref<Word> ref(
        *reinterpret_cast<Word *>(o + offsetBaddr));
    return ref.compare_exchange_strong(expected, desired,
                                       std::memory_order_acq_rel);
}

std::size_t
SkywaySender::sizeInTarget(Address s, const Klass *k) const
{
    std::size_t src_size =
        k->isArray()
            ? k->arrayBytes(static_cast<std::size_t>(
                  heap_.arrayLength(s)))
            : k->instanceBytes();
    return static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(src_size) - headerDelta_);
}

bool
SkywaySender::lookupVisited(Address o, std::uint64_t &rel)
{
    Word v = loadBaddr(o);
    if (baddr::sidOf(v) == sid_) {
        if (baddr::tidOf(v) == tid_) {
            rel = baddr::relOf(v);
            return true;
        }
        auto it = fallback_.find(o);
        if (it != fallback_.end()) {
            rel = it->second;
            return true;
        }
    }
    return false;
}

std::uint64_t
SkywaySender::relForChild(Address o)
{
    const Klass *k = heap_.klassOf(o);
    std::size_t size = sizeInTarget(o, k);

    Word v = loadBaddr(o);
    while (true) {
        if (baddr::sidOf(v) != sid_) {
            // Unvisited this phase: try to claim it for this stream.
            std::uint64_t new_addr = ob_.allocableAddr();
            panicIf(new_addr > baddr::maxRel,
                    "SkywaySender: output stream exceeds 1 TB");
            Word desired = baddr::compose(sid_, tid_, new_addr);
            if (casBaddr(o, v, desired)) {
                ob_.claim(size);
                gray_.push_back(GrayItem{o, new_addr});
                return new_addr;
            }
            // v was refreshed by the failed CAS; re-examine.
            ++stats_.casRetries;
            continue;
        }
        if (baddr::tidOf(v) == tid_)
            return baddr::relOf(v);

        // Claimed by another stream this phase: fall back to the
        // stream-local hash table and duplicate the object into this
        // buffer.
        auto it = fallback_.find(o);
        if (it != fallback_.end())
            return it->second;
        ++stats_.hashFallbacks;
        std::uint64_t new_addr = ob_.claim(size);
        fallback_.emplace(o, new_addr);
        gray_.push_back(GrayItem{o, new_addr});
        return new_addr;
    }
}

void
SkywaySender::emitTopMark()
{
    Word w = marker::topMark;
    ob_.writeMarker(&w, 1);
    ++stats_.topMarks;
}

void
SkywaySender::emitBackRef(Word slot_value)
{
    Word words[2] = {marker::backRef, slot_value};
    ob_.writeMarker(words, 2);
    ++stats_.backRefs;
}

void
SkywaySender::writeRecord(Address s, std::uint64_t addr)
{
    Klass *k = heap_.klassOf(s);
    std::size_t size = sizeInTarget(s, k);
    // Algorithm 2 line 10: the record lands at addr - flushedBytes in
    // the physical buffer; OutputBuffer::writeAt performs that
    // subtraction and flushes first when the record does not fit.
    std::uint8_t *dst = ob_.writeAt(addr, size);

    // Header: reset GC/lock bits but keep the cached hashcode; klass
    // word becomes the global type id; baddr is cleared.
    Word m = mark::resetForTransfer(heap_.markOf(s));
    std::memcpy(dst + offsetMark, &m, wordSize);
    Word tid_word = static_cast<Word>(
        static_cast<std::uint32_t>(ctx_.tidFor(k)));
    std::memcpy(dst + offsetKlass, &tid_word, wordSize);
    if (dstFmt_.hasBaddr) {
        Word zero = 0;
        std::memcpy(dst + offsetBaddr, &zero, wordSize);
    }

    std::size_t header_accounted = dstFmt_.headerBytes();
    std::size_t pointer_bytes = 0;
    std::size_t data_bytes = 0;

    if (k->isArray()) {
        auto n = static_cast<std::size_t>(heap_.arrayLength(s));
        Word len_word = static_cast<Word>(n);
        std::memcpy(dst + dstFmt_.arrayLengthOffset(), &len_word,
                    wordSize);
        header_accounted += wordSize;
        std::size_t payload = n * k->elemSize();
        // The object is transferred as a whole: one block copy of the
        // element payload, no per-element access.
        std::memcpy(dst + dstFmt_.arrayHeaderBytes(),
                    reinterpret_cast<const void *>(
                        s + srcFmt_.arrayHeaderBytes()),
                    payload);
        if (k->elemType() == FieldType::Ref) {
            for (std::size_t i = 0; i < n; ++i) {
                Address o = heap_.loadRef(
                    s, srcFmt_.arrayHeaderBytes() + i * wordSize);
                Word slot = o == nullAddr ? 0
                                          : encodeSlot(relForChild(o));
                std::memcpy(dst + dstFmt_.arrayHeaderBytes() +
                                i * wordSize,
                            &slot, wordSize);
            }
            pointer_bytes = payload;
        } else {
            data_bytes = payload;
        }
    } else {
        // Whole-object payload copy, then relativize reference slots
        // in the clone (never in the live object).
        std::size_t payload = size - dstFmt_.headerBytes();
        std::memcpy(dst + dstFmt_.headerBytes(),
                    reinterpret_cast<const void *>(
                        s + srcFmt_.headerBytes()),
                    payload);
        for (std::uint32_t off : k->refOffsets()) {
            Address o = heap_.loadRef(s, off);
            Word slot = o == nullAddr ? 0 : encodeSlot(relForChild(o));
            std::memcpy(dst + off - headerDelta_, &slot, wordSize);
            pointer_bytes += wordSize;
        }
        data_bytes = k->primitiveDataBytes();
    }

    ++stats_.objectsCopied;
    stats_.bytesCopied += size;
    stats_.headerBytes += header_accounted;
    stats_.pointerBytes += pointer_bytes;
    std::size_t padding =
        size - header_accounted - pointer_bytes - data_bytes;
    stats_.paddingBytes += padding;
    stats_.dataBytes += data_bytes;
}

void
SkywaySender::publishMetrics()
{
    SenderMetrics &m = SenderMetrics::get();
    m.objectsCopied.add(stats_.objectsCopied -
                        published_.objectsCopied);
    m.bytesCopied.add(stats_.bytesCopied - published_.bytesCopied);
    m.topMarks.add(stats_.topMarks - published_.topMarks);
    m.backRefs.add(stats_.backRefs - published_.backRefs);
    m.hashFallbacks.add(stats_.hashFallbacks -
                        published_.hashFallbacks);
    m.casRetries.add(stats_.casRetries - published_.casRetries);
    m.headerBytes.add(stats_.headerBytes - published_.headerBytes);
    m.pointerBytes.add(stats_.pointerBytes - published_.pointerBytes);
    m.paddingBytes.add(stats_.paddingBytes - published_.paddingBytes);
    m.dataBytes.add(stats_.dataBytes - published_.dataBytes);
    published_ = stats_;
}

void
SkywaySender::drain()
{
    // FIFO over a vector that keeps its capacity across writeObject
    // calls (a deque frees and reallocates a block every few dozen
    // items). The consumed prefix is dropped once it is at least half
    // of the vector, so a long chain stays a short queue.
    std::size_t head = 0;
    while (head < gray_.size()) {
        GrayItem item = gray_[head++];
        writeRecord(item.obj, item.addr);
        if (head >= 1024 && 2 * head >= gray_.size()) {
            gray_.erase(gray_.begin(),
                        gray_.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
    }
    gray_.clear();
}

void
SkywaySender::writeObject(Address root)
{
    SKYWAY_SPAN("sender.writeObject");

    std::uint8_t cur = ctx_.currentSid();
    if (cur != sid_) {
        // A new shuffle phase began (shuffleStart, or a stream-id
        // wrap): every fallback entry names a buffer position claimed
        // under the old phase and must not be reused.
        fallback_.clear();
        sid_ = cur;
    }
    panicIf(sid_ == 0,
            "SkywaySender: call shuffleStart() before the first "
            "transfer of a phase");

    if (root == nullAddr) {
        emitBackRef(0);
        return;
    }

    std::uint64_t rel;
    if (lookupVisited(root, rel)) {
        // Already copied in this phase: a backward reference to its
        // location in the buffer (Algorithm 2 lines 29-30).
        emitBackRef(encodeSlot(rel));
        return;
    }

    emitTopMark();
    relForChild(root);
    drain();
}

} // namespace skyway
