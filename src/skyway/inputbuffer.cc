#include "skyway/inputbuffer.hh"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "heap/objectops.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sanitize/wirecheck.hh"
#include "skyway/baddr.hh"
#include "skyway/wirecompact.hh"
#include "support/stopwatch.hh"

namespace skyway
{

namespace
{

/** Capacity of a buffer's first regular chunk when the configured
 *  chunk size is larger; later chunks double up to that size. */
constexpr std::size_t firstChunkBytes = 4 << 10;

/** Registry-backed receiver counters, resolved once per process. */
struct ReceiverMetrics
{
    obs::Counter &objectsReceived;
    obs::Counter &bytesReceived;
    obs::Counter &chunksAllocated;
    obs::Counter &oversizedChunks;
    obs::Counter &refsAbsolutized;
    obs::Counter &fieldUpdatesApplied;
    obs::Counter &zeroCopyBytes;
    obs::Counter &expandedBytes;
    obs::Counter &expandNs;

    static ReceiverMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static ReceiverMetrics m{
            r.counter("skyway.receiver.objects_received"),
            r.counter("skyway.receiver.bytes_received"),
            r.counter("skyway.receiver.chunks_allocated"),
            r.counter("skyway.receiver.oversized_chunks"),
            r.counter("skyway.receiver.refs_absolutized"),
            r.counter("skyway.receiver.field_updates_applied"),
            r.counter("skyway.receiver.zero_copy_bytes"),
            r.counter("skyway.receiver.expanded_bytes"),
            r.counter("skyway.receiver.expand_ns"),
        };
        return m;
    }
};

} // namespace

InputBuffer::InputBuffer(SkywayContext &ctx, std::size_t chunk_bytes)
    : ctx_(ctx),
      heap_(ctx.heap()),
      chunkBytes_(chunk_bytes),
      nextChunkBytes_(std::min(chunk_bytes, firstChunkBytes)),
      fmt_(ctx.heap().format())
{
    panicIf(chunk_bytes < 4 * wordSize,
            "InputBuffer: chunk size too small");
    // Pre-size the tid cache to the registry's current assignment
    // ceiling so the receive hot loop never grows the vector
    // mid-parse; ids assigned after construction (stale view) still
    // grow it lazily.
    std::int32_t max_id = ctx_.resolver().maxAssignedId();
    if (max_id >= 0)
        tidCache_.resize(static_cast<std::size_t>(max_id) + 1, nullptr);
    if (ctx_.debug().validateWire)
        validator_ = std::make_unique<sanitize::WireValidator>(
            ctx_.resolver(), sanitize::WireCheckConfig{fmt_});
}

InputBuffer::~InputBuffer()
{
    publishMetrics();
    free();
}

Klass *
InputBuffer::klassForTid(std::int32_t tid)
{
    panicIf(tid < 0, "InputBuffer: negative type id");
    auto idx = static_cast<std::size_t>(tid);
    if (idx < tidCache_.size() && tidCache_[idx])
        return tidCache_[idx];
    Klass *k = ctx_.resolver().klassForId(tid);
    if (!k)
        panic("InputBuffer: unresolvable type id " + std::to_string(tid));
    if (idx >= tidCache_.size())
        tidCache_.resize(idx + 1, nullptr);
    tidCache_[idx] = k;
    return k;
}

std::size_t
InputBuffer::recordSize(const std::uint8_t *rec, Klass *k) const
{
    if (!k->isArray())
        return k->instanceBytes();
    Word len;
    std::memcpy(&len, rec + fmt_.arrayLengthOffset(), wordSize);
    return k->arrayBytes(static_cast<std::size_t>(len));
}

void
InputBuffer::newChunk(std::size_t at_least)
{
    // Compact wire segments have arbitrary byte lengths; round the
    // capacity up so the finalize-time tail filler (and the heap
    // allocator) always see word-aligned extents.
    std::size_t cap = wordAlign(std::max(nextChunkBytes_, at_least));
    if (at_least > chunkBytes_)
        ++stats_.oversizedChunks;
    nextChunkBytes_ = std::min(2 * nextChunkBytes_, chunkBytes_);
    // Tenured allocation: input buffers live in the old generation.
    // No zeroing: the transport fills the chunk with records and
    // finalize() covers the tail with a filler before the GC can walk
    // it.
    Address base = heap_.allocateOldRaw(cap, false);
    std::size_t pin = heap_.pinOldRange(base, cap);
    chunks_.push_back(Chunk{base, cap, 0, pin});
    ++stats_.chunksAllocated;
}

void
InputBuffer::publishMetrics()
{
    ReceiverMetrics &m = ReceiverMetrics::get();
    m.objectsReceived.add(stats_.objectsReceived -
                          published_.objectsReceived);
    m.bytesReceived.add(stats_.bytesReceived -
                        published_.bytesReceived);
    m.chunksAllocated.add(stats_.chunksAllocated -
                          published_.chunksAllocated);
    m.oversizedChunks.add(stats_.oversizedChunks -
                          published_.oversizedChunks);
    m.refsAbsolutized.add(stats_.refsAbsolutized -
                          published_.refsAbsolutized);
    m.fieldUpdatesApplied.add(stats_.fieldUpdatesApplied -
                              published_.fieldUpdatesApplied);
    m.zeroCopyBytes.add(stats_.zeroCopyBytes -
                        published_.zeroCopyBytes);
    m.expandedBytes.add(stats_.expandedBytes -
                        published_.expandedBytes);
    m.expandNs.add(stats_.expandNs - published_.expandNs);
    published_ = stats_;
}

std::uint8_t *
InputBuffer::reserveChunk(std::size_t len)
{
    panicIf(finalized_, "InputBuffer: reserveChunk after finalize");
    panicIf(reserved_ != nullptr,
            "InputBuffer: a chunk reservation is already open");
    if (chunks_.empty() ||
        chunks_.back().fill + len > chunks_.back().cap)
        newChunk(len);
    Chunk &c = chunks_.back();
    reserved_ = reinterpret_cast<std::uint8_t *>(c.base + c.fill);
    reservedLen_ = len;
    return reserved_;
}

void
InputBuffer::commitChunk(std::size_t len)
{
    commitReserved(len, /*zero_copy=*/true, /*already_validated=*/false);
}

void
InputBuffer::commitReserved(std::size_t len, bool zero_copy,
                            bool already_validated)
{
    SKYWAY_SPAN("receiver.commit");
    panicIf(finalized_, "InputBuffer: commit after finalize");
    panicIf(reserved_ == nullptr,
            "InputBuffer: commit without a reservation");
    panicIf(len > reservedLen_,
            "InputBuffer: commit exceeds the reservation");
    if (validator_ && !already_validated) {
        // Fail on the validator's verdict *before* the parser touches
        // the segment: the parser assumes well-formed input (a forged
        // type id would panic deep inside the registry with no
        // context), while the validator names the fault and its
        // stream offset. The validator must also read the bytes
        // before marker words are overwritten with fillers below.
        validator_->feed(reserved_, len);
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }

    if (len >= wordSize && wire::isCompactSegment(reserved_, len)) {
        // The expander writes full-format records through the regular
        // chunk machinery — into the very region this reservation
        // covers — so the compact wire bytes are staged out first and
        // the reservation is abandoned without advancing the fill.
        // These bytes are *not* zero-copy: the wire representation is
        // not the chunk representation (stats_.expandedBytes holds
        // what the segment produced).
        scratch_.assign(reserved_, reserved_ + len);
        reserved_ = nullptr;
        reservedLen_ = 0;
        std::size_t used = expandSegment(scratch_.data(),
                                         scratch_.size());
        panicIf(used != scratch_.size(),
                "InputBuffer: trailing bytes after a compact segment");
        return;
    }

    std::size_t off = 0;
    while (off < len) {
        std::uint8_t *rec = reserved_ + off;
        Address pa = reinterpret_cast<Address>(rec);
        // Marker words delimit top-level objects; they occupy no
        // logical address space. With the segment already sitting in
        // chunk storage they are consumed and overwritten in place
        // with heap filler records, so linear chunk walks skip them.
        // A real object's mark word can never match: its reserved
        // bits are always zero.
        Word first;
        std::memcpy(&first, rec, wordSize);
        if (marker::isMarker(first)) {
            if (first == marker::topMark) {
                panicIf(off + wordSize > len,
                        "InputBuffer: truncated marker");
                // The next record is a top-level object.
                pendingRoots_.push_back(RootSpec{false, logical_});
                heap_.writeFillerAny(pa, wordSize);
                off += wordSize;
            } else if (first == marker::backRef) {
                panicIf(off + 2 * wordSize > len,
                        "InputBuffer: truncated marker");
                Word slot;
                std::memcpy(&slot, rec + wordSize, wordSize);
                pendingRoots_.push_back(RootSpec{true, slot});
                heap_.writeFillerAny(pa, 2 * wordSize);
                off += 2 * wordSize;
            } else {
                panic("InputBuffer: unknown marker word");
            }
            continue;
        }

        Word tid_word;
        std::memcpy(&tid_word, rec + offsetKlass, wordSize);
        Klass *k = klassForTid(static_cast<std::int32_t>(tid_word));
        std::size_t size = recordSize(rec, k);
        panicIf(off + size > len,
                "InputBuffer: record spans a streamed segment");

        // Extend the open logical run, or start a new one after a
        // marker or a chunk boundary broke contiguity.
        if (!runs_.empty() &&
            runs_.back().base + runs_.back().bytes == pa &&
            runs_.back().firstLogical + runs_.back().bytes == logical_)
            runs_.back().bytes += size;
        else
            runs_.push_back(Run{logical_, pa, size});

        logical_ += size;
        off += size;
        ++stats_.objectsReceived;
        stats_.bytesReceived += size;
    }

    chunks_.back().fill += len;
    if (zero_copy)
        stats_.zeroCopyBytes += len;
    reserved_ = nullptr;
    reservedLen_ = 0;
}

std::size_t
InputBuffer::itemSize(const std::uint8_t *data, std::size_t len)
{
    Word first;
    std::memcpy(&first, data, wordSize);
    if (marker::isMarker(first)) {
        if (first == marker::topMark)
            return wordSize;
        if (first == marker::backRef) {
            panicIf(len < 2 * wordSize,
                    "InputBuffer: truncated marker");
            return 2 * wordSize;
        }
        if (first == marker::compactSeg)
            return 0; // expandSegment's job, not a batchable item
        panic("InputBuffer: unknown marker word");
    }
    Word tid_word;
    std::memcpy(&tid_word, data + offsetKlass, wordSize);
    Klass *k = klassForTid(static_cast<std::int32_t>(tid_word));
    std::size_t size = recordSize(data, k);
    panicIf(size > len, "InputBuffer: record spans a streamed segment");
    return size;
}

std::size_t
InputBuffer::scanBatch(const std::uint8_t *data, std::size_t len,
                       std::size_t limit)
{
    std::size_t off = 0;
    while (off < len) {
        std::size_t size = itemSize(data + off, len - off);
        if (size == 0 || off + size > limit)
            break;
        off += size;
    }
    return off;
}

void
InputBuffer::feed(const std::uint8_t *data, std::size_t len)
{
    SKYWAY_SPAN("receiver.feed");
    panicIf(finalized_, "InputBuffer: feed after finalize");
    if (validator_) {
        validator_->feed(data, len);
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }
    // Compatibility path for byte-owning callers: split the segment
    // at item boundaries into batches that pack into regular-size
    // chunks (one memcpy per batch), then run the shared in-place
    // commit. The zero-copy path (reserveChunk/commitChunk) skips
    // this copy entirely.
    std::size_t off = 0;
    while (off < len) {
        Word lead;
        if (len - off >= wordSize) {
            std::memcpy(&lead, data + off, wordSize);
            if (lead == marker::compactSeg) {
                // Byte-owning caller: no aliasing with chunk storage,
                // expand straight from the caller's buffer. A file
                // stream may concatenate further segments after it.
                off += expandSegment(data + off, len - off);
                continue;
            }
        }
        std::size_t avail = chunks_.empty()
                                ? nextChunkBytes_
                                : chunks_.back().cap -
                                      chunks_.back().fill;
        std::size_t batch = scanBatch(data + off, len - off, avail);
        if (batch == 0) {
            // Nothing fits the current chunk; size the batch for the
            // next regular chunk (exactly one record's size when that
            // record alone exceeds it).
            std::size_t first = itemSize(data + off, len - off);
            batch = (first >= nextChunkBytes_)
                        ? first
                        : scanBatch(data + off, len - off,
                                    nextChunkBytes_);
        }
        std::uint8_t *dst = reserveChunk(batch);
        std::memcpy(dst, data + off, batch);
        commitReserved(batch, /*zero_copy=*/false,
                       /*already_validated=*/true);
        off += batch;
    }
}

std::size_t
InputBuffer::expandSegment(const std::uint8_t *data, std::size_t len)
{
    SKYWAY_SPAN("receiver.expand");
    Stopwatch sw;
    wire::ExpandHooks hooks;
    hooks.klassFor = [this](std::int32_t tid) {
        return klassForTid(tid);
    };
    hooks.onMarker = [this](bool is_back_ref, Word slot) {
        // Same bookkeeping the raw parser does for marker words,
        // minus the filler: compact markers never occupied chunk
        // space in the first place.
        if (is_back_ref)
            pendingRoots_.push_back(RootSpec{true, slot});
        else
            pendingRoots_.push_back(RootSpec{false, logical_});
    };
    hooks.place = [this](std::size_t size) -> std::uint8_t * {
        if (chunks_.empty() ||
            chunks_.back().fill + size > chunks_.back().cap)
            newChunk(size);
        Chunk &c = chunks_.back();
        Address pa = c.base + c.fill;
        if (!runs_.empty() &&
            runs_.back().base + runs_.back().bytes == pa &&
            runs_.back().firstLogical + runs_.back().bytes == logical_)
            runs_.back().bytes += size;
        else
            runs_.push_back(Run{logical_, pa, size});
        c.fill += size;
        logical_ += size;
        ++stats_.objectsReceived;
        stats_.bytesReceived += size;
        stats_.expandedBytes += size;
        return reinterpret_cast<std::uint8_t *>(pa);
    };
    std::size_t used =
        wire::expandCompactSegment(data, len, fmt_, hooks);
    stats_.expandNs += sw.elapsedNs();
    return used;
}

Address
InputBuffer::resolveRel(std::uint64_t rel) const
{
    // Find the logical run covering rel: runs are in ascending
    // firstLogical order.
    auto it = std::upper_bound(runs_.begin(), runs_.end(), rel,
                               [](std::uint64_t r, const Run &run) {
                                   return r < run.firstLogical;
                               });
    panicIf(it == runs_.begin(), "InputBuffer: bad relative address");
    --it;
    std::uint64_t off = rel - it->firstLogical;
    panicIf(off >= it->bytes,
            "InputBuffer: relative address outside any run");
    return it->base + off;
}

void
InputBuffer::absolutizeChunk(Chunk &c)
{
    Address a = c.base;
    Address end = c.base + c.fill;
    bool have_updates = !ctx_.updates().empty();

    while (a < end) {
        // Consumed markers were overwritten with fillers at commit.
        if (ManagedHeap::isFiller(a)) {
            a += ManagedHeap::fillerSize(a);
            continue;
        }
        Word tid_word = heap_.loadWord(a, offsetKlass);
        Klass *k = klassForTid(static_cast<std::int32_t>(tid_word));
        // Absolutize the type: registry view id -> local klass
        // pointer.
        heap_.storeWord(a, offsetKlass, reinterpret_cast<Word>(k));
        std::size_t size = heap_.objectSize(a);

        // Absolutize every reference slot: relative address a' maps
        // to run_base + (a' - run_first_logical).
        forEachRefSlot(heap_, a, [&](std::size_t off) {
            Word slot = heap_.loadWord(a, off);
            if (slot == 0)
                return;
            heap_.storeWord(a, off,
                            static_cast<Word>(resolveRel(slot - 1)));
            ++stats_.refsAbsolutized;
        });

        if (have_updates) {
            ctx_.updates().apply(heap_, k, a);
            ++stats_.fieldUpdatesApplied;
        }
        a += size;
    }
}

void
InputBuffer::finalize()
{
    // The absolutization scan is the receiver's only O(bytes) CPU
    // cost (paper section 4.3); its time is the span to watch.
    SKYWAY_SPAN("receiver.absolutize");
    panicIf(finalized_, "InputBuffer: finalize called twice");
    panicIf(reserved_ != nullptr,
            "InputBuffer: finalize with an open chunk reservation");
    if (validator_) {
        // Reject a corrupt stream *before* absolutization writes
        // anything into the heap.
        validator_->finish();
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }
    for (Chunk &c : chunks_)
        absolutizeChunk(c);

    // Resolve the roots noted while streaming, in write order.
    roots_.reserve(pendingRoots_.size());
    for (const RootSpec &spec : pendingRoots_) {
        if (!spec.isBackRef)
            roots_.push_back(resolveRel(spec.value));
        else if (spec.value == 0)
            roots_.push_back(nullAddr);
        else
            roots_.push_back(resolveRel(spec.value - 1));
    }
    pendingRoots_.clear();

    for (Chunk &c : chunks_) {
        // Make the unreached tail walkable, tell the card table about
        // the new old-generation pointers, and let the GC see the
        // chunk as a sequence of live objects.
        heap_.writeFillerAny(c.base + c.fill, c.cap - c.fill);
        if (c.fill > 0)
            heap_.dirtyCardRange(c.base, c.fill);
        heap_.makePinWalkable(c.pin);
    }
    finalized_ = true;
    if (ctx_.debug().checkReceivedGraph)
        auditRebuilt();
    publishMetrics();
}

void
InputBuffer::auditRebuilt() const
{
    std::unordered_set<Address> starts;
    for (const Chunk &c : chunks_) {
        Address a = c.base;
        Address end = c.base + c.fill;
        while (a < end) {
            if (ManagedHeap::isFiller(a)) {
                a += ManagedHeap::fillerSize(a);
                continue;
            }
            starts.insert(a);
            std::size_t size = heap_.objectSize(a);
            if (size == 0 || a + size > end)
                panic("SkywaySan: rebuilt object at " +
                      std::to_string(a) + " overruns its chunk");
            a += size;
        }
    }
    for (const Chunk &c : chunks_) {
        Address a = c.base;
        Address end = c.base + c.fill;
        while (a < end) {
            if (ManagedHeap::isFiller(a)) {
                a += ManagedHeap::fillerSize(a);
                continue;
            }
            Word m = heap_.markOf(a);
            if ((m & ~(mark::hashMask | mark::hashComputedBit)) != 0)
                panic("SkywaySan: rebuilt " + heap_.klassOf(a)->name() +
                      " carries non-transfer mark bits");
            forEachRefSlot(heap_, a, [&](std::size_t off) {
                Address t = heap_.loadRef(a, off);
                // A reference either stays inside this buffer's
                // rebuilt closure or was installed by a registered
                // field update, which may point anywhere in the local
                // heap.
                if (t != nullAddr && !starts.count(t) &&
                    !heap_.contains(t))
                    panic("SkywaySan: rebuilt " +
                          heap_.klassOf(a)->name() +
                          " references outside the input buffer "
                          "and the heap");
            });
            a += heap_.objectSize(a);
        }
    }
    for (Address r : roots_)
        panicIf(r != nullAddr && !starts.count(r),
                "SkywaySan: a root does not name a rebuilt object");
}

const std::vector<Address> &
InputBuffer::roots() const
{
    panicIf(!finalized_, "InputBuffer: roots() before finalize()");
    return roots_;
}

void
InputBuffer::free()
{
    if (freed_)
        return;
    for (Chunk &c : chunks_)
        heap_.unpinOldRange(c.pin);
    freed_ = true;
}

} // namespace skyway
