#include "heap/heap.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "support/rng.hh"

namespace skyway
{

namespace
{

/**
 * Process-wide heap-occupancy gauges, resolved once. They aggregate
 * across every ManagedHeap in the process (a simulated cluster), so
 * each heap publishes *deltas* against what it last reported.
 */
struct HeapGauges
{
    obs::Gauge &inUse;
    obs::Gauge &peak;

    static HeapGauges &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static HeapGauges g{
            r.gauge("skyway.heap.in_use_bytes"),
            r.gauge("skyway.heap.peak_bytes"),
        };
        return g;
    }
};

} // namespace

ManagedHeap::ManagedHeap(const HeapConfig &config) : config_(config)
{
    std::size_t young = config_.edenBytes + 2 * config_.survivorBytes;
    std::size_t total = young + config_.oldBytes + wordSize;
    // No value-initialization: every allocation path zeroes (or fully
    // overwrites) its own bytes, and the collectors only ever walk
    // allocated regions.
    arena_ = std::make_unique_for_overwrite<std::uint8_t[]>(total);

    auto base = reinterpret_cast<Address>(arena_.get());
    base = alignUp(base, wordSize);

    youngBase_ = base;
    edenBase_ = base;
    edenEnd_ = edenBase_ + config_.edenBytes;
    edenTop_ = edenBase_;
    survBase_[0] = edenEnd_;
    survEnd_[0] = survBase_[0] + config_.survivorBytes;
    survBase_[1] = survEnd_[0];
    survEnd_[1] = survBase_[1] + config_.survivorBytes;
    youngEnd_ = survEnd_[1];
    survTop_ = survBase_[0];
    survToTop_ = survBase_[1];

    oldBase_ = youngEnd_;
    oldEnd_ = oldBase_ + config_.oldBytes;
    oldTop_ = oldBase_;

    cards_.assign((config_.oldBytes + config_.cardBytes - 1) /
                      config_.cardBytes,
                  0);
}

void
ManagedHeap::initHeader(Address a, Klass *k)
{
    storeWord(a, offsetMark, mark::initial);
    storeWord(a, offsetKlass, reinterpret_cast<Word>(k));
    if (format().hasBaddr)
        storeWord(a, offsetBaddr, 0);
}

Address
ManagedHeap::allocateYoung(std::size_t bytes)
{
    bytes = wordAlign(bytes);
    if (edenTop_ + bytes > edenEnd_) {
        if (collector_) {
            collector_->scavenge();
            if (edenTop_ + bytes > edenEnd_)
                collector_->fullGc();
        }
        if (edenTop_ + bytes > edenEnd_) {
            // Outsized allocation relative to eden: fall back to the
            // old generation rather than dying, as HotSpot does for
            // humongous allocations.
            Address a = allocateOldForGc(bytes);
            if (!a)
                fatal("ManagedHeap: out of memory (young alloc of " +
                      std::to_string(bytes) + " bytes)");
            return a;
        }
    }
    Address a = edenTop_;
    edenTop_ += bytes;
    std::memset(reinterpret_cast<void *>(a), 0, bytes);
    stats_.bytesAllocated += bytes;
    return a;
}

Address
ManagedHeap::allocateInstance(Klass *k)
{
    if (k->isArray())
        panic("allocateInstance on array klass " + k->name());
    Address a = allocateYoung(k->instanceBytes());
    initHeader(a, k);
    return a;
}

Address
ManagedHeap::allocateArray(Klass *k, std::size_t length)
{
    if (!k->isArray())
        panic("allocateArray on non-array klass " + k->name());
    Address a = allocateYoung(k->arrayBytes(length));
    initHeader(a, k);
    storeWord(a, format().arrayLengthOffset(), length);
    return a;
}

Address
ManagedHeap::allocateOldRaw(std::size_t bytes, bool zero)
{
    bytes = wordAlign(bytes);
    Address a = allocateOldForGc(bytes);
    if (!a && collector_) {
        collector_->fullGc();
        a = allocateOldForGc(bytes);
    }
    if (!a)
        fatal("ManagedHeap: old generation exhausted (alloc of " +
              std::to_string(bytes) + " bytes)");
    if (zero)
        std::memset(reinterpret_cast<void *>(a), 0, bytes);
    stats_.bytesAllocated += bytes;
    // Tenured allocations (input-buffer chunks) move the occupancy
    // level in coarse steps — cheap enough to publish right away.
    publishOccupancy();
    return a;
}

Address
ManagedHeap::allocateOldForGc(std::size_t bytes)
{
    bytes = wordAlign(bytes);
    // First fit over the swept free list, then bump at the top.
    for (auto &fr : oldFree_) {
        if (fr.bytes >= bytes) {
            Address a = fr.addr;
            std::size_t rest = fr.bytes - bytes;
            if (rest >= 2 * wordSize) {
                fr.addr += bytes;
                fr.bytes = rest;
                writeFiller(fr.addr, rest);
            } else {
                // Too small to track. The caller knows only the bytes
                // it asked for, so cover a one-word remainder with a
                // filler itself: otherwise old-gen walks read it as
                // an object header.
                writeFillerAny(a + bytes, rest);
                bytes = fr.bytes;
                fr.bytes = 0;
            }
            oldUsedBytes_ += bytes;
            return a;
        }
    }
    if (oldTop_ + bytes > oldEnd_)
        return nullAddr;
    Address a = oldTop_;
    oldTop_ += bytes;
    oldUsedBytes_ += bytes;
    return a;
}

Address
ManagedHeap::allocateInSurvivorTo(std::size_t bytes)
{
    bytes = wordAlign(bytes);
    int to = 1 - fromSpace_;
    if (survToTop_ + bytes > survEnd_[to])
        return nullAddr;
    Address a = survToTop_;
    survToTop_ += bytes;
    return a;
}

void
ManagedHeap::finishScavenge()
{
    edenTop_ = edenBase_;
    fromSpace_ = 1 - fromSpace_;
    survTop_ = survToTop_;
    survToTop_ = survBase_[1 - fromSpace_];
    ++stats_.scavenges;
}

std::size_t
ManagedHeap::objectSize(Address a) const
{
    const Klass *k = klassOf(a);
    if (k->isArray())
        return k->arrayBytes(static_cast<std::size_t>(arrayLength(a)));
    return k->instanceBytes();
}

std::int32_t
ManagedHeap::identityHash(Address a)
{
    Word m = markOf(a);
    if (mark::hasHash(m))
        return mark::hashOf(m);
    std::uint64_t st = hashCounter_;
    std::int32_t h =
        static_cast<std::int32_t>(splitmix64(st) & 0x7fffffff);
    hashCounter_ = st;
    setMark(a, mark::withHash(m, h));
    return h;
}

std::size_t
ManagedHeap::addRoot(Address a)
{
    if (!freeRootSlots_.empty()) {
        std::size_t slot = freeRootSlots_.back();
        freeRootSlots_.pop_back();
        roots_[slot] = a;
        return slot;
    }
    roots_.push_back(a);
    return roots_.size() - 1;
}

void
ManagedHeap::removeRoot(std::size_t slot)
{
    roots_[slot] = nullAddr;
    freeRootSlots_.push_back(slot);
}

void
ManagedHeap::dirtyCard(Address a)
{
    panicIf(!inOld(a), "dirtyCard on non-old address");
    cards_[(a - oldBase_) / config_.cardBytes] = 1;
}

void
ManagedHeap::dirtyCardRange(Address a, std::size_t len)
{
    panicIf(!inOld(a), "dirtyCardRange on non-old address");
    std::size_t first = (a - oldBase_) / config_.cardBytes;
    std::size_t last = (a + len - 1 - oldBase_) / config_.cardBytes;
    for (std::size_t i = first; i <= last && i < cards_.size(); ++i)
        cards_[i] = 1;
}

void
ManagedHeap::resetOldFreeList()
{
    oldFree_.clear();
}

void
ManagedHeap::addOldFreeRange(Address a, std::size_t bytes)
{
    panicIf(bytes < 2 * wordSize, "free range too small to track");
    writeFiller(a, bytes);
    oldFree_.push_back({a, bytes});
}

void
ManagedHeap::writeFiller(Address a, std::size_t bytes)
{
    panicIf(bytes < 2 * wordSize, "filler too small");
    storeWord(a, 0, fillerMagic);
    storeWord(a, wordSize, bytes);
}

void
ManagedHeap::writeFillerAny(Address a, std::size_t bytes)
{
    if (bytes == 0)
        return;
    panicIf(bytes % wordSize != 0, "filler not word-aligned");
    if (bytes == wordSize) {
        storeWord(a, 0, fillerMagicOneWord);
        return;
    }
    writeFiller(a, bytes);
}

std::size_t
ManagedHeap::pinOldRange(Address a, std::size_t bytes)
{
    panicIf(!inOld(a), "pinOldRange outside old generation");
    PinnedRange pr{a, bytes, false};
    if (!freePinSlots_.empty()) {
        std::size_t slot = freePinSlots_.back();
        freePinSlots_.pop_back();
        pinned_[slot] = pr;
        return slot;
    }
    pinned_.push_back(pr);
    return pinned_.size() - 1;
}

void
ManagedHeap::makePinWalkable(std::size_t pin)
{
    pinned_[pin].walkable = true;
}

void
ManagedHeap::unpinOldRange(std::size_t pin)
{
    pinned_[pin].bytes = 0;
    pinned_[pin].addr = nullAddr;
    freePinSlots_.push_back(pin);
}

const ManagedHeap::PinnedRange *
ManagedHeap::opaquePinAt(Address a) const
{
    for (const PinnedRange &pr : pinned_) {
        if (!pr.walkable && pr.bytes && a >= pr.addr &&
            a < pr.addr + pr.bytes)
            return &pr;
    }
    return nullptr;
}

void
ManagedHeap::notePeak()
{
    stats_.peakUsedBytes = std::max(stats_.peakUsedBytes,
                                    static_cast<std::uint64_t>(usedBytes()));
    publishOccupancy();
}

void
ManagedHeap::publishOccupancy()
{
    HeapGauges &g = HeapGauges::get();
    std::uint64_t used = usedBytes();
    g.inUse.add(static_cast<std::int64_t>(used) -
                static_cast<std::int64_t>(publishedInUseBytes_));
    publishedInUseBytes_ = used;
    if (stats_.peakUsedBytes > publishedPeakBytes_) {
        g.peak.add(static_cast<std::int64_t>(stats_.peakUsedBytes -
                                             publishedPeakBytes_));
        publishedPeakBytes_ = stats_.peakUsedBytes;
    }
}

ManagedHeap::~ManagedHeap()
{
    // A destroyed node's bytes leave the cluster-wide level; its peak
    // contribution is a high-water mark and stays.
    HeapGauges::get().inUse.add(
        -static_cast<std::int64_t>(publishedInUseBytes_));
    publishedInUseBytes_ = 0;
}

} // namespace skyway
