/**
 * @file
 * Unit tests for the managed heap: allocation, headers, identity
 * hashes, arrays, object builders, card marking, roots, graph
 * equality, and old-generation raw allocation.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "heap/heap.hh"
#include "heap/objectops.hh"

namespace skyway
{
namespace
{

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest()
    {
        defineBootstrapClasses(cat_);
        cat_.define(ClassDef{
            "Pair",
            "",
            {
                {"first", FieldType::Ref, "java.lang.Integer"},
                {"second", FieldType::Ref, "java.lang.Integer"},
            },
        });
        cat_.define(ClassDef{
            "Scalar",
            "",
            {
                {"v", FieldType::Double, ""},
            },
        });
        klasses_ = std::make_unique<KlassTable>(cat_);
        heap_ = std::make_unique<ManagedHeap>();
        builder_ =
            std::make_unique<ObjectBuilder>(*heap_, *klasses_);
    }

    ClassCatalog cat_;
    std::unique_ptr<KlassTable> klasses_;
    std::unique_ptr<ManagedHeap> heap_;
    std::unique_ptr<ObjectBuilder> builder_;
};

TEST_F(HeapTest, AllocateInstanceInitializesHeader)
{
    Klass *k = klasses_->load("Scalar");
    Address a = heap_->allocateInstance(k);
    ASSERT_NE(a, nullAddr);
    EXPECT_TRUE(heap_->inYoung(a));
    EXPECT_EQ(heap_->klassOf(a), k);
    EXPECT_EQ(heap_->markOf(a), mark::initial);
    EXPECT_EQ(heap_->loadWord(a, offsetBaddr), 0u);
    EXPECT_EQ(heap_->load<double>(a, k->requireField("v").offset), 0.0);
}

TEST_F(HeapTest, AllocationIsWordAligned)
{
    Klass *k = klasses_->load("Scalar");
    for (int i = 0; i < 10; ++i) {
        Address a = heap_->allocateInstance(k);
        EXPECT_EQ(a % wordSize, 0u);
    }
}

TEST_F(HeapTest, FieldStoreLoad)
{
    Klass *k = klasses_->load("Scalar");
    Address a = heap_->allocateInstance(k);
    field::set<double>(*heap_, a, k->requireField("v"), 6.75);
    EXPECT_EQ(field::get<double>(*heap_, a, k->requireField("v")), 6.75);
    EXPECT_EQ((reflect::getField<double>(*heap_, a, "v")), 6.75);
}

TEST_F(HeapTest, ArrayAllocationAndAccess)
{
    Address arr = builder_->makeIntArray({10, 20, 30});
    EXPECT_EQ(heap_->arrayLength(arr), 3);
    EXPECT_EQ((array::get<std::int32_t>(*heap_, arr, 0)), 10);
    EXPECT_EQ((array::get<std::int32_t>(*heap_, arr, 2)), 30);
    array::set<std::int32_t>(*heap_, arr, 1, -7);
    EXPECT_EQ((array::get<std::int32_t>(*heap_, arr, 1)), -7);
    EXPECT_EQ(heap_->objectSize(arr),
              heap_->klassOf(arr)->arrayBytes(3));
}

TEST_F(HeapTest, IdentityHashIsLazyStableAndCached)
{
    Klass *k = klasses_->load("Scalar");
    Address a = heap_->allocateInstance(k);
    EXPECT_FALSE(mark::hasHash(heap_->markOf(a)));
    std::int32_t h1 = heap_->identityHash(a);
    EXPECT_TRUE(mark::hasHash(heap_->markOf(a)));
    EXPECT_EQ(heap_->identityHash(a), h1);
    EXPECT_GE(h1, 0);

    Address b = heap_->allocateInstance(k);
    EXPECT_NE(heap_->identityHash(b), h1);
}

TEST_F(HeapTest, MarkWordReservedBitsStayZero)
{
    Klass *k = klasses_->load("Scalar");
    Address a = heap_->allocateInstance(k);
    heap_->identityHash(a);
    Word m = mark::withAge(mark::setGcMarked(heap_->markOf(a)), 7);
    EXPECT_EQ(m & mark::reservedMask, 0u);
}

TEST_F(HeapTest, MarkResetForTransferKeepsHashOnly)
{
    Klass *k = klasses_->load("Scalar");
    Address a = heap_->allocateInstance(k);
    std::int32_t h = heap_->identityHash(a);
    Word m = mark::withAge(mark::setGcMarked(heap_->markOf(a)), 3);
    m |= mark::lockMask;
    Word r = mark::resetForTransfer(m);
    EXPECT_TRUE(mark::hasHash(r));
    EXPECT_EQ(mark::hashOf(r), h);
    EXPECT_EQ(mark::ageOf(r), 0);
    EXPECT_FALSE(mark::isGcMarked(r));
    EXPECT_EQ(r & mark::lockMask, 0u);
}

TEST_F(HeapTest, StringBuilderRoundTrip)
{
    Address s = builder_->makeString("managed heap");
    EXPECT_EQ(builder_->stringValue(s), "managed heap");
    std::int32_t h = builder_->stringHash(s);
    EXPECT_EQ(builder_->stringHash(s), h);
    // Java's "abc".hashCode() == 96354 — validate the algorithm.
    Address abc = builder_->makeString("abc");
    EXPECT_EQ(builder_->stringHash(abc), 96354);
}

TEST_F(HeapTest, RefArrayAndPairGraph)
{
    Klass *pairK = klasses_->load("Pair");
    Address i1 = builder_->makeInteger(1);
    std::size_t r1 = heap_->addRoot(i1);
    Address i2 = builder_->makeInteger(2);
    std::size_t r2 = heap_->addRoot(i2);
    Address pair = heap_->allocateInstance(pairK);
    field::setRef(*heap_, pair, pairK->requireField("first"),
                  heap_->root(r1));
    field::setRef(*heap_, pair, pairK->requireField("second"),
                  heap_->root(r2));
    heap_->removeRoot(r1);
    heap_->removeRoot(r2);

    GraphMeasure m = measureGraph(*heap_, pair);
    EXPECT_EQ(m.objects, 3u);
    EXPECT_GT(m.bytes, 0u);
}

TEST_F(HeapTest, ForEachRefSlotOnInstanceAndArray)
{
    Klass *pairK = klasses_->load("Pair");
    Address pair = heap_->allocateInstance(pairK);
    int n = 0;
    forEachRefSlot(*heap_, pair, [&](std::size_t) { ++n; });
    EXPECT_EQ(n, 2);

    Address arr = builder_->makeRefArray("java.lang.Integer", 5);
    n = 0;
    forEachRefSlot(*heap_, arr, [&](std::size_t) { ++n; });
    EXPECT_EQ(n, 5);

    Address ints = builder_->makeIntArray({1, 2, 3});
    n = 0;
    forEachRefSlot(*heap_, ints, [&](std::size_t) { ++n; });
    EXPECT_EQ(n, 0);
}

TEST_F(HeapTest, CardMarkingOnOldRefStore)
{
    // An object promoted (allocated) in old gen dirties its card when
    // a reference is stored into it.
    Address zone =
        heap_->allocateOldRaw(klasses_->load("Pair")->instanceBytes());
    // Build a fake old-gen object by hand.
    Klass *pairK = klasses_->load("Pair");
    heap_->storeWord(zone, offsetMark, mark::initial);
    heap_->storeWord(zone, offsetKlass, reinterpret_cast<Word>(pairK));
    heap_->storeWord(zone, offsetBaddr, 0);

    std::size_t card = (zone - heap_->oldBase()) /
                       heap_->config().cardBytes;
    EXPECT_FALSE(heap_->cardIsDirty(card));
    Address young = builder_->makeInteger(5);
    heap_->storeRef(zone, pairK->requireField("first").offset, young);
    EXPECT_TRUE(heap_->cardIsDirty(card));
}

TEST_F(HeapTest, DirtyCardRangeCoversAllCards)
{
    Address zone = heap_->allocateOldRaw(4096);
    heap_->dirtyCardRange(zone, 4096);
    std::size_t first = (zone - heap_->oldBase()) /
                        heap_->config().cardBytes;
    std::size_t last = (zone + 4095 - heap_->oldBase()) /
                       heap_->config().cardBytes;
    for (std::size_t i = first; i <= last; ++i)
        EXPECT_TRUE(heap_->cardIsDirty(i));
}

TEST_F(HeapTest, RootSlotsRecycle)
{
    Address a = builder_->makeInteger(1);
    std::size_t s1 = heap_->addRoot(a);
    heap_->removeRoot(s1);
    std::size_t s2 = heap_->addRoot(a);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(heap_->root(s2), a);
    heap_->removeRoot(s2);
}

TEST_F(HeapTest, GraphsEqualDetectsDifferences)
{
    Address a1 = builder_->makeString("same");
    Address a2 = builder_->makeString("same");
    Address b = builder_->makeString("diff");
    EXPECT_TRUE(graphsEqual(*heap_, a1, *heap_, a2));
    EXPECT_FALSE(graphsEqual(*heap_, a1, *heap_, b));
    EXPECT_TRUE(graphsEqual(*heap_, nullAddr, *heap_, nullAddr));
    EXPECT_FALSE(graphsEqual(*heap_, a1, *heap_, nullAddr));
}

TEST_F(HeapTest, GraphsEqualRespectsSharing)
{
    // Pair(x, x) with a shared referent is not isomorphic to
    // Pair(x, y) with two equal-valued but distinct referents.
    Klass *pairK = klasses_->load("Pair");
    Address shared = builder_->makeInteger(9);
    std::size_t rs = heap_->addRoot(shared);
    Address p1 = heap_->allocateInstance(pairK);
    field::setRef(*heap_, p1, pairK->requireField("first"),
                  heap_->root(rs));
    field::setRef(*heap_, p1, pairK->requireField("second"),
                  heap_->root(rs));
    std::size_t rp1 = heap_->addRoot(p1);

    Address x = builder_->makeInteger(9);
    std::size_t rx = heap_->addRoot(x);
    Address y = builder_->makeInteger(9);
    std::size_t ry = heap_->addRoot(y);
    Address p2 = heap_->allocateInstance(pairK);
    field::setRef(*heap_, p2, pairK->requireField("first"),
                  heap_->root(rx));
    field::setRef(*heap_, p2, pairK->requireField("second"),
                  heap_->root(ry));

    EXPECT_FALSE(graphsEqual(*heap_, heap_->root(rp1), *heap_, p2));
    EXPECT_TRUE(graphsEqual(*heap_, heap_->root(rp1), *heap_,
                            heap_->root(rp1)));
    heap_->removeRoot(rs);
    heap_->removeRoot(rp1);
    heap_->removeRoot(rx);
    heap_->removeRoot(ry);
}

TEST_F(HeapTest, OldRawAllocationIsZeroedAndInOld)
{
    Address zone = heap_->allocateOldRaw(1024);
    EXPECT_TRUE(heap_->inOld(zone));
    for (std::size_t off = 0; off < 1024; off += wordSize)
        EXPECT_EQ(heap_->loadWord(zone, off), 0u);
}

TEST_F(HeapTest, FillerRecordsAreWalkable)
{
    Address zone = heap_->allocateOldRaw(256);
    heap_->writeFiller(zone, 256);
    EXPECT_TRUE(ManagedHeap::isFiller(zone));
    EXPECT_EQ(ManagedHeap::fillerSize(zone), 256u);
}

TEST_F(HeapTest, OneWordFreeRangeRemainderStaysWalkable)
{
    // A promotion that leaves exactly one word of a free range behind:
    // the range is too small to keep tracking, so the allocator must
    // cover the word with a filler, or the next old-gen walk parses
    // stale bytes as an object header.
    Klass *k = klasses_->load("Scalar");
    std::size_t size = k->instanceBytes();
    Address zone = heap_->allocateOldRaw(size + wordSize);
    std::memset(reinterpret_cast<void *>(zone), 0xa5, size + wordSize);
    heap_->resetOldFreeList();
    heap_->addOldFreeRange(zone, size + wordSize);

    Address young = heap_->allocateInstance(k);
    Address old = heap_->allocateOldForGc(size);
    ASSERT_EQ(old, zone);
    std::memcpy(reinterpret_cast<void *>(old),
                reinterpret_cast<const void *>(young), size);

    ASSERT_TRUE(ManagedHeap::isFiller(old + size));
    EXPECT_EQ(ManagedHeap::fillerSize(old + size), wordSize);
    std::vector<Address> visited;
    heap_->forEachOldObject([&](Address a) { visited.push_back(a); });
    EXPECT_EQ(visited, std::vector<Address>{old});
}

TEST_F(HeapTest, PinnedRangeLifecycle)
{
    Address zone = heap_->allocateOldRaw(512);
    std::size_t pin = heap_->pinOldRange(zone, 512);
    ASSERT_EQ(heap_->pinnedRanges().size(), 1u);
    EXPECT_FALSE(heap_->pinnedRanges()[0].walkable);
    heap_->makePinWalkable(pin);
    EXPECT_TRUE(heap_->pinnedRanges()[0].walkable);
    heap_->unpinOldRange(pin);
    EXPECT_EQ(heap_->pinnedRanges()[0].bytes, 0u);
}

TEST_F(HeapTest, UsedBytesTracksAllocation)
{
    std::size_t before = heap_->usedBytes();
    builder_->makeIntArray(std::vector<std::int32_t>(100, 1));
    EXPECT_GT(heap_->usedBytes(), before);
    heap_->notePeak();
    EXPECT_GE(heap_->stats().peakUsedBytes, heap_->usedBytes());
}

} // namespace
} // namespace skyway
