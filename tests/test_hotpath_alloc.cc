/**
 * @file
 * Allocation budget of the per-record paths. A counting global
 * operator new (this test is its own executable, so the replacement
 * affects nothing else) shows that shipping a stream of records costs
 * heap allocations in proportion to the input-buffer chunks and the
 * stream's own bookkeeping, never one per record — and that the checks
 * on those paths (panicIf with a literal message, formatted checks that
 * format only on failure) allocate nothing while they pass.
 *
 * Instrumented builds (SKYWAY_SANITIZER_BUILD) interpose their own
 * allocator, so the counting replacement is left out and every test
 * skips there.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "skyway/inputbuffer.hh"
#include "skyway/streams.hh"
#include "testclasses.hh"

namespace
{

std::atomic<std::uint64_t> allocCount{0};

} // namespace

#ifndef SKYWAY_SANITIZER_BUILD

// The library's default array and nothrow forms forward to these, so
// replacing them counts every allocation. (The program has no
// over-aligned types, so the align_val_t forms never run.)
void *
operator new(std::size_t n)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // SKYWAY_SANITIZER_BUILD

namespace skyway
{
namespace
{

using testing_support::makePoint;
using testing_support::makeTestCatalog;

#ifdef SKYWAY_SANITIZER_BUILD
#define SKIP_UNDER_SANITIZER()                                         \
    GTEST_SKIP() << "the sanitizer runtime owns operator new here"
#else
#define SKIP_UNDER_SANITIZER() (void)0
#endif

/** Heap allocations made between construction and count(). */
class AllocCounter
{
  public:
    AllocCounter() : start_(allocCount.load()) {}
    std::uint64_t count() const { return allocCount.load() - start_; }

  private:
    std::uint64_t start_;
};

enum class Ingest
{
    Commit, // zero-copy reserveChunk/commitChunk, as the transports do
    Feed,   // the byte-owning feed() path
};

struct ShipResult
{
    std::uint64_t allocs;
    std::size_t chunks;
};

class HotPathAllocTest : public ::testing::Test
{
  protected:
    HotPathAllocTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        // The budget is the production path's: the SkywaySan debug
        // validators (SKYWAY_WIRE_CHECK, SKYWAY_GRAPH_CHECK) index
        // every record by design.
        nodeA_.skyway().debug() = DebugFlags{};
        nodeB_.skyway().debug() = DebugFlags{};
    }

    /** One record: a test.Pair of two test.Points (three objects). */
    Address
    makeRecord(LocalRoots &roots, int i)
    {
        Address l = makePoint(nodeA_, i, i + 1);
        std::size_t sl = roots.push(l);
        Address r = makePoint(nodeA_, i + 2, i + 3);
        std::size_t sr = roots.push(r);
        Klass *pk = nodeA_.klasses().load("test.Pair");
        Address p = nodeA_.heap().allocateInstance(pk);
        field::setRef(nodeA_.heap(), p, pk->requireField("left"),
                      roots.get(sl));
        field::setRef(nodeA_.heap(), p, pk->requireField("right"),
                      roots.get(sr));
        return p;
    }

    /**
     * Ship @p n records from node A to node B under @p mode through
     * @p how, counting every allocation from the phase start to the
     * finalized buffer; checks the received graphs outside the count.
     */
    ShipResult
    ship(std::size_t n, WireCompactMode mode, Ingest how)
    {
        LocalRoots roots(nodeA_.heap());
        std::vector<std::size_t> recs;
        for (std::size_t i = 0; i < n; ++i)
            recs.push_back(
                roots.push(makeRecord(roots, static_cast<int>(i))));
        nodeA_.skyway().setWireCompactMode(mode);

        AllocCounter counter;
        nodeA_.skyway().shuffleStart();
        auto buf = std::make_unique<InputBuffer>(nodeB_.skyway());
        {
            SkywayObjectOutputStream out(
                nodeA_.skyway(),
                [&buf, how](const std::uint8_t *d, std::size_t len) {
                    if (how == Ingest::Feed) {
                        buf->feed(d, len);
                        return;
                    }
                    std::memcpy(buf->reserveChunk(len), d, len);
                    buf->commitChunk(len);
                });
            for (std::size_t r : recs)
                out.writeObject(roots.get(r));
            out.flush();
        }
        buf->finalize();
        ShipResult res{counter.count(), buf->chunkCount()};

        EXPECT_EQ(buf->roots().size(), n);
        for (std::size_t i = 0; i < n; i += n / 5 + 1)
            EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(recs[i]),
                                    nodeB_.heap(), buf->roots()[i]));
        buf->free();
        return res;
    }

    /**
     * Ship 10 and then 1000 records: the 990 extra records may cost a
     * few allocations per extra chunk plus the logarithmic regrowth of
     * the stream's bookkeeping vectors (roots, runs), but never one per
     * record.
     */
    void
    expectChunkBoundedAllocs(WireCompactMode mode, Ingest how)
    {
        ship(10, mode, how); // warm the registries' id caches
        ShipResult small = ship(10, mode, how);
        ShipResult big = ship(1000, mode, how);
        ASSERT_GE(big.chunks, small.chunks);
        std::uint64_t extra =
            big.allocs > small.allocs ? big.allocs - small.allocs : 0;
        std::uint64_t bound = 4 * (big.chunks - small.chunks) + 32;
        EXPECT_LE(extra, bound)
            << "10 records: " << small.allocs << " allocations, "
            << small.chunks << " chunks; 1000 records: " << big.allocs
            << " allocations, " << big.chunks << " chunks";
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
};

TEST_F(HotPathAllocTest, CommitRawIsChunkBounded)
{
    SKIP_UNDER_SANITIZER();
    expectChunkBoundedAllocs(WireCompactMode::Off, Ingest::Commit);
}

TEST_F(HotPathAllocTest, CommitCompactIsChunkBounded)
{
    SKIP_UNDER_SANITIZER();
    expectChunkBoundedAllocs(WireCompactMode::Force, Ingest::Commit);
}

TEST_F(HotPathAllocTest, FeedRawIsChunkBounded)
{
    SKIP_UNDER_SANITIZER();
    expectChunkBoundedAllocs(WireCompactMode::Off, Ingest::Feed);
}

TEST_F(HotPathAllocTest, FeedCompactIsChunkBounded)
{
    SKIP_UNDER_SANITIZER();
    expectChunkBoundedAllocs(WireCompactMode::Force, Ingest::Feed);
}

TEST_F(HotPathAllocTest, RequireFieldAllocatesNothing)
{
    SKIP_UNDER_SANITIZER();
    // The name is built before the count: only the lookup (and its
    // passing check) is measured.
    Klass *k = nodeA_.klasses().load("test.Mixed");
    const std::string name = "data";
    for (int i = 0; i < 100; ++i) {
        AllocCounter counter;
        const FieldDesc &f = k->requireField(name);
        EXPECT_EQ(counter.count(), 0u);
        EXPECT_EQ(f.name, name);
    }
}

TEST_F(HotPathAllocTest, AllocateInstanceAllocatesNothing)
{
    SKIP_UNDER_SANITIZER();
    Klass *k = nodeA_.klasses().load("test.Point");
    Klass *ak = nodeA_.klasses().load("[I");
    for (int i = 0; i < 100; ++i) {
        AllocCounter counter;
        nodeA_.heap().allocateInstance(k);
        EXPECT_EQ(counter.count(), 0u);
        AllocCounter array_counter;
        nodeA_.heap().allocateArray(ak, 4);
        EXPECT_EQ(array_counter.count(), 0u);
    }
}

TEST_F(HotPathAllocTest, ResolvedTypeIdsAllocateNothing)
{
    SKIP_UNDER_SANITIZER();
    // Both registry ends: the driver and a worker view.
    for (Jvm *jvm : {&driver_, &nodeB_}) {
        Klass *k = jvm->klasses().load("test.Pair");
        std::int32_t id = k->tid();
        ASSERT_EQ(jvm->resolver().klassForId(id), k);
        bool same = true;
        AllocCounter counter;
        for (int i = 0; i < 100; ++i)
            same = same && jvm->resolver().klassForId(id) == k;
        EXPECT_EQ(counter.count(), 0u);
        EXPECT_TRUE(same);
    }
}

} // namespace
} // namespace skyway
