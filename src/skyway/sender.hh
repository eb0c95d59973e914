/**
 * @file
 * The Skyway sender: Algorithm 2 of the paper. A GC-like BFS from each
 * root object clones every reachable object into the stream's output
 * buffer, rewrites the clone's klass word to the global type ID,
 * resets the machine-specific mark bits (preserving the cached
 * hashcode), and relativizes every reference to the target's position
 * in the buffer. Top marks and backward references delimit top-level
 * objects so the receiver can find roots without a graph traversal.
 *
 * Thread support follows the paper: the baddr word carries the
 * claiming stream's id; claims are installed with CAS, and a stream
 * that loses the race keeps its own relative address for the shared
 * object in a stream-local hash table (the object is then duplicated
 * across buffers, consistent with existing serializers' semantics).
 */

#ifndef SKYWAY_SKYWAY_SENDER_HH
#define SKYWAY_SKYWAY_SENDER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "skyway/baddr.hh"
#include "skyway/context.hh"
#include "skyway/outputbuffer.hh"

namespace skyway
{

/**
 * Sender-side statistics (tests and the byte-composition bench).
 * Legacy per-stream accessor: the same quantities are published
 * process-wide as `skyway.sender.*` metrics (docs/OBSERVABILITY.md);
 * this struct remains as the thin per-stream compatibility view.
 */
struct SkywaySendStats
{
    std::uint64_t objectsCopied = 0;
    std::uint64_t bytesCopied = 0;
    std::uint64_t topMarks = 0;
    std::uint64_t backRefs = 0;
    std::uint64_t hashFallbacks = 0;
    std::uint64_t casRetries = 0;

    /** Byte composition of the copied data (paper section 5.2). */
    std::uint64_t headerBytes = 0;
    std::uint64_t pointerBytes = 0;
    std::uint64_t paddingBytes = 0;
    std::uint64_t dataBytes = 0;
};

/**
 * One sending stream: bound to one output buffer (one destination),
 * one stream id, and the current shuffle phase.
 */
class SkywaySender
{
  public:
    /**
     * @param ctx           the JVM's Skyway state
     * @param ob            the destination's output buffer
     * @param target_format the receiver JVM's object format; when it
     *                      differs from the local format the clone is
     *                      adjusted during copying (sender pays, the
     *                      receiver does not — paper section 3.1)
     */
    SkywaySender(SkywayContext &ctx, OutputBuffer &ob,
                 ObjectFormat target_format);

    ~SkywaySender() { publishMetrics(); }

    /** Copy the graph rooted at @p root into the buffer. */
    void writeObject(Address root);

    std::uint16_t streamId() const { return tid_; }
    const SkywaySendStats &stats() const { return stats_; }

    /**
     * Push the delta of stats_ since the last publication into the
     * process-wide `skyway.sender.*` counters. Runs at stream
     * boundaries — flush/endStream and destruction, never per
     * writeObject, let alone per object — so the transfer hot path
     * stays free of atomics (the ≤2% budget, docs/OBSERVABILITY.md).
     */
    void publishMetrics();

  private:
    struct GrayItem
    {
        Address obj;
        std::uint64_t addr;
    };

    /** Atomic accessors for the baddr header word. */
    static Word loadBaddr(Address o);
    static bool casBaddr(Address o, Word &expected, Word desired);

    /**
     * If @p o was already copied by *this stream* in the current
     * phase, set @p rel and return true.
     */
    bool lookupVisited(Address o, std::uint64_t &rel);

    /**
     * The relative buffer address for child @p o: claims, enqueues,
     * and accounts for it when unvisited (Algorithm 2 lines 17-26
     * plus the multi-thread protocol).
     */
    std::uint64_t relForChild(Address o);

    /** Clone the record for @p s at logical address @p addr. */
    void writeRecord(Address s, std::uint64_t addr);

    void emitTopMark();
    void emitBackRef(Word slot_value);
    void drain();

    /** Object size in the receiver's format. */
    std::size_t sizeInTarget(Address s, const Klass *k) const;

    SkywayContext &ctx_;
    ManagedHeap &heap_;
    OutputBuffer &ob_;
    std::uint16_t tid_;
    ObjectFormat srcFmt_;
    ObjectFormat dstFmt_;
    /** srcHeader - dstHeader; field offsets shift by this much. */
    std::ptrdiff_t headerDelta_;
    std::uint8_t sid_ = 0;

    /** Objects claimed but not yet copied, in BFS order (drain()). */
    std::vector<GrayItem> gray_;
    /** Stream-local table for objects claimed by other streams. */
    std::unordered_map<Address, std::uint64_t> fallback_;

    SkywaySendStats stats_;
    /** Values of stats_ as of the last publishMetrics(). */
    SkywaySendStats published_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_SENDER_HH
