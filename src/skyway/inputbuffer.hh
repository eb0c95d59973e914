/**
 * @file
 * Skyway input buffers (paper section 4.3). One buffer per (sender,
 * stream); allocated in the *managed heap's old generation* so that
 * transferred objects are heap objects the moment they arrive. The
 * buffer is a linked list of chunks — the total transfer size is
 * unknown while streaming, and large contiguous allocations would
 * fragment the old generation. Regular chunks grow geometrically: the
 * first is min(chunk size, 4 KiB), each later one doubles up to the
 * configured chunk size, so a small transfer does not pin a whole
 * chunk of old generation. An object never spans chunks;
 * oversized chunks are created for objects larger than the regular
 * chunk size.
 *
 * Ingest is zero-copy: the transport calls reserveChunk(len) to get a
 * pointer directly into old-gen chunk storage, writes the streamed
 * segment there (a socket receive, a modeled NIC DMA, a disk read),
 * and calls commitChunk(len). The commit parses the records *in
 * place*: marker words (top marks, backward references) are consumed
 * and overwritten with heap filler records — they occupy physical
 * chunk space but no logical (relative-address) space — and every
 * maximal marker-free stretch of records becomes one logical *run* in
 * the relative→absolute translation table. The legacy feed() entry
 * point remains as the compatibility path for byte-owning callers
 * (framed serializer streams, in-memory tests): it copies each
 * segment once into the reservation, packing records into chunks at
 * record granularity exactly as before.
 *
 * While streaming, chunks are pinned *opaque* (klass words still hold
 * type IDs, references are still relative), so the GC neither walks
 * nor frees them. finalize() runs the single linear absolutization
 * pass: klass IDs become klass pointers via the registry view,
 * relative references become absolute addresses via the run
 * translation, registered field updates are applied, the card table
 * is updated for the new pointers, and the chunks become pinned
 * *walkable* — live until the developer frees the buffer.
 */

#ifndef SKYWAY_SKYWAY_INPUTBUFFER_HH
#define SKYWAY_SKYWAY_INPUTBUFFER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "skyway/context.hh"

namespace skyway
{

namespace sanitize
{
class WireValidator;
}

/** Default input-buffer chunk size (user-tunable per the paper). */
constexpr std::size_t defaultInputChunkBytes = 256 << 10;

/**
 * Receiver-side statistics. Legacy per-buffer accessor: the same
 * quantities are published process-wide as `skyway.receiver.*`
 * metrics (docs/OBSERVABILITY.md).
 */
struct SkywayReceiveStats
{
    std::uint64_t objectsReceived = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t chunksAllocated = 0;
    std::uint64_t oversizedChunks = 0;
    std::uint64_t refsAbsolutized = 0;
    std::uint64_t fieldUpdatesApplied = 0;
    /**
     * Segment bytes the transport wrote directly into chunk storage
     * *and* parsed in place. Compact segments (docs/WIRE_FORMAT.md)
     * are excluded even on the reserveChunk path: their wire bytes
     * are staged out and re-expanded, so the zero-copy invariant
     * (wire bytes == chunk bytes) does not hold for them — see
     * expandedBytes for what they produced.
     */
    std::uint64_t zeroCopyBytes = 0;
    /** Full-format bytes produced by re-expanding compact segments. */
    std::uint64_t expandedBytes = 0;
    /** Wall time spent in the compact-segment expander. */
    std::uint64_t expandNs = 0;
};

class InputBuffer
{
  public:
    /**
     * @param ctx         the receiving JVM's Skyway state
     * @param chunk_bytes regular chunk size the chunks grow to
     */
    explicit InputBuffer(SkywayContext &ctx,
                         std::size_t chunk_bytes =
                             defaultInputChunkBytes);

    /** Unpinning on destruction is equivalent to free(). */
    ~InputBuffer();

    InputBuffer(const InputBuffer &) = delete;
    InputBuffer &operator=(const InputBuffer &) = delete;

    /**
     * Zero-copy ingest, step 1: reserve @p len contiguous bytes of
     * old-gen chunk storage for an incoming segment (opening a new
     * chunk — oversized if needed — when the current one cannot hold
     * it). The transport writes the segment bytes directly into the
     * returned pointer and then calls commitChunk(). At most one
     * reservation may be outstanding.
     */
    std::uint8_t *reserveChunk(std::size_t len);

    /**
     * Zero-copy ingest, step 2: the transport wrote @p len bytes
     * (<= the reserved length) of whole records into the reservation;
     * validate and parse them in place. Counted in
     * `skyway.receiver.zero_copy_bytes`.
     */
    void commitChunk(std::size_t len);

    /**
     * Compatibility ingest for byte-owning callers: copies the
     * streamed segment once into chunk reservations, splitting at
     * record boundaries so records pack into regular-size chunks.
     * Segments contain whole records (the sender never splits a
     * record across flushes).
     */
    void feed(const std::uint8_t *data, std::size_t len);

    /**
     * The single linear absolutization pass; call once streaming has
     * finished. Computation on the buffer must block until this
     * completes.
     */
    void finalize();

    bool finalized() const { return finalized_; }

    /**
     * The top-level objects, in the order the sender wrote them
     * (recovered from top marks and backward references — no receiver
     * graph traversal).
     */
    const std::vector<Address> &roots() const;

    /** Developer API: release the buffer to the collector. */
    void free();

    std::size_t chunkCount() const { return chunks_.size(); }
    std::uint64_t totalBytes() const { return logical_; }
    const SkywayReceiveStats &stats() const { return stats_; }

  private:
    struct Chunk
    {
        Address base;
        std::size_t cap;
        std::size_t fill;
        std::size_t pin;
    };

    /**
     * One maximal stretch of records that is contiguous in both
     * logical (relative-address) and physical (chunk) space. Markers
     * and chunk boundaries end a run; the runs are the receiver's
     * relative→absolute translation table.
     */
    struct Run
    {
        std::uint64_t firstLogical;
        Address base;
        std::size_t bytes;
    };

    /** Resolve a klass from a wire type id (cached). */
    Klass *klassForTid(std::int32_t tid);

    /** Translate a relative address to its absolute heap address. */
    Address resolveRel(std::uint64_t rel) const;

    /** Size of the record whose bytes start at @p rec (local format). */
    std::size_t recordSize(const std::uint8_t *rec, Klass *k) const;

    /**
     * Open a chunk of the next regular capacity, or larger when
     * @p at_least does not fit it; advances the regular capacity.
     */
    void newChunk(std::size_t at_least);

    /**
     * Shared commit: validate (unless the caller already did), then
     * parse the @p len committed bytes of the open reservation in
     * place — markers become fillers and root specs, records extend
     * or open logical runs.
     */
    void commitReserved(std::size_t len, bool zero_copy,
                        bool already_validated);

    /**
     * Byte length of the longest prefix of whole items (markers or
     * records) of @p data that fits in @p limit bytes. Returns 0 when
     * the first item alone does not fit.
     */
    std::size_t scanBatch(const std::uint8_t *data, std::size_t len,
                          std::size_t limit);

    /**
     * Size of the single item (marker or record) at @p data; 0 when
     * the item is a compact-segment marker (the caller must hand the
     * stream to expandSegment instead of batching further).
     */
    std::size_t itemSize(const std::uint8_t *data, std::size_t len);

    /**
     * Re-expand the compact segment at @p data (marker + varint
     * length + items) into full heap-format records placed through
     * the regular chunk/run machinery; returns the consumed wire
     * bytes. The caller owns @p data — it must not alias chunk
     * storage (the commit path stages the bytes out first).
     */
    std::size_t expandSegment(const std::uint8_t *data,
                              std::size_t len);

    void absolutizeChunk(Chunk &c);

    /**
     * SkywaySan post-finalize structural audit
     * (ctx.debug().checkReceivedGraph): walk the rebuilt chunks and
     * panic unless every object parses, every reference lands on a
     * rebuilt object start (or a live local heap object installed by
     * a field update), every root resolves, and no machine-local mark
     * bits leaked through the transfer.
     */
    void auditRebuilt() const;

    /**
     * Push the delta of stats_ since the last publication into the
     * `skyway.receiver.*` counters. Runs at buffer boundaries —
     * finalize() and destruction — never per feed() or per record,
     * keeping the receive hot path free of atomics.
     */
    void publishMetrics();

    SkywayContext &ctx_;
    ManagedHeap &heap_;
    std::size_t chunkBytes_;
    /** Capacity of the next regular chunk (grows to chunkBytes_). */
    std::size_t nextChunkBytes_;
    ObjectFormat fmt_;

    std::vector<Chunk> chunks_;
    /** Logical runs in ascending firstLogical order. */
    std::vector<Run> runs_;
    std::uint64_t logical_ = 0;
    bool finalized_ = false;
    bool freed_ = false;

    /** The open reservation (between reserveChunk and commit). */
    std::uint8_t *reserved_ = nullptr;
    std::size_t reservedLen_ = 0;

    /**
     * Roots noted while streaming, resolved to addresses at
     * finalize(): a top mark names the logical offset of the record
     * that follows it; a backward reference carries an encoded slot
     * (0 = null).
     */
    struct RootSpec
    {
        bool isBackRef;
        std::uint64_t value;
    };
    std::vector<RootSpec> pendingRoots_;

    std::vector<Address> roots_;
    /** Staging for compact wire bytes whose expansion overwrites the
     *  chunk region they arrived in (reused across segments). */
    std::vector<std::uint8_t> scratch_;
    /** Dense tid -> klass cache (global ids are small and dense). */
    mutable std::vector<Klass *> tidCache_;
    SkywayReceiveStats stats_;
    /** Values of stats_ as of the last publishMetrics(). */
    SkywayReceiveStats published_;

    /** Debug-mode wire validator (ctx.debug().validateWire). */
    std::unique_ptr<sanitize::WireValidator> validator_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_INPUTBUFFER_HH
