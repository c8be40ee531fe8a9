/**
 * @file
 * ChunkWriter: packs value records into chunk-sized buffers and writes
 * them asynchronously to Value Storage (§5.2, Fig. 4).
 *
 * Used by the PWB reclaimer (targets: all Value Storages, choosing an
 * idle one per chunk to spread load over the SSD array), by GC (target:
 * the same Value Storage), and by the SVC's scan-aware reorganisation
 * (§4.4, which re-packs a scanned key range contiguously).
 *
 * Chunks are packed across writers: each Value Storage parks one
 * partially filled open tail chunk, and a writer continues that tail at
 * its fill offset before it allocates a fresh chunk, writing only the
 * bytes it appended. A chunk is sealed only when it is full; a writer's
 * own last partial chunk is parked as the new tail once its write is
 * durable and its records are published. So GC passes, scan
 * reorganisations and forced reclaim passes, which mostly end mid-chunk,
 * do not leave mostly-empty sealed chunks for GC to compact (§5.2).
 *
 * Addresses are assigned at add() time. Durability comes in two
 * flavours:
 *  - Barrier mode (default): finish() writes the final partial chunk
 *    and waits for every outstanding write; the caller then publishes
 *    all addresses at once and calls settleAll().
 *  - Pipeline mode (max_inflight > 0 + a chunk callback): at most
 *    max_inflight chunk writes are kept outstanding, and as each chunk
 *    completes the callback fires with the contiguous record range that
 *    landed in it — the caller publishes those HSIT entries while later
 *    chunks are still being packed and written. This overlaps the
 *    NVM-side scan/filter work with the SSD writes instead of stalling
 *    a whole pass behind the slowest chunk.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rand.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/addr.h"
#include "core/value_storage.h"

namespace prism::core {

/** Packs records into chunks across one or more Value Storages. */
class ChunkWriter {
  public:
    /**
     * Fires when one chunk's write is durable on its SSD. Records are
     * numbered in add() order; this chunk holds records
     * [first_record, first_record + record_count). The callback runs on
     * the thread driving the writer (inside add()/pollCompleted()/
     * finish()); it must settle the chunk itself once the new records'
     * validity bits are set.
     */
    using ChunkCallback = std::function<void(
        ValueStorage *vs, int64_t chunk, size_t first_record,
        size_t record_count)>;

    /**
     * @param targets      candidate Value Storages (non-owning,
     *                     non-empty).
     * @param seed         RNG seed for idle-target selection; mixed
     *                     with a process-wide writer sequence number so
     *                     successive writers start on different targets.
     * @param max_inflight chunk writes kept outstanding before add()
     *                     blocks on the oldest; 0 = unbounded (barrier
     *                     mode, all completions reaped in finish()).
     */
    explicit ChunkWriter(std::vector<ValueStorage *> targets,
                         uint64_t seed = 42, int max_inflight = 0);
    ~ChunkWriter();

    ChunkWriter(const ChunkWriter &) = delete;
    ChunkWriter &operator=(const ChunkWriter &) = delete;

    /** Install the per-chunk completion callback. Call before add(). */
    void setChunkCallback(ChunkCallback cb) { callback_ = std::move(cb); }

    /**
     * Append one value record.
     * @return its future Value Storage address, or a null addr when no
     *         chunk could be allocated (caller should run GC and retry).
     */
    ValueAddr add(uint64_t hsit_idx, uint64_t key, const void *data,
                  uint32_t size);

    /**
     * Reap every already-completed outstanding chunk write (in
     * submission order), firing the chunk callback for each.
     * @return chunks reaped.
     */
    size_t pollCompleted();

    /**
     * Write the final partial chunk (without sealing it) and wait for
     * every outstanding chunk write to complete (firing remaining
     * callbacks). After finish(), every address returned by add() is
     * durable on SSD — except records reported by recordFailed()/
     * firstFailedRecord(), whose chunk writes failed permanently after
     * retries (injected faults or device dropout) and which fired no
     * callback.
     *
     * The final partial chunk is not sealed: it is parked as its Value
     * Storage's open tail (sealed instead if another writer's tail is
     * already parked there). With a chunk callback installed, the
     * callbacks have published every record, so finish() parks it; in
     * barrier mode the caller has not published yet, and settleAll()
     * parks it.
     */
    Status finish();

    /**
     * Like finish(), but *discard* the partial last chunk instead of
     * submitting it: a chunk this writer allocated is recycled unwritten
     * (it was never published anywhere, so recycling is invisible to
     * readers and crash recovery), a continued tail goes back with its
     * old fill, and the discarded records never fire the callback.
     * Callers that can retry later (the PWB reclaimer, whose source
     * records remain durable in the ring) use this to leave stragglers
     * for a later pass.
     * @return the number of records that were submitted in full chunks
     *         (a prefix of add() order; the rest were discarded).
     */
    size_t finishFullChunksOnly();

    /**
     * Mark every written chunk GC-eligible and park the final partial
     * chunk as its Value Storage's tail. Barrier-mode callers invoke it
     * after finish() and after the new records' validity bits have been
     * set; GC skips unsettled chunks so it cannot recycle one
     * mid-publish. Idempotent. A barrier-mode writer destroyed without
     * it settles its chunks itself: records the caller never published
     * are garbage GC may reclaim.
     */
    void settleAll();

    /** Number of chunks written (diagnostics). */
    size_t chunksWritten() const { return written_.size(); }

    /** Number of records appended so far (callback record numbering). */
    size_t recordsAdded() const { return records_added_; }

    /**
     * True when record @p idx (add() numbering) was in a chunk whose
     * write failed permanently (all retries exhausted). Its address is
     * dead: no callback fired for it, and the chunk was recycled
     * unwritten (or, for a continued tail, sealed at the tail's old
     * fill, which keeps the earlier writers' records). Meaningful after
     * finish()/finishFullChunksOnly().
     */
    bool recordFailed(size_t idx) const;

    /**
     * Lowest permanently-failed record number, or SIZE_MAX when every
     * submitted chunk landed. The PWB reclaimer clamps its new ring
     * head here so failed records stay durable in the ring and are
     * re-queued by the next pass.
     */
    size_t firstFailedRecord() const;

  private:
    struct InFlight {
        ValueStorage *vs;
        int64_t chunk;
        uint32_t base;  ///< fill when opened; > 0 for a continued tail
        uint32_t used;  ///< the write covers [base, used)
        bool last;      ///< writer's final partial chunk: park, not seal
        std::unique_ptr<uint8_t[]> buf;
        std::unique_ptr<WriteTicket> ticket;
        size_t first_record;
        size_t record_count;
        uint64_t submit_ns;  ///< when the device write was submitted
    };

    /** A landed final partial chunk waiting to be parked. */
    struct Tail {
        ValueStorage *vs = nullptr;
        int64_t chunk = -1;
        uint32_t used = 0;
    };

    /**
     * Pick a Value Storage (healthy + idle preferred) and open a chunk
     * with room for @p need bytes there (its tail, or a fresh chunk).
     */
    bool openChunk(uint32_t need);

    /** Submit the currently open chunk; @p last parks it once landed. */
    Status submitCurrent(bool last);

    /** Give back the current chunk unwritten (tail at its old fill). */
    void discardCurrent();

    /** Park the pending final chunk, if any. */
    void parkPending();

    /** Device submit for @p f, honouring the pwb.chunk_write fault site. */
    Status submitTicketed(InFlight &f);

    /** Reap the oldest outstanding write (blocking), fire its callback. */
    void reapFront(bool block);

    std::vector<ValueStorage *> targets_;
    Xorshift rng_;
    uint64_t chunk_bytes_;
    int max_inflight_;
    ChunkCallback callback_;

    ValueStorage *cur_vs_ = nullptr;
    int64_t cur_chunk_ = -1;
    uint32_t cur_base_ = 0;  ///< appends start here; buffer mirrors chunk
    uint32_t cur_used_ = 0;
    std::unique_ptr<uint8_t[]> cur_buf_;
    size_t cur_first_record_ = 0;
    size_t records_added_ = 0;
    size_t submitted_records_ = 0;

    /** Outstanding writes, oldest first; reaped in submission order. */
    std::deque<InFlight> inflight_;
    /** Every chunk whose write landed, for settleAll(). */
    std::vector<std::pair<ValueStorage *, int64_t>> written_;
    /** Record ranges whose chunk write failed permanently. */
    std::vector<std::pair<size_t, size_t>> failed_ranges_;
    Tail pending_tail_;
    bool finished_ = false;
    bool settled_ = false;

    // Process-wide gauge of chunk writes in flight across all writers.
    stats::Gauge *reg_inflight_;
    stats::Counter *reg_retries_;
    stats::Counter *reg_write_failures_;
};

}  // namespace prism::core
