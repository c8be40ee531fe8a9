/**
 * @file
 * KVell baseline (Lepers et al., SOSP'19) — the paper's DRAM+SSD
 * shared-nothing comparator (§7.3).
 *
 * Architecture reproduced here:
 *  - Keys are hash-partitioned across worker threads (a configurable
 *    number per SSD); each worker owns a private in-memory sorted index
 *    and a private slab region on its SSD. Shared-nothing means no
 *    locks — and no load balancing, the weakness Fig. 9 exposes under
 *    skew.
 *  - All storage I/O is page-granular (4 KB): updates read-modify-write
 *    their page; values never span pages.
 *  - Clients enqueue requests on the owning worker's queue even when the
 *    data is cached — the queuing-everything behaviour that inflates
 *    KVell's tail latency in Table 3.
 *  - Workers process requests in batches up to a queue depth (64),
 *    submitting the batch's page I/Os asynchronously and reaping them
 *    before answering.
 *  - A DRAM page cache (split evenly among workers) serves read-hot
 *    pages.
 *  - There is no commit log: recovery scans all slab pages to rebuild
 *    the in-memory indexes (§7.6's recovery-time comparison).
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/waiter.h"
#include "sim/ssd_device.h"

namespace prism::kvell {

/** Tunables; defaults follow the paper's configuration of KVell. */
struct KvellOptions {
    int workers_per_ssd = 3;
    int queue_depth = 64;
    uint64_t page_cache_bytes = 256ull * 1024 * 1024;
    /** Slab slot payload capacity (values above this are rejected). */
    uint32_t item_bytes = 1152;
};

/** Operation counters. */
struct KvellStats {
    std::atomic<uint64_t> puts{0};
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> scans{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> user_bytes_written{0};
};

/** The KVell store. */
class Kvell {
  public:
    Kvell(const KvellOptions &opts,
          std::vector<std::shared_ptr<sim::SsdDevice>> ssds);
    ~Kvell();

    Kvell(const Kvell &) = delete;
    Kvell &operator=(const Kvell &) = delete;

    Status put(uint64_t key, std::string_view value);
    Status get(uint64_t key, std::string *value);
    Status del(uint64_t key);
    Status scan(uint64_t start_key, size_t count,
                std::vector<std::pair<uint64_t, std::string>> *out);

    KvellStats &stats() { return stats_; }

    uint64_t ssdBytesWritten() const;

    /**
     * Drop all in-memory indexes and rebuild them by scanning every
     * slab page on every SSD (KVell's crash-recovery procedure).
     * @return wall-clock nanoseconds spent.
     */
    uint64_t recoverByFullScan();

    size_t size() const;

  private:
    static constexpr uint32_t kPageBytes = 4096;

    /** On-page slot header. */
    struct SlotHeader {
        uint64_t key;
        uint32_t value_len;  ///< 0 = free slot
        uint32_t valid;
    };

    /**
     * Slots are kPageBytes / slots-per-page wide, so a header need not
     * sit on an 8-byte boundary: copy it in and out, never cast in place.
     */
    static SlotHeader loadHeader(const uint8_t *slot);
    static void storeHeader(uint8_t *slot, const SlotHeader &hdr);

    enum class ReqType { kPut, kGet, kDel, kScanIndex };

    struct Request {
        ReqType type;
        uint64_t key = 0;
        std::string_view value_in;
        std::string *value_out = nullptr;
        uint64_t scan_start = 0;
        size_t scan_count = 0;
        std::vector<std::pair<uint64_t, std::string>> *scan_out = nullptr;
        Status status;
        Waiter waiter;
    };

    struct Page {
        std::vector<uint8_t> data;
        bool loaded = false;
    };

    /** One shared-nothing worker. */
    struct Worker {
        int id;
        sim::SsdDevice *ssd;
        uint64_t slab_base;   ///< device byte offset of this slab
        uint64_t slab_pages;

        std::mutex queue_mu;
        std::condition_variable queue_cv;
        std::deque<Request *> queue;

        // Worker-private state (worker thread only).
        std::map<uint64_t, uint64_t> index;  ///< key -> global slot id
        std::vector<uint64_t> free_slots;
        uint64_t bump_page = 0;

        // Page cache (worker-private share).
        uint64_t cache_budget;
        uint64_t cache_used = 0;
        std::list<uint64_t> cache_lru;  ///< front = most recent
        std::unordered_map<uint64_t,
                           std::pair<std::vector<uint8_t>,
                                     std::list<uint64_t>::iterator>>
            cache;

        std::thread thread;
    };

    int workerFor(uint64_t key) const;
    void workerLoop(Worker &w);
    void processBatch(Worker &w, std::vector<Request *> &batch);
    void processScan(Worker &w, Request &req);

    /** Cache helpers (worker thread only). */
    std::vector<uint8_t> *cacheLookup(Worker &w, uint64_t page);
    void cacheInsert(Worker &w, uint64_t page, std::vector<uint8_t> data);

    uint64_t slotsPerPage() const { return kPageBytes / slot_bytes_; }

    KvellOptions opts_;
    uint32_t slot_bytes_;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> completion_threads_;
    std::atomic<bool> stop_{false};
    KvellStats stats_;

    // Shared-by-name process-wide metrics (see common/stats.h). The
    // worker-batch histogram doubles as a per-shard imbalance signal:
    // skewed shards run systematically deeper batches.
    stats::Counter *reg_cache_hits_;
    stats::Counter *reg_cache_misses_;
    stats::LatencyStat *reg_worker_batch_;
};

}  // namespace prism::kvell
