#include "kvell/kvell.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rand.h"

namespace prism::kvell {

Kvell::SlotHeader
Kvell::loadHeader(const uint8_t *slot)
{
    SlotHeader hdr;
    std::memcpy(&hdr, slot, sizeof(hdr));
    return hdr;
}

void
Kvell::storeHeader(uint8_t *slot, const SlotHeader &hdr)
{
    std::memcpy(slot, &hdr, sizeof(hdr));
}

Kvell::Kvell(const KvellOptions &opts,
             std::vector<std::shared_ptr<sim::SsdDevice>> ssds)
    : opts_(opts), ssds_(std::move(ssds))
{
    PRISM_CHECK(!ssds_.empty());
    auto &reg = stats::StatsRegistry::global();
    reg_cache_hits_ = &reg.counter("kvell.cache_hits", "ops");
    reg_cache_misses_ = &reg.counter("kvell.cache_misses", "ops");
    reg_worker_batch_ = &reg.histogram("kvell.worker_batch", "reqs");
    // Slot size: smallest divisor layout that fits item + header.
    const uint32_t need = opts_.item_bytes + sizeof(SlotHeader);
    uint32_t per_page = kPageBytes / need;
    if (per_page == 0)
        per_page = 1;
    slot_bytes_ = kPageBytes / per_page;
    PRISM_CHECK(slot_bytes_ >= sizeof(SlotHeader));

    const int total_workers =
        static_cast<int>(ssds_.size()) * opts_.workers_per_ssd;
    const uint64_t cache_share =
        opts_.page_cache_bytes / static_cast<uint64_t>(total_workers);
    for (int i = 0; i < total_workers; i++) {
        auto w = std::make_unique<Worker>();
        w->id = i;
        const size_t ssd_idx =
            static_cast<size_t>(i) % ssds_.size();
        w->ssd = ssds_[ssd_idx].get();
        const int on_this_ssd = opts_.workers_per_ssd;
        const uint64_t share = w->ssd->capacity() /
                               static_cast<uint64_t>(on_this_ssd);
        const auto rank = static_cast<uint64_t>(
            i / static_cast<int>(ssds_.size()));
        w->slab_base = (rank * share + kPageBytes - 1) &
                       ~(static_cast<uint64_t>(kPageBytes) - 1);
        w->slab_pages = share / kPageBytes;
        w->cache_budget = cache_share;
        workers_.push_back(std::move(w));
    }
    for (auto &w : workers_)
        w->thread = std::thread([this, &w] { workerLoop(*w); });
    // One completion poller per SSD routes async completions to waiters.
    for (auto &ssd : ssds_) {
        completion_threads_.emplace_back([this, ssd] {
            std::vector<sim::SsdCompletion> done;
            while (!stop_.load(std::memory_order_acquire)) {
                done.clear();
                if (ssd->waitCompletions(done, 256, 200) == 0)
                    continue;
                for (const auto &c : done)
                    reinterpret_cast<Waiter *>(c.user_data)->signal(1);
            }
        });
    }
}

Kvell::~Kvell()
{
    stop_.store(true, std::memory_order_release);
    for (auto &w : workers_) {
        w->queue_cv.notify_all();
        w->thread.join();
    }
    for (auto &t : completion_threads_)
        t.join();
}

int
Kvell::workerFor(uint64_t key) const
{
    return static_cast<int>(hash64(key) % workers_.size());
}

Status
Kvell::put(uint64_t key, std::string_view value)
{
    if (value.size() > opts_.item_bytes)
        return Status::invalidArgument("value exceeds slab item size");
    stats_.puts.fetch_add(1, std::memory_order_relaxed);
    stats_.user_bytes_written.fetch_add(value.size(),
                                        std::memory_order_relaxed);
    Request req;
    req.type = ReqType::kPut;
    req.key = key;
    req.value_in = value;
    auto &w = *workers_[workerFor(key)];
    {
        std::lock_guard<std::mutex> lock(w.queue_mu);
        w.queue.push_back(&req);
    }
    w.queue_cv.notify_one();
    req.waiter.wait();
    return req.status;
}

Status
Kvell::get(uint64_t key, std::string *value)
{
    stats_.gets.fetch_add(1, std::memory_order_relaxed);
    Request req;
    req.type = ReqType::kGet;
    req.key = key;
    req.value_out = value;
    auto &w = *workers_[workerFor(key)];
    {
        std::lock_guard<std::mutex> lock(w.queue_mu);
        w.queue.push_back(&req);
    }
    w.queue_cv.notify_one();
    req.waiter.wait();
    return req.status;
}

Status
Kvell::del(uint64_t key)
{
    Request req;
    req.type = ReqType::kDel;
    req.key = key;
    auto &w = *workers_[workerFor(key)];
    {
        std::lock_guard<std::mutex> lock(w.queue_mu);
        w.queue.push_back(&req);
    }
    w.queue_cv.notify_one();
    req.waiter.wait();
    return req.status;
}

Status
Kvell::scan(uint64_t start_key, size_t count,
            std::vector<std::pair<uint64_t, std::string>> *out)
{
    stats_.scans.fetch_add(1, std::memory_order_relaxed);
    // Fan the scan out to every worker (the key range is hash-scattered
    // over all of them), then merge the per-worker sorted results.
    std::vector<std::unique_ptr<Request>> reqs;
    std::vector<std::vector<std::pair<uint64_t, std::string>>> partials(
        workers_.size());
    // Each worker holds ~1/W of any key range; fetch a padded share from
    // each (occasionally under-filling the scan, as KVell's prefetch
    // heuristics do).
    const size_t per_worker =
        count * 3 / (workers_.size() * 2) + 2;
    for (size_t i = 0; i < workers_.size(); i++) {
        auto req = std::make_unique<Request>();
        req->type = ReqType::kScanIndex;
        req->scan_start = start_key;
        req->scan_count = std::min(count, per_worker);
        req->scan_out = &partials[i];
        {
            std::lock_guard<std::mutex> lock(workers_[i]->queue_mu);
            workers_[i]->queue.push_back(req.get());
        }
        workers_[i]->queue_cv.notify_one();
        reqs.push_back(std::move(req));
    }
    for (auto &req : reqs)
        req->waiter.wait();

    out->clear();
    std::vector<size_t> pos(workers_.size(), 0);
    while (out->size() < count) {
        size_t best = SIZE_MAX;
        uint64_t best_key = UINT64_MAX;
        for (size_t i = 0; i < partials.size(); i++) {
            if (pos[i] < partials[i].size() &&
                partials[i][pos[i]].first < best_key) {
                best_key = partials[i][pos[i]].first;
                best = i;
            }
        }
        if (best == SIZE_MAX)
            break;
        out->push_back(std::move(partials[best][pos[best]]));
        pos[best]++;
    }
    return Status::ok();
}

std::vector<uint8_t> *
Kvell::cacheLookup(Worker &w, uint64_t page)
{
    auto it = w.cache.find(page);
    if (it == w.cache.end()) {
        stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
        reg_cache_misses_->inc();
        return nullptr;
    }
    w.cache_lru.splice(w.cache_lru.begin(), w.cache_lru, it->second.second);
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    reg_cache_hits_->inc();
    return &it->second.first;
}

void
Kvell::cacheInsert(Worker &w, uint64_t page, std::vector<uint8_t> data)
{
    if (w.cache.count(page) > 0)
        return;
    w.cache_lru.push_front(page);
    w.cache_used += data.size();
    w.cache.emplace(page,
                    std::make_pair(std::move(data), w.cache_lru.begin()));
    while (w.cache_used > w.cache_budget && !w.cache_lru.empty()) {
        const uint64_t victim = w.cache_lru.back();
        w.cache_lru.pop_back();
        auto it = w.cache.find(victim);
        w.cache_used -= it->second.first.size();
        w.cache.erase(it);
    }
}

void
Kvell::workerLoop(Worker &w)
{
    std::vector<Request *> batch;
    while (true) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(w.queue_mu);
            w.queue_cv.wait(lock, [&] {
                return stop_.load(std::memory_order_acquire) ||
                       !w.queue.empty();
            });
            if (stop_.load(std::memory_order_acquire) && w.queue.empty())
                return;
            while (!w.queue.empty() &&
                   batch.size() < static_cast<size_t>(opts_.queue_depth)) {
                batch.push_back(w.queue.front());
                w.queue.pop_front();
            }
        }
        reg_worker_batch_->record(batch.size());
        processBatch(w, batch);
    }
}

void
Kvell::processBatch(Worker &w, std::vector<Request *> &batch)
{
    // Pages touched by this batch are staged in a local map (pinned for
    // the batch's duration — the LRU cache may evict at any time), then
    // published to the cache at the end.
    std::unordered_map<uint64_t, std::vector<uint8_t>> local;

    // Phase 1: figure out which pages each request needs and read every
    // uncached one in a single asynchronous batch (queue-depth I/O).
    struct PendingIo {
        uint64_t page;
        std::vector<uint8_t> buf;
        Waiter waiter;
    };
    std::vector<std::unique_ptr<PendingIo>> reads;
    auto needPage = [&](uint64_t page) {
        if (local.count(page) > 0)
            return;
        if (std::vector<uint8_t> *cached = cacheLookup(w, page)) {
            local[page] = *cached;
            return;
        }
        for (const auto &r : reads) {
            if (r->page == page)
                return;
        }
        auto io = std::make_unique<PendingIo>();
        io->page = page;
        io->buf.resize(kPageBytes);
        reads.push_back(std::move(io));
    };

    const uint64_t spp = slotsPerPage();
    for (Request *req : batch) {
        switch (req->type) {
          case ReqType::kPut: {
            auto it = w.index.find(req->key);
            if (it != w.index.end()) {
                needPage(it->second / spp);  // read-modify-write
            } else if (!w.free_slots.empty()) {
                needPage(w.free_slots.back() / spp);
            }
            // Fresh bump-allocated pages start zeroed; no read needed.
            break;
          }
          case ReqType::kGet:
          case ReqType::kDel: {
            auto it = w.index.find(req->key);
            if (it != w.index.end())
                needPage(it->second / spp);
            break;
          }
          case ReqType::kScanIndex:
            // Performs its own page I/O; the completion signal happens
            // with the rest of the batch (the request object must stay
            // untouched by us after it is signalled).
            processScan(w, *req);
            break;
        }
    }

    if (!reads.empty()) {
        std::vector<sim::SsdIoRequest> ios;
        ios.reserve(reads.size());
        for (auto &r : reads) {
            sim::SsdIoRequest io;
            io.op = sim::SsdIoRequest::Op::kRead;
            io.offset = w.slab_base + r->page * kPageBytes;
            io.length = kPageBytes;
            io.buf = r->buf.data();
            io.user_data = reinterpret_cast<uint64_t>(&r->waiter);
            ios.push_back(io);
        }
        w.ssd->submit({ios.data(), ios.size()});
        for (auto &r : reads) {
            r->waiter.wait();
            local[r->page] = std::move(r->buf);
        }
    }

    // Phase 2: apply each request against the staged pages and collect
    // dirty pages for one asynchronous write batch.
    std::vector<uint64_t> dirty;
    auto markDirty = [&](uint64_t page) {
        if (std::find(dirty.begin(), dirty.end(), page) == dirty.end())
            dirty.push_back(page);
    };

    for (Request *req : batch) {
        switch (req->type) {
          case ReqType::kPut: {
            uint64_t slot;
            auto it = w.index.find(req->key);
            if (it != w.index.end()) {
                slot = it->second;
            } else if (!w.free_slots.empty()) {
                slot = w.free_slots.back();
                w.free_slots.pop_back();
                w.index[req->key] = slot;
            } else {
                if (w.bump_page >= w.slab_pages) {
                    req->status = Status::outOfSpace("slab full");
                    break;
                }
                const uint64_t page = w.bump_page++;
                local[page] = std::vector<uint8_t>(kPageBytes, 0);
                slot = page * spp;
                for (uint64_t s = 1; s < spp; s++)
                    w.free_slots.push_back(page * spp + s);
                w.index[req->key] = slot;
            }
            const uint64_t page = slot / spp;
            auto lit = local.find(page);
            PRISM_CHECK(lit != local.end());
            uint8_t *slot_p =
                lit->second.data() + (slot % spp) * slot_bytes_;
            storeHeader(slot_p,
                        {req->key,
                         static_cast<uint32_t>(req->value_in.size()), 1});
            std::memcpy(slot_p + sizeof(SlotHeader), req->value_in.data(),
                        req->value_in.size());
            markDirty(page);
            req->status = Status::ok();
            break;
          }
          case ReqType::kGet: {
            auto it = w.index.find(req->key);
            if (it == w.index.end()) {
                req->status = Status::notFound();
                break;
            }
            const uint64_t page = it->second / spp;
            auto lit = local.find(page);
            PRISM_CHECK(lit != local.end());
            const uint8_t *slot_p =
                lit->second.data() + (it->second % spp) * slot_bytes_;
            req->value_out->assign(
                reinterpret_cast<const char *>(slot_p + sizeof(SlotHeader)),
                loadHeader(slot_p).value_len);
            req->status = Status::ok();
            break;
          }
          case ReqType::kDel: {
            auto it = w.index.find(req->key);
            if (it == w.index.end()) {
                req->status = Status::notFound();
                break;
            }
            const uint64_t slot = it->second;
            const uint64_t page = slot / spp;
            auto lit = local.find(page);
            PRISM_CHECK(lit != local.end());
            uint8_t *slot_p =
                lit->second.data() + (slot % spp) * slot_bytes_;
            SlotHeader hdr = loadHeader(slot_p);
            hdr.valid = 0;
            hdr.value_len = 0;
            storeHeader(slot_p, hdr);
            w.index.erase(it);
            w.free_slots.push_back(slot);
            markDirty(page);
            req->status = Status::ok();
            break;
          }
          case ReqType::kScanIndex:
            break;  // handled in phase 1
        }
    }

    if (!dirty.empty()) {
        std::vector<std::unique_ptr<PendingIo>> writes;
        std::vector<sim::SsdIoRequest> ios;
        for (const uint64_t page : dirty) {
            auto io = std::make_unique<PendingIo>();
            io->page = page;
            auto lit = local.find(page);
            PRISM_CHECK(lit != local.end());
            sim::SsdIoRequest w_io;
            w_io.op = sim::SsdIoRequest::Op::kWrite;
            w_io.offset = w.slab_base + page * kPageBytes;
            w_io.length = kPageBytes;
            w_io.src = lit->second.data();
            w_io.user_data = reinterpret_cast<uint64_t>(&io->waiter);
            ios.push_back(w_io);
            writes.push_back(std::move(io));
        }
        w.ssd->submit({ios.data(), ios.size()});
        for (auto &io : writes)
            io->waiter.wait();
    }

    // Publish the batch's pages to the cache (refreshing stale copies).
    for (auto &[page, data] : local) {
        if (std::vector<uint8_t> *cached = cacheLookup(w, page))
            *cached = data;
        else
            cacheInsert(w, page, std::move(data));
    }

    for (Request *req : batch)
        req->waiter.signal();
}

void
Kvell::processScan(Worker &w, Request &req)
{
    const uint64_t spp = slotsPerPage();
    auto it = w.index.lower_bound(req.scan_start);
    std::vector<std::pair<uint64_t, uint64_t>> hits;  // key, slot
    while (it != w.index.end() && hits.size() < req.scan_count) {
        hits.emplace_back(it->first, it->second);
        ++it;
    }
    // Read the needed pages (dedup) in one async batch, staging them in
    // a local pinned map (the LRU cache may evict between uses).
    std::unordered_map<uint64_t, std::vector<uint8_t>> local;
    struct PendingIo {
        uint64_t page;
        std::vector<uint8_t> buf;
        Waiter waiter;
    };
    std::vector<std::unique_ptr<PendingIo>> reads;
    for (const auto &[key, slot] : hits) {
        const uint64_t page = slot / spp;
        if (local.count(page) > 0)
            continue;
        if (std::vector<uint8_t> *cached = cacheLookup(w, page)) {
            local[page] = *cached;
            continue;
        }
        bool pending = false;
        for (const auto &r : reads)
            pending |= r->page == page;
        if (pending)
            continue;
        auto io = std::make_unique<PendingIo>();
        io->page = page;
        io->buf.resize(kPageBytes);
        reads.push_back(std::move(io));
    }
    if (!reads.empty()) {
        std::vector<sim::SsdIoRequest> ios;
        for (auto &r : reads) {
            sim::SsdIoRequest io;
            io.op = sim::SsdIoRequest::Op::kRead;
            io.offset = w.slab_base + r->page * kPageBytes;
            io.length = kPageBytes;
            io.buf = r->buf.data();
            io.user_data = reinterpret_cast<uint64_t>(&r->waiter);
            ios.push_back(io);
        }
        w.ssd->submit({ios.data(), ios.size()});
        for (auto &r : reads) {
            r->waiter.wait();
            local[r->page] = std::move(r->buf);
        }
    }
    for (const auto &[key, slot] : hits) {
        auto lit = local.find(slot / spp);
        PRISM_CHECK(lit != local.end());
        const uint8_t *slot_p =
            lit->second.data() + (slot % spp) * slot_bytes_;
        req.scan_out->emplace_back(
            key, std::string(reinterpret_cast<const char *>(
                                 slot_p + sizeof(SlotHeader)),
                             loadHeader(slot_p).value_len));
    }
    for (auto &[page, data] : local) {
        if (cacheLookup(w, page) == nullptr)
            cacheInsert(w, page, std::move(data));
    }
    req.status = Status::ok();
}

uint64_t
Kvell::ssdBytesWritten() const
{
    uint64_t total = 0;
    for (const auto &ssd : ssds_)
        total += ssd->stats().bytes_written.load(std::memory_order_relaxed);
    return total;
}

size_t
Kvell::size() const
{
    // Racy against concurrent writers; used quiesced by tests/benches.
    size_t total = 0;
    for (const auto &w : workers_)
        total += w->index.size();
    return total;
}

uint64_t
Kvell::recoverByFullScan()
{
    const uint64_t t0 = nowNs();
    const uint64_t spp = slotsPerPage();
    for (auto &w : workers_) {
        w->index.clear();
        w->free_slots.clear();
        std::vector<uint8_t> page(kPageBytes);
        // KVell must scan every allocated slab page on the device.
        for (uint64_t p = 0; p < w->bump_page; p++) {
            w->ssd->readSync(w->slab_base + p * kPageBytes, page.data(),
                             kPageBytes);
            for (uint64_t s = 0; s < spp; s++) {
                const SlotHeader hdr =
                    loadHeader(page.data() + s * slot_bytes_);
                if (hdr.valid != 0)
                    w->index[hdr.key] = p * spp + s;
                else
                    w->free_slots.push_back(p * spp + s);
            }
        }
    }
    return nowNs() - t0;
}

}  // namespace prism::kvell
