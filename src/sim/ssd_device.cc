#include "sim/ssd_device.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/clock.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace prism::sim {

SsdDevice::SsdDevice(uint64_t capacity_bytes, const DeviceProfile &profile,
                     bool model_timing)
    : capacity_((capacity_bytes + kBlockSize - 1) & ~(kBlockSize - 1)),
      profile_(profile),
      model_timing_(model_timing),
      pages_((capacity_ + kPageSize - 1) / kPageSize),
      channel_free_at_(static_cast<size_t>(profile.internal_parallelism), 0),
      ins_(profile.internal_parallelism)
{
    PRISM_CHECK(capacity_bytes > 0);
    for (auto &p : pages_)
        p.store(nullptr, std::memory_order_relaxed);
    // Token-bucket rates are fixed at construction; benches set TimeScale
    // before creating devices. A scale < 1 compresses time, which shows up
    // here as proportionally higher effective bandwidth.
    const double scale = std::max(TimeScale::get(), 1e-6);
    read_bw_ = std::make_unique<TokenBucket>(
        profile.read_bw_bytes_per_sec / scale, 8 * 1024 * 1024);
    write_bw_ = std::make_unique<TokenBucket>(
        profile.write_bw_bytes_per_sec / scale, 8 * 1024 * 1024);
    auto &tracer = trace::TraceRegistry::global();
    trace_channel_tracks_.reserve(channel_free_at_.size());
    for (size_t c = 0; c < channel_free_at_.size(); c++) {
        trace_channel_tracks_.push_back(tracer.registerTrack(
            "ssd" + std::to_string(ins_.dev) + ".ch" +
            std::to_string(c)));
    }
}

SsdDevice::~SsdDevice()
{
    for (auto &p : pages_) {
        uint8_t *ptr = p.load(std::memory_order_relaxed);
        delete[] ptr;
    }
}

uint8_t *
SsdDevice::pageFor(uint64_t page_index, bool allocate)
{
    auto &slot = pages_[page_index];
    uint8_t *p = slot.load(std::memory_order_acquire);
    if (p != nullptr || !allocate)
        return p;
    std::lock_guard<std::mutex> lock(page_alloc_mu_);
    p = slot.load(std::memory_order_acquire);
    if (p == nullptr) {
        p = new uint8_t[kPageSize];
        std::memset(p, 0, kPageSize);
        slot.store(p, std::memory_order_release);
    }
    return p;
}

namespace {

/**
 * Page memory is shared between concurrent submitters and the
 * crash-capture path (`snapshotTo`), which deliberately reads pages
 * while writes are in flight — exactly how a power cut captures a drive
 * mid-DMA. Torn data is part of the modelled semantics (record CRCs
 * detect it); copying through relaxed atomics keeps that tearing from
 * being a C++ data race. The private side of each copy is plain memory.
 */
void
atomicStoreBytes(uint8_t *shared_dst, const uint8_t *src, uint32_t len)
{
    while (len > 0 &&
           (reinterpret_cast<uintptr_t>(shared_dst) & 7u) != 0) {
        reinterpret_cast<std::atomic<uint8_t> *>(shared_dst)->store(
            *src, std::memory_order_relaxed);
        shared_dst++, src++, len--;
    }
    while (len >= 8) {
        uint64_t v;
        std::memcpy(&v, src, 8);
        reinterpret_cast<std::atomic<uint64_t> *>(shared_dst)->store(
            v, std::memory_order_relaxed);
        shared_dst += 8, src += 8, len -= 8;
    }
    while (len > 0) {
        reinterpret_cast<std::atomic<uint8_t> *>(shared_dst)->store(
            *src, std::memory_order_relaxed);
        shared_dst++, src++, len--;
    }
}

void
atomicLoadBytes(uint8_t *dst, const uint8_t *shared_src, uint32_t len)
{
    while (len > 0 &&
           (reinterpret_cast<uintptr_t>(shared_src) & 7u) != 0) {
        *dst = reinterpret_cast<const std::atomic<uint8_t> *>(shared_src)
                   ->load(std::memory_order_relaxed);
        dst++, shared_src++, len--;
    }
    while (len >= 8) {
        const uint64_t v =
            reinterpret_cast<const std::atomic<uint64_t> *>(shared_src)
                ->load(std::memory_order_relaxed);
        std::memcpy(dst, &v, 8);
        dst += 8, shared_src += 8, len -= 8;
    }
    while (len > 0) {
        *dst = reinterpret_cast<const std::atomic<uint8_t> *>(shared_src)
                   ->load(std::memory_order_relaxed);
        dst++, shared_src++, len--;
    }
}

/**
 * A reaper sleeps to a due time given in ns; the default 50 us timer
 * slack would bill up to that much host wake-up delay as device time.
 */
void
setFineTimerSlack()
{
    thread_local bool set = false;
    if (!set) {
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        set = true;
    }
}

}  // namespace

void
SsdDevice::copyIn(uint64_t offset, const void *src, uint32_t len)
{
    const auto *s = static_cast<const uint8_t *>(src);
    while (len > 0) {
        const uint64_t page = offset / kPageSize;
        const uint64_t in_page = offset % kPageSize;
        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(len, kPageSize - in_page));
        atomicStoreBytes(pageFor(page, true) + in_page, s, n);
        offset += n;
        s += n;
        len -= n;
    }
}

void
SsdDevice::copyOut(uint64_t offset, void *dst, uint32_t len)
{
    auto *d = static_cast<uint8_t *>(dst);
    while (len > 0) {
        const uint64_t page = offset / kPageSize;
        const uint64_t in_page = offset % kPageSize;
        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(len, kPageSize - in_page));
        const uint8_t *p = pageFor(page, false);
        if (p == nullptr) {
            std::memset(d, 0, n);  // never-written blocks read as zero
        } else {
            atomicLoadBytes(d, p + in_page, n);
        }
        offset += n;
        d += n;
        len -= n;
    }
}

uint64_t
SsdDevice::serviceTimeNs(const SsdIoRequest &req, uint64_t now)
{
    const bool is_read = req.op == SsdIoRequest::Op::kRead;
    const double bw = is_read ? profile_.read_bw_bytes_per_sec
                              : profile_.write_bw_bytes_per_sec;
    const uint64_t media_lat = is_read ? profile_.read_latency_ns
                                       : profile_.write_latency_ns;
    const auto transfer_ns = static_cast<uint64_t>(
        static_cast<double>(req.length) / bw * 1e9);
    // Aggregate-bandwidth back-pressure: the bucket tells us how far the
    // device is oversubscribed; that delay queues ahead of the media time.
    const uint64_t bw_delay =
        (is_read ? read_bw_ : write_bw_)->acquire(req.length);
    return TimeScale::scaled(media_lat + transfer_ns) + bw_delay;
}

Status
SsdDevice::submit(std::span<const SsdIoRequest> batch)
{
    PRISM_TRACE_SPAN_VAR(submit_span, "ssd.submit");
    submit_span.arg(PRISM_TRACE_NID("reqs"), batch.size());
    if (model_timing_.load(std::memory_order_relaxed))
        spinFor(TimeScale::scaled(kSubmitOverheadNs));
    for (const auto &req : batch) {
        if (req.offset + req.length > capacity_)
            return Status::invalidArgument("I/O beyond device capacity");
        if (req.length == 0)
            return Status::invalidArgument("zero-length I/O");
    }

    // Fault-decision pass (io::DeviceInstruments): empty, and skipped
    // entirely, unless a fault site is armed or a dropout is active.
    std::vector<io::IoFault> faults;
    ins_.decideFaults(batch, faults);

    // Transfer data at submission; the completion only carries timing.
    // (Writes become durable at completion; an in-flight write lost to a
    // crash may thus survive in the backing store, which is benign: the
    // client treats it as unreferenced garbage, exactly as a completed-
    // but-unacknowledged write on real hardware.)
    for (size_t i = 0; i < batch.size(); i++) {
        const auto &req = batch[i];
        const uint32_t xfer = faults.empty() ? req.length : faults[i].xfer;
        if (req.op == SsdIoRequest::Op::kWrite) {
            PRISM_DCHECK(req.src != nullptr);
            if (xfer > 0)
                copyIn(req.offset, req.src, xfer);
        } else {
            PRISM_DCHECK(req.buf != nullptr);
            if (xfer > 0)
                copyOut(req.offset, req.buf, xfer);
        }
        ins_.account(stats_, req, xfer);
    }

    const uint64_t now = nowNs();
    const uint64_t depth =
        inflight_.fetch_add(batch.size(), std::memory_order_acq_rel) +
        batch.size();
    ins_.inflight->add(static_cast<int64_t>(batch.size()));
    io::DeviceInstruments::noteDepth(stats_, depth);

    bool new_earliest;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const uint64_t earliest =
            pending_.empty() ? UINT64_MAX : pending_.top().due_ns;
        const bool timed = model_timing_.load(std::memory_order_relaxed);
        for (size_t i = 0; i < batch.size(); i++) {
            const auto &req = batch[i];
            Pending p;
            p.due_ns = now;  // an untimed request is due at submit
            p.submit_ns = now;
            p.start_ns = now;
            if (timed) {
                uint64_t service = serviceTimeNs(req, now);
                if (!faults.empty())
                    service += faults[i].extra_ns;
                // Earliest-free internal channel serves the request.
                auto it = std::min_element(channel_free_at_.begin(),
                                           channel_free_at_.end());
                p.start_ns = std::max(now, *it);
                p.due_ns = p.start_ns + service;
                p.channel = static_cast<uint32_t>(
                    it - channel_free_at_.begin());
                *it = p.due_ns;
            }
            p.trace_id =
                (static_cast<uint64_t>(ins_.dev) << 48) |
                trace_req_seq_.fetch_add(1, std::memory_order_relaxed);
            p.completion = {req.user_data,
                            faults.empty() ? Status::ok()
                                           : faults[i].status,
                            0};
            pending_.push(std::move(p));
        }
        new_earliest = pending_.top().due_ns < earliest;
    }
    // Sleeping reapers aim at the old earliest due time; only a request
    // due sooner needs to re-aim them.
    if (new_earliest)
        cv_.notify_all();
    return Status::ok();
}

size_t
SsdDevice::reapDue(std::unique_lock<std::mutex> &lock,
                   std::vector<SsdCompletion> &out, size_t max)
{
    thread_local std::vector<Pending> due;
    due.clear();
    const uint64_t now = nowNs();
    while (!pending_.empty() && due.size() < max &&
           pending_.top().due_ns <= now) {
        due.push_back(pending_.top());
        pending_.pop();
    }
    lock.unlock();
    if (due.empty())
        return 0;
    if (trace::detail::tracingEnabled()) {
        // Reconstructed at reap: queue wait (submit -> channel pickup)
        // as an async interval on the reaper's track, and the service
        // time as an "X" span on the serving channel's own synthetic
        // track (channel occupancy never overlaps).
        for (const auto &p : due) {
            if (p.start_ns > p.submit_ns) {
                trace::asyncBegin(PRISM_TRACE_NID("ssd.queue_wait"),
                                  p.submit_ns, p.trace_id);
                trace::asyncEnd(PRISM_TRACE_NID("ssd.queue_wait"),
                                p.start_ns, p.trace_id);
            }
            if (p.due_ns > p.start_ns) {
                trace::spanAt(PRISM_TRACE_NID("ssd.service"),
                              p.start_ns, p.due_ns - p.start_ns,
                              trace_channel_tracks_[p.channel]);
            }
        }
    }
    uint64_t busy = 0;
    for (auto &p : due) {
        busy += p.due_ns - p.start_ns;
        p.completion.latency_ns = now - p.submit_ns;
        ins_.latency->record(p.completion.latency_ns);
        out.push_back(std::move(p.completion));
    }
    ins_.dev_busy_ns->add(busy);
    inflight_.fetch_sub(due.size(), std::memory_order_acq_rel);
    ins_.inflight->sub(static_cast<int64_t>(due.size()));
    return due.size();
}

size_t
SsdDevice::pollCompletions(std::vector<SsdCompletion> &out, size_t max)
{
    std::unique_lock<std::mutex> lock(mu_);
    return reapDue(lock, out, max);
}

size_t
SsdDevice::waitCompletions(std::vector<SsdCompletion> &out, size_t max,
                           uint64_t timeout_us)
{
    setFineTimerSlack();
    const uint64_t deadline = nowNs() + timeout_us * 1000;
    std::unique_lock<std::mutex> lock(mu_);
    for (uint64_t now = nowNs(); now < deadline; now = nowNs()) {
        const uint64_t due =
            pending_.empty() ? UINT64_MAX : pending_.top().due_ns;
        if (due <= now)
            break;
        cv_.wait_for(lock, std::chrono::nanoseconds(
                               std::min(due, deadline) - now));
    }
    return reapDue(lock, out, max);
}

Status
SsdDevice::readSync(uint64_t offset, void *buf, uint32_t length)
{
    if (offset + length > capacity_)
        return Status::invalidArgument("I/O beyond device capacity");
    const Status fault_st = ins_.syncFaultCheck(/*is_write=*/false);
    if (!fault_st.isOk())
        return fault_st;
    // Synchronous path: model the blocking pread an O_DIRECT caller sees.
    copyOut(offset, buf, length);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kRead;
    req.length = length;
    ins_.account(stats_, req, length);
    if (model_timing_.load(std::memory_order_relaxed)) {
        const uint64_t service = serviceTimeNs(req, nowNs());
        ins_.dev_busy_ns->add(service);
        delayFor(service);
    }
    return Status::ok();
}

Status
SsdDevice::writeSync(uint64_t offset, const void *src, uint32_t length)
{
    if (offset + length > capacity_)
        return Status::invalidArgument("I/O beyond device capacity");
    const Status fault_st = ins_.syncFaultCheck(/*is_write=*/true);
    if (!fault_st.isOk())
        return fault_st;
    copyIn(offset, src, length);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kWrite;
    req.length = length;
    ins_.account(stats_, req, length);
    if (model_timing_.load(std::memory_order_relaxed)) {
        const uint64_t service = serviceTimeNs(req, nowNs());
        ins_.dev_busy_ns->add(service);
        delayFor(service);
    }
    return Status::ok();
}

void
SsdDevice::simulateCrash()
{
    std::lock_guard<std::mutex> lock(mu_);
    const size_t dropped = pending_.size();
    pending_ = {};
    inflight_.fetch_sub(dropped, std::memory_order_acq_rel);
    ins_.inflight->sub(static_cast<int64_t>(dropped));
    std::fill(channel_free_at_.begin(), channel_free_at_.end(), 0);
}

void
SsdDevice::snapshotTo(std::vector<uint8_t> &out)
{
    out.resize(capacity_);
    constexpr uint64_t kStep = 1ull << 30;
    for (uint64_t off = 0; off < capacity_; off += kStep) {
        copyOut(off, out.data() + off, static_cast<uint32_t>(
            std::min(kStep, capacity_ - off)));
    }
}

void
SsdDevice::loadFrom(const std::vector<uint8_t> &image)
{
    PRISM_CHECK(image.size() <= capacity_);
    constexpr uint64_t kStep = 1ull << 30;
    for (uint64_t off = 0; off < image.size(); off += kStep) {
        copyIn(off, image.data() + off, static_cast<uint32_t>(
            std::min(kStep, image.size() - off)));
    }
}

void
SsdDevice::eraseAll()
{
    std::lock_guard<std::mutex> lock(page_alloc_mu_);
    for (auto &p : pages_) {
        uint8_t *ptr = p.exchange(nullptr, std::memory_order_acq_rel);
        delete[] ptr;
    }
}

}  // namespace prism::sim
