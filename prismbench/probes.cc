#include "probes.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/clock.h"

namespace prismbench {

using prism::Status;
using prism::io::IoCompletion;
using prism::io::IoRequest;

std::atomic<bool> SpanLog::on_{false};
std::atomic<uint64_t> SpanLog::next_id_{1};

namespace {

struct ThreadSpans {
    int tid = 0;
    std::mutex mu;            // uncontended: only writeJson reads
    std::vector<Span> spans;  // guarded by mu
};

std::mutex g_threads_mu;
std::vector<std::shared_ptr<ThreadSpans>> g_threads;  // guarded by above

ThreadSpans &
threadSpans()
{
    thread_local std::shared_ptr<ThreadSpans> mine = [] {
        auto t = std::make_shared<ThreadSpans>();
        std::lock_guard<std::mutex> lock(g_threads_mu);
        t->tid = static_cast<int>(g_threads.size()) + 1;
        g_threads.push_back(t);
        return t;
    }();
    return *mine;
}

thread_local uint64_t t_current = 0;

}  // namespace

const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::kCoreGet: return "core.get";
      case SpanKind::kCorePut: return "core.put";
      case SpanKind::kCoreScan: return "core.scan";
      case SpanKind::kSsdRead: return "ssd.read";
      case SpanKind::kSsdWrite: return "ssd.write";
      case SpanKind::kStoreGet: return "net.store_get";
      case SpanKind::kStorePut: return "net.store_put";
      case SpanKind::kWireGet: return "net.wire_get";
      case SpanKind::kWirePut: return "net.wire_put";
    }
    return "?";
}

void
SpanLog::record(const Span &s)
{
    ThreadSpans &t = threadSpans();
    std::lock_guard<std::mutex> lock(t.mu);
    if (t.spans.size() < kMaxPerThread)
        t.spans.push_back(s);
}

uint64_t SpanLog::current() { return t_current; }
void SpanLog::setCurrent(uint64_t id) { t_current = id; }

bool
SpanLog::writeJson(const std::string &path)
{
    std::vector<std::shared_ptr<ThreadSpans>> threads;
    {
        std::lock_guard<std::mutex> lock(g_threads_mu);
        threads = g_threads;
    }
    std::vector<std::pair<int, std::vector<Span>>> copies;
    uint64_t base = UINT64_MAX;
    for (const auto &t : threads) {
        std::lock_guard<std::mutex> lock(t->mu);
        copies.emplace_back(t->tid, t->spans);
        for (const auto &s : t->spans)
            base = std::min(base, s.start_ns);
    }
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const auto &[tid, spans] : copies) {
        for (const auto &s : spans) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
                         first ? "" : ",", spanName(s.kind), tid,
                         static_cast<double>(s.start_ns - base) / 1e3,
                         static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                         s.id, s.parent);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TimedDevice

TimedDevice::TimedDevice(std::shared_ptr<prism::sim::SsdDevice> dev)
    : dev_(std::move(dev))
{
}

DeviceAcc &
TimedDevice::acc()
{
    static DeviceAcc a;
    return a;
}

void
TimedDevice::resetPending()
{
    std::lock_guard<std::mutex> lock(mu_);
    pending_.clear();
}

Status
TimedDevice::submit(std::span<const IoRequest> batch)
{
    if (!SpanLog::on())
        return dev_->submit(batch);

    const auto &prof = dev_->profile();
    const uint64_t now = prism::nowNs();
    const uint64_t parent = SpanLog::current();
    acc().batch.add(batch.size());
    acc().inflight.add(dev_->inflight());
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &req : batch) {
            const bool rd = req.op == IoRequest::Op::kRead;
            const double bw = rd ? prof.read_bw_bytes_per_sec
                                 : prof.write_bw_bytes_per_sec;
            const uint64_t model = prism::TimeScale::scaled(
                (rd ? prof.read_latency_ns : prof.write_latency_ns) +
                static_cast<uint64_t>(static_cast<double>(req.length) /
                                      bw * 1e9));
            pending_[req.user_data] = {now, model, parent, rd};
        }
    }
    const Status st = dev_->submit(batch);
    if (!st.isOk()) {
        // A rejected batch produces no completions (IoBackend contract).
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &req : batch)
            pending_.erase(req.user_data);
    }
    return st;
}

void
TimedDevice::reap(const std::vector<IoCompletion> &out, size_t first)
{
    if (!SpanLog::on() || first == out.size())
        return;
    const uint64_t now = prism::nowNs();
    DeviceAcc &a = acc();
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = first; i < out.size(); i++) {
        auto it = pending_.find(out[i].user_data);
        if (it == pending_.end())
            continue;  // submitted before tracing was switched on
        const Pending p = it->second;
        pending_.erase(it);
        const uint64_t dur = now - p.submit_ns;
        if (p.is_read) {
            a.read_ns.add(dur);
            a.device_read_ns.add(out[i].latency_ns);
            a.model_read_ns.add(p.model_ns);
        } else {
            a.write_ns.add(dur);
            a.model_write_ns.add(p.model_ns);
        }
        SpanLog::record({SpanLog::newId(), p.parent, p.submit_ns, now,
                         p.is_read ? SpanKind::kSsdRead
                                   : SpanKind::kSsdWrite});
    }
}

size_t
TimedDevice::pollCompletions(std::vector<IoCompletion> &out, size_t max)
{
    const size_t first = out.size();
    const size_t n = dev_->pollCompletions(out, max);
    reap(out, first);
    return n;
}

size_t
TimedDevice::waitCompletions(std::vector<IoCompletion> &out, size_t max,
                             uint64_t timeout_us)
{
    const size_t first = out.size();
    const size_t n = dev_->waitCompletions(out, max, timeout_us);
    reap(out, first);
    return n;
}

// ---------------------------------------------------------------------------
// TimedStore

prism::core::OpFuture
TimedStore::asyncGet(uint64_t key, prism::core::AsyncCallback cb)
{
    if (!SpanLog::on())
        return router_.asyncGet(key, std::move(cb));
    const uint64_t t0 = prism::nowNs();
    return router_.asyncGet(
        key, [this, t0, cb = std::move(cb)](const Status &st) {
            const uint64_t t1 = prism::nowNs();
            get_ns.add(t1 - t0);
            SpanLog::record({SpanLog::newId(), 0, t0, t1,
                             SpanKind::kStoreGet});
            if (cb)
                cb(st);
        });
}

prism::core::OpFuture
TimedStore::asyncPut(uint64_t key, std::string_view value,
                     prism::core::AsyncCallback cb)
{
    if (!SpanLog::on())
        return router_.asyncPut(key, value, std::move(cb));
    const uint64_t t0 = prism::nowNs();
    return router_.asyncPut(
        key, value, [t0, cb = std::move(cb)](const Status &st) {
            SpanLog::record({SpanLog::newId(), 0, t0, prism::nowNs(),
                             SpanKind::kStorePut});
            if (cb)
                cb(st);
        });
}

}  // namespace prismbench
