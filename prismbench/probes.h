/**
 * @file
 * Measurement probes the benchmark wraps around the unmodified engine:
 *
 *  - SpanLog: the benchmark's own spans (name, start, end, causing span),
 *    kept in per-thread memory and written as Chrome trace JSON
 *    when the run ends. Recording is on only in the traced run.
 *  - TimedDevice: an io::IoBackend decorator around each simulated SSD
 *    (handed to the engine through core::ShardBackends). In the traced
 *    run it pairs every submit with its reaped completion by user_data
 *    and accumulates measured and modelled device time.
 *  - TimedStore: a ycsb::KvStore decorator between the RESP server and
 *    the shard router; in the traced run it records asyncGet/asyncPut
 *    submit -> callback spans and the mean GET time.
 *
 * Everything here observes through public engine interfaces only.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/shard_router.h"
#include "io/io_backend.h"
#include "sim/ssd_device.h"
#include "ycsb/kv_interface.h"

namespace prismbench {

/** Span names the benchmark records, one per layer boundary it wraps. */
enum class SpanKind : uint8_t {
    kCoreGet,   ///< client thread inside ShardRouter::get
    kCorePut,   ///< ... ShardRouter::put
    kCoreScan,  ///< ... ShardRouter::scan
    kSsdRead,   ///< device read, submit -> completion reaped
    kSsdWrite,  ///< device write, submit -> completion reaped
    kStoreGet,  ///< RESP server's asyncGet -> completion callback
    kStorePut,  ///< RESP server's asyncPut -> completion callback
    kWireGet,   ///< wire GET, scheduled send -> reply parsed
    kWirePut,   ///< wire SET, scheduled send -> reply parsed
};

const char *spanName(SpanKind kind);

/**
 * One recorded span. A device span's parent is the client op span whose
 * thread submitted the I/O; parent == 0: no causing span on record.
 */
struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    SpanKind kind = SpanKind::kCoreGet;
};

/**
 * Process-wide span recorder. Each thread appends to its own bounded
 * buffer (spans past the bound are dropped), so recording takes no
 * shared lock after a thread's first span.
 */
class SpanLog {
  public:
    static constexpr size_t kMaxPerThread = 20000;

    static bool on() { return on_.load(std::memory_order_relaxed); }
    static void setOn(bool v) { on_.store(v, std::memory_order_relaxed); }

    static uint64_t newId() {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }
    static void record(const Span &s);

    /** Span id the calling thread is currently inside (0 = none). */
    static uint64_t current();
    static void setCurrent(uint64_t id);

    /** Write every kept span as Chrome trace JSON. */
    static bool writeJson(const std::string &path);

  private:
    static std::atomic<bool> on_;
    static std::atomic<uint64_t> next_id_;
};

/** Sum/count pair for a mean, updated from any thread. */
struct MeanAcc {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> n{0};

    void add(uint64_t v) {
        sum.fetch_add(v, std::memory_order_relaxed);
        n.fetch_add(1, std::memory_order_relaxed);
    }
    double mean() const {
        const uint64_t c = n.load(std::memory_order_relaxed);
        return c ? static_cast<double>(sum.load(std::memory_order_relaxed)) /
                       static_cast<double>(c)
                 : 0.0;
    }
};

/** Device-side accumulators of one TimedDevice (traced run only). */
struct DeviceAcc {
    MeanAcc read_ns;          ///< submit -> completion reaped
    MeanAcc write_ns;
    MeanAcc device_read_ns;   ///< the device's own submit -> complete
    MeanAcc model_read_ns;    ///< DeviceProfile latency + transfer
    MeanAcc model_write_ns;
    MeanAcc batch;            ///< requests per submit call
    MeanAcc inflight;         ///< device in-flight count seen at submit
};

/** io::IoBackend decorator; see the file comment. */
class TimedDevice final : public prism::io::IoBackend {
  public:
    explicit TimedDevice(std::shared_ptr<prism::sim::SsdDevice> dev);

    using IoBackend::submit;
    prism::Status submit(std::span<const prism::io::IoRequest> batch)
        override;
    size_t pollCompletions(std::vector<prism::io::IoCompletion> &out,
                           size_t max) override;
    size_t waitCompletions(std::vector<prism::io::IoCompletion> &out,
                           size_t max, uint64_t timeout_us) override;
    prism::Status readSync(uint64_t offset, void *buf,
                           uint32_t length) override {
        return dev_->readSync(offset, buf, length);
    }
    prism::Status writeSync(uint64_t offset, const void *src,
                            uint32_t length) override {
        return dev_->writeSync(offset, src, length);
    }
    prism::Status flush() override { return dev_->flush(); }
    uint64_t capacity() const override { return dev_->capacity(); }
    uint64_t inflight() const override { return dev_->inflight(); }
    bool healthy() const override { return dev_->healthy(); }
    void setDropout(bool on) override { dev_->setDropout(on); }
    int deviceNumber() const override { return dev_->deviceNumber(); }
    prism::io::IoDeviceStats &stats() override { return dev_->stats(); }
    std::string_view kind() const override { return dev_->kind(); }

    const prism::sim::DeviceProfile &profile() const {
        return dev_->profile();
    }
    /** Accumulators shared by every TimedDevice of the process. */
    static DeviceAcc &acc();
    /** Drop unmatched submits (call when tracing is switched). */
    void resetPending();

  private:
    struct Pending {
        uint64_t submit_ns;
        uint64_t model_ns;
        uint64_t parent;
        bool is_read;
    };
    void reap(const std::vector<prism::io::IoCompletion> &out,
              size_t first);

    std::shared_ptr<prism::sim::SsdDevice> dev_;
    std::mutex mu_;
    std::unordered_map<uint64_t, Pending> pending_;  ///< guarded by mu_
};

/** ycsb::KvStore decorator over the router; see the file comment. */
class TimedStore final : public prism::ycsb::KvStore {
  public:
    explicit TimedStore(prism::core::ShardRouter &router)
        : router_(router) {}

    std::string name() const override { return "Prism"; }
    prism::Status put(uint64_t key, std::string_view value) override {
        return router_.put(key, value);
    }
    prism::Status get(uint64_t key, std::string *value) override {
        return router_.get(key, value);
    }
    prism::Status del(uint64_t key) override { return router_.del(key); }
    prism::Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override {
        return router_.scan(start, count, out);
    }
    prism::core::OpFuture
    asyncGet(uint64_t key, prism::core::AsyncCallback cb) override;
    prism::core::OpFuture
    asyncPut(uint64_t key, std::string_view value,
             prism::core::AsyncCallback cb) override;
    prism::core::OpFuture
    asyncDel(uint64_t key, prism::core::AsyncCallback cb) override {
        return router_.asyncDel(key, std::move(cb));
    }
    prism::core::OpFuture
    asyncScan(uint64_t start, size_t count,
              prism::core::AsyncCallback cb) override {
        return router_.asyncScan(start, count, std::move(cb));
    }

    MeanAcc get_ns;  ///< asyncGet -> callback (traced run only)

  private:
    prism::core::ShardRouter &router_;
};

}  // namespace prismbench
