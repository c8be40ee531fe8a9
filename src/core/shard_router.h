/**
 * @file
 * ShardRouter — N independent PrismDb shards behind one PrismDb-shaped
 * API (ROADMAP item 3; the KVell comparator's shared-nothing pattern
 * applied to Prism's full stack).
 *
 * Why: a single PrismDb tops out well below linear scaling because
 * every client thread contends on one PacTree directory, one SVC and
 * one HSIT. The router hash-partitions the key space over N shards —
 * each shard a complete PrismDb with its *own* pmem region, PWBs, SVC,
 * HSIT and an *exclusive* slice of the SSD fleet (a device never
 * serves two shards; each ValueStorage owns its device) — so the hot
 * structures are private per shard and only deliberately-shared pieces
 * remain shared:
 *
 *  - one BgPool for all shards, with per-shard round-robin fairness
 *    (each shard registers a BgPool source; see core/bg_pool.h), so
 *    background capacity follows load instead of being statically
 *    split N ways;
 *  - the process-wide stats registry / telemetry / tracer, as always.
 *
 * The router is the only owner of process-wide ops machinery: it arms
 * fault schedules, applies tracer options, starts and stops telemetry
 * and the profiler, installs crash handlers and runs the HTTP ops
 * endpoint, each once per router. Its shards only store, recover and
 * run their own background work.
 *
 * Placement: on multi-node machines each shard is assigned a NUMA node
 * round-robin (common/numa.h) and its background threads (reclaimer,
 * GC scheduler, VS completion) are pinned there; single-node machines
 * run unpinned. The assignment is surfaced per shard as
 * prism.shard.<n>.node and the per-shard key count as
 * prism.shard.<n>.keys (published with the fleet occupancy gauges by
 * publishOccupancy()), plus a prism.shard.<n>.ops counter on the
 * routing hot path.
 *
 * Routing: shardOf(key) = hash64(key) & (N-1); N must be a power of
 * two. hash64 is splitmix64's finalizer — the same scrambling the YCSB
 * generators use, so partitions stay balanced even for dense
 * sequential key spaces. With N == 1 every router method forwards
 * straight to the single shard with no hashing, no fan-out machinery
 * and no merge — bit-identical to using PrismDb directly.
 *
 * Cross-shard semantics:
 *  - scan(start, count): each shard returns its own count-smallest
 *    keys >= start (shards are internally sorted); the global
 *    count-smallest are a subset of that union, so a k-way heap merge
 *    of the per-shard runs, truncated to count, is exact.
 *  - multiGet(keys): keys are bucketed per shard (remembering caller
 *    positions), fanned out shard-parallel, and the results written
 *    back into caller order — the output is indistinguishable from a
 *    single-shard multiGet.
 *  - Consistency is per-key (exactly PrismDb's guarantee): there is no
 *    cross-shard snapshot, and none is promised by the single-shard
 *    API either.
 */
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/async.h"
#include "core/bg_pool.h"
#include "core/options.h"
#include "core/prism_db.h"
#include "io/io_backend.h"
#include "pmem/pmem_region.h"

namespace prism::obs {
class ObsServer;
struct HealthReport;
}  // namespace prism::obs

namespace prism::core {

/**
 * Aggregate fault/degradation posture of the store (docs/FAULTS.md):
 * how much injected-fault and retry machinery has engaged since the
 * process started, and whether any SSD is currently dropped out. The
 * counters are process-wide (like the stats registry), so per-run
 * accounting should diff two snapshots.
 */
struct ErrorBudget {
    uint64_t faults_fired = 0;        ///< prism.fault.fired
    uint64_t ssd_io_errors = 0;       ///< sim.ssd.io_errors (injected)
    uint64_t pwb_retries = 0;         ///< chunk-write retry submissions
    uint64_t pwb_write_failures = 0;  ///< chunks abandoned after retries
    uint64_t pwb_requeued_values = 0; ///< records clamped back into rings
    uint64_t vs_retries = 0;          ///< VS read retries / GC skips
    uint64_t vs_degraded = 0;         ///< GC passes skipped, sick device
    uint64_t bg_task_faults = 0;      ///< injected bg-task failures
    uint64_t degraded_devices = 0;    ///< SSDs currently in dropout

    /** True while at least one SSD is refusing writes. */
    bool degraded() const { return degraded_devices > 0; }
};

/** Everything one shard owns exclusively. */
struct ShardBackends {
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<io::IoBackend>> devices;
};

/** Hash-partitioning front-end over N PrismDb shards. */
class ShardRouter {
  public:
    /**
     * Open (format=true) or recover (format=false) an N-shard store.
     * N = backends.size(); must be a power of two. @p opts applies to
     * every shard (the router overrides opts.numa_node per shard on
     * multi-node machines; opts.bg_workers sizes the one shared pool).
     */
    ShardRouter(const PrismOptions &opts,
                std::vector<ShardBackends> backends, bool format);
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    static std::unique_ptr<ShardRouter>
    open(const PrismOptions &opts, std::vector<ShardBackends> backends)
    {
        return std::make_unique<ShardRouter>(opts, std::move(backends),
                                             true);
    }
    static std::unique_ptr<ShardRouter>
    recover(const PrismOptions &opts, std::vector<ShardBackends> backends)
    {
        return std::make_unique<ShardRouter>(opts, std::move(backends),
                                             false);
    }

    /**
     * Resolve the effective shard count from PrismOptions::shards:
     * 0 defers to $PRISM_SHARDS, then 1. Result is validated to be a
     * power of two in [1, 256].
     */
    static int resolveShardCount(int opt_shards);

    /** @name Routing */
    ///@{
    static size_t shardOf(uint64_t key, size_t shard_count);
    size_t shardOfKey(uint64_t key) const {
        return shardOf(key, shards_.size());
    }
    size_t shardCount() const { return shards_.size(); }
    PrismDb &shard(size_t i) { return *shards_[i]; }
    const PrismDb &shard(size_t i) const { return *shards_[i]; }
    BgPool &bgPool() { return *pool_; }
    /** NUMA node shard @p i's background threads prefer (-1 unpinned). */
    int shardNode(size_t i) const { return shard_nodes_[i]; }
    ///@}

    /** @name Store operations (PrismDb contract, routed) */
    ///@{
    Status put(uint64_t key, std::string_view value);
    Status get(uint64_t key, std::string *value);
    Status del(uint64_t key);
    Status scan(uint64_t start_key, size_t count,
                std::vector<std::pair<uint64_t, std::string>> *out);
    Status multiGet(const std::vector<uint64_t> &keys,
                    std::vector<std::optional<std::string>> *out);
    ///@}

    /** @name Asynchronous operations (core/async.h, routed) */
    ///@{
    OpFuture asyncPut(uint64_t key, std::string_view value,
                      AsyncCallback cb = nullptr);
    OpFuture asyncGet(uint64_t key, AsyncCallback cb = nullptr);
    OpFuture asyncDel(uint64_t key, AsyncCallback cb = nullptr);
    /**
     * Cross-shard async scan: runs the merged scan as one task on the
     * shared pool (a scan is a multi-batch pipeline, not a single I/O).
     */
    OpFuture asyncScan(uint64_t start_key, size_t count,
                       AsyncCallback cb = nullptr);
    uint64_t asyncInflight() const;
    ///@}

    /** @name Maintenance / introspection (aggregated over shards) */
    ///@{
    void flushAll();
    void forceGc();
    size_t size() const;
    stats::StatsSnapshot stats() const {
        return stats::StatsRegistry::global().snapshot();
    }
    /**
     * Fleet error budget: injected-fault fires, retry and re-queue
     * activity (process-wide registry counters), and the number of
     * currently dropped-out SSDs over every shard's device slice, so a
     * dropout anywhere flips degraded(). Cheap enough to poll.
     */
    ErrorBudget errorBudget() const;

    /**
     * /healthz + /readyz payload aggregated over the fleet
     * (common/obs_server.h): 200/503 flags plus an error-budget JSON
     * body. Also the in-process render behind `prism_cli healthz`.
     */
    obs::HealthReport healthReport() const;

    /**
     * Refresh the fleet occupancy gauges (prism.pwb.used_bytes /
     * capacity_bytes and prism.svc.used_bytes / capacity_bytes, summed
     * over every shard) and the per-shard key gauges. Registered as a
     * telemetry probe and run before every /metrics render; also
     * useful before a manual snapshot.
     */
    void publishOccupancy();

    /** Bound port of the router's HTTP ops endpoint, 0 when off. */
    int obsPort() const;
    uint64_t ssdBytesWritten() const;
    uint64_t nvmIndexBytes() const;

    /** Flat view over every shard's Value Storages (shard-major). */
    size_t valueStorageCount() const;
    ValueStorage &valueStorage(size_t global_idx) const;

    /**
     * The process-wide telemetry sampler/ring (common/telemetry.h):
     * windowed rate series over every registry metric plus per-layer
     * busy-ns and per-device utilization. Started at open when
     * PrismOptions::telemetry_interval_ms > 0.
     */
    telemetry::Telemetry &telemetry() const {
        return telemetry::Telemetry::global();
    }
    /**
     * Captured slow operations, worst first (ops slower than
     * PrismOptions::trace_slow_op_us; see common/trace.h).
     */
    std::vector<trace::SlowOp> slowOps() const {
        return trace::TraceRegistry::global().slowOps();
    }
    /**
     * Wall-clock ns spent constructing the shards. Recovery is
     * *sequential* across shards on purpose: fault-injection triggers
     * (common/fault.h) count process-wide, so a deterministic shard
     * order is what makes N-shard crash replay reproducible
     * (prism_torture --shards).
     */
    uint64_t recoveryTimeNs() const { return recovery_ns_; }
    ///@}

  private:
    PrismOptions opts_;
    std::shared_ptr<BgPool> pool_;
    std::vector<std::unique_ptr<PrismDb>> shards_;
    std::vector<int> shard_nodes_;

    /** Per-shard routed-op counters / gauges (prism.shard.<n>.*). */
    std::vector<stats::Counter *> reg_shard_ops_;
    std::vector<stats::Gauge *> reg_shard_keys_;
    std::vector<stats::Gauge *> reg_shard_node_;

    /** Router-level async scans on the pool; drained by the dtor. */
    std::atomic<uint64_t> async_scan_inflight_{0};

    /** Fleet occupancy gauges (publishOccupancy()). */
    stats::Gauge *reg_pwb_used_;
    stats::Gauge *reg_pwb_capacity_;
    stats::Gauge *reg_svc_used_;
    stats::Gauge *reg_svc_capacity_;

    /** Telemetry probe id, and whether this router started the sampler
     *  / the profiler (the process-wide owner stops them at close). */
    int telemetry_probe_ = -1;
    bool telemetry_started_ = false;
    bool owns_prof_ = false;
    uint64_t recovery_ns_ = 0;

    /** Fleet-wide HTTP ops endpoint; stopped first in the destructor. */
    std::unique_ptr<obs::ObsServer> obs_;
};

}  // namespace prism::core
