/**
 * @file
 * Configuration for a PrismDb instance.
 *
 * Defaults reflect the paper's setup scaled to a single-machine
 * simulation: 512 KB Value Storage chunks, queue depth 64, a 50% PWB
 * reclamation watermark, and a 2Q SVC. Feature flags expose the ablations
 * of §7.6 (thread combining vs timeout batching, SVC on/off, scan-aware
 * reorganisation on/off).
 */
#pragma once

#include <cstdint>
#include <string>

namespace prism::core {

/** How Value Storage reads are batched (§5.3, Figure 11). */
enum class ReadBatchMode {
    /** Opportunistic thread combining via the TCQ (Prism's scheme). */
    kThreadCombining,
    /** Timeout-based batching: wait up to a fixed period for more
     *  requests before submitting (the paper's "TA" comparison point). */
    kTimeoutAsync,
    /** No batching: each read is submitted alone (queue depth 1). */
    kNone,
};

/** Tunables for one PrismDb instance. */
struct PrismOptions {
    /** @name Persistent Write Buffer (§4.3) */
    ///@{
    /** Per-thread PWB capacity in bytes. */
    uint64_t pwb_size_bytes = 16ull * 1024 * 1024;
    /** Utilization fraction that triggers background reclamation. */
    double pwb_reclaim_watermark = 0.5;
    ///@}

    /** @name Value Storage (§4.2, §5.1) */
    ///@{
    /** Chunk size; the paper uses 512 KB for SSD-friendly writes. */
    uint64_t chunk_bytes = 512 * 1024;
    /** Utilization fraction that triggers garbage collection. */
    double vs_gc_watermark = 0.80;
    /** Number of victim chunks merged per GC pass. */
    int gc_victims_per_pass = 4;
    ///@}

    /** @name Scan-aware Value Cache (§4.4) */
    ///@{
    bool enable_svc = true;
    /** Total DRAM budget for cached values. */
    uint64_t svc_capacity_bytes = 256ull * 1024 * 1024;
    /** Reorganise scan ranges on eviction (ablation §7.6). */
    bool enable_scan_reorg = true;
    ///@}

    /** @name Read batching (§5.3) */
    ///@{
    ReadBatchMode read_batch_mode = ReadBatchMode::kThreadCombining;
    /** Coalescing limit (io_uring queue depth); the paper uses 64. */
    int read_queue_depth = 64;
    /** TA mode: wait this long for more requests before submitting. */
    uint64_t timeout_batch_us = 100;
    ///@}

    /** @name HSIT sizing (§4.5) */
    ///@{
    /** Maximum number of live keys (HSIT entries are preallocated). */
    uint64_t hsit_capacity = 4ull * 1024 * 1024;
    ///@}

    /** @name I/O backend (docs/IO_BACKENDS.md, src/io/io_backend.h) */
    ///@{
    /**
     * Which io::IoBackend implementation harnesses that construct their
     * own devices (YCSB stores, benches, the CLI) should build:
     * "sim" (timing-modelled simulator, the default), "posix"
     * (pwrite/pread thread pool over real files), "uring" (io_uring;
     * falls back to posix with a warning when the kernel lacks it), or
     * "auto" (uring when available, else posix, silently). Empty defers
     * to $PRISM_IO_BACKEND, then "sim".
     * Library users who pass their own device vector to PrismDb are
     * unaffected — the store never consults this.
     */
    std::string io_backend;
    /**
     * Directory for the real-file backends' backing files (one
     * .img per device). Empty uses $PRISM_IO_DIR, then /tmp/prism-io.
     * Point it at a tmpfs (e.g. /dev/shm) to keep CI hermetic.
     */
    std::string io_backend_dir;
    ///@}

    /** @name Sharding (src/core/shard_router.h) */
    ///@{
    /**
     * Number of independent PrismDb shards the router fronts. Must be a
     * power of two (keys are hash-partitioned with a mask). 1 routes
     * every op to a single shard — today's behaviour, bit-identical.
     * 0 (the default) defers to $PRISM_SHARDS, then 1. Only harnesses
     * that construct stores through ShardRouter / PrismStore consult
     * this; a directly-built PrismDb ignores it.
     */
    int shards = 0;
    /**
     * Preferred NUMA node for this instance's background threads
     * (reclaimer, GC scheduler, VS completion threads). -1 = unpinned.
     * The shard router assigns nodes round-robin across shards on
     * multi-node machines (common/numa.h); single-node machines always
     * run unpinned.
     */
    int numa_node = -1;
    ///@}

    /** Largest supported value (one record must fit a chunk and the
     *  packed address size field). */
    uint32_t max_value_bytes = 60 * 1024;

    /**
     * Background reclaimer safety-net poll interval. The hot path is
     * edge-triggered — a put whose ring crosses the watermark notifies
     * the reclaimer directly (Pwb::armReclaimHint) — so this poll only
     * bounds staleness for the re-dispatch gate and epoch advancement;
     * it no longer needs to be sub-millisecond to keep up with writes.
     */
    uint64_t reclaimer_poll_us = 10000;

    /** @name Background I/O engine (§5.2, src/core/bg_pool.h) */
    ///@{
    /**
     * Worker threads shared by PWB reclamation and Value Storage GC.
     * Independent PWBs reclaim concurrently and each SSD runs its GC
     * pass as its own task, so sizing this near min(#client threads,
     * #SSDs) keeps the SSD array busy. 0 runs all background work
     * inline on the dispatcher threads (the pre-pool serial behaviour,
     * kept for ablation).
     */
    int bg_workers = 4;
    /**
     * Chunk writes kept in flight per reclamation pass. Each completed
     * chunk publishes its HSIT entries immediately instead of waiting
     * for a full-pass barrier, overlapping SSD writes with NVM-side
     * scan/filter work. 1 degenerates to write-then-publish per chunk;
     * values beyond the per-SSD queue depth add no overlap.
     */
    int reclaim_pipeline_depth = 4;
    /**
     * PWB utilization at or above which a reclamation pass also submits
     * its final *partial* chunk. Below it, passes are thrifty: they
     * relocate full chunks only and leave the straggler records in the
     * ring for a later pass (they are durable there, and most become
     * stale and free to drop — §4.3's dedup). This keeps a hot-update
     * workload from writing values to SSD that are superseded moments
     * later, which would inflate SSD write amplification. flushAll()
     * always forces full submission.
     */
    double pwb_reclaim_force_utilization = 0.90;
    ///@}

    /**
     * @name Observability (docs/OBSERVABILITY.md)
     *
     * These ops options, and fault_spec below, drive process-wide
     * machinery and are honoured only by ShardRouter, once per router.
     * A directly built PrismDb (one shard) ignores them.
     */
    ///@{
    /**
     * Start with cross-layer tracing (src/common/trace.h) recording.
     * The tracer is process-wide; this just flips it on at open so a
     * whole run is captured without touching TraceRegistry directly.
     * Tracing can also be toggled at runtime (prism_cli `trace on`).
     */
    bool trace_enabled = false;
    /**
     * Ops slower than this many microseconds get their span tree copied
     * into the keep-worst slow-op buffer (ShardRouter::slowOps()). 0
     * disables capture. Implies ring recording while set.
     */
    uint64_t trace_slow_op_us = 0;
    /** Per-thread trace ring capacity in events (rounded to a power of
     *  two; ~64 B/event). */
    uint64_t trace_ring_events = 16384;
    /** How many worst slow ops to keep. */
    uint64_t trace_slow_op_keep = 32;
    /**
     * When > 0, start the process-wide telemetry sampler
     * (src/common/telemetry.h) at this interval: every tick snapshots
     * the stats registry into a ring of interval deltas (rate series,
     * occupancy series, per-layer busy-ns, per-device utilization).
     * Off (0) by default; ~100 ms is the intended granularity. The
     * router that started the sampler stops it on close; the recorded
     * series survives for export (ShardRouter::telemetry()).
     */
    uint64_t telemetry_interval_ms = 0;
    /** Telemetry ring capacity in sampling windows (default 600 ≈ one
     *  minute at 100 ms). */
    uint64_t telemetry_windows = 600;
    /**
     * Sampling CPU profiler rate in Hz (common/prof.h). When > 0 the
     * router arms the process-wide profiler at open (per-thread
     * CPU-time timers + SIGPROF backtraces, plus the lock-contention
     * profiler) and stops it at close if it did the arming. 0 (the
     * default) defers to $PRISM_PROF_HZ, then stays off — off means
     * zero timers and one relaxed load per instrumented site. ~99 Hz
     * is the intended always-on rate (prime, to dodge lockstep with
     * periodic work); collection is via /pprof/profile on the ops
     * endpoint, `prism_cli profile`, or a bench's `--profile=<file>`.
     */
    int prof_hz = 0;
    /**
     * HTTP ops endpoint (common/obs_server.h): TCP port for /metrics,
     * /healthz, /readyz, /slowops, /telemetry and /trace on 127.0.0.1.
     * -1 (the default) defers to $PRISM_OBS_PORT, then stays off;
     * 0 binds an ephemeral port (published as the prism.obs.port gauge
     * and via ShardRouter::obsPort()); >0 binds that port. The router
     * runs one listener for the whole fleet.
     */
    int obs_port = -1;
    ///@}

    /** @name Fault injection (docs/FAULTS.md) */
    ///@{
    /**
     * Fault schedule armed at router open, in PRISM_FAULTS syntax
     * (`site=trigger[,payload:V][,oneshot];...`, see common/fault.h).
     * The registry is process-wide, so this *adds to* whatever the
     * environment or an earlier router armed; empty arms nothing.
     * Tests and the torture harness use it to script failures without
     * touching the environment.
     */
    std::string fault_spec;
    ///@}
};

}  // namespace prism::core
