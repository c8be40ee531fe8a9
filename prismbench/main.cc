/**
 * @file
 * prism_bench — the repository's benchmark: one workload per run against
 * the unmodified engine, every result checked, every metric printed by
 * name and unit. README.md in this directory states the workloads, the
 * sizing rules and which layer metric should move which end-to-end
 * metric on which workload.
 *
 *   prism_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--out-dir <dir>]
 *
 * --trace 0 times the workload untraced and prints the end-to-end
 * metrics. --trace 1 runs the first half untraced and the second half
 * with every probe on (engine layer tracing, the benchmark's spans, the
 * device and store decorators), prints the per-layer metrics of the
 * traced half, and reports the gap between the halves as the tracing
 * overhead. The last stdout line is one JSON object.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rand.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/shard_router.h"
#include "net/resp_server.h"
#include "pmem/pmem_region.h"
#include "probes.h"
#include "samples.h"
#include "sim/nvm_device.h"
#include "wire.h"
#include "ycsb/workload.h"

using namespace prism;
using prismbench::Samples;
using prismbench::SpanKind;
using prismbench::SpanLog;

namespace {

// ---------------------------------------------------------------------------
// Sizing (README.md, "Sizing"). Budgets follow Table 1 of the paper:
// SVC (DRAM) 20% and PWB (NVM) 16% of the dataset.

constexpr uint64_t kRecords = 200'000;
constexpr uint32_t kValueBytes = 1024;
constexpr uint64_t kDatasetBytes = kRecords * kValueBytes;
constexpr int kClients = 4;
constexpr int kSsds = 4;
/** Per-SSD capacity: the four hold 2.6x the data, so nutanix's update
 *  stream crosses the 80% GC watermark within seconds and GC cycles
 *  thousands of times per run. */
constexpr uint64_t kSsdBytes = 128ull << 20;
/** Setups per run; setup_s is their median (the last one is measured). */
constexpr int kSetups = 3;
/** Untimed warm pass per client after load + flushAll. */
constexpr uint64_t kWarmOpsPerClient = 10'000;
/** A mix with at least this share of writes reports waf from its timed
 *  phase; lighter mixes write too little to cycle the PWB within a run
 *  and report waf from load + flushAll instead. */
constexpr double kTimedWafWriteShare = 0.5;
/** resp_get trace mode: the open-loop rate ladder (ops/s). */
constexpr double kWireLadder[] = {20'000, 40'000, 80'000, 160'000};
constexpr int kWireConns = 4;
constexpr uint64_t kSloNs = 1'000'000;
/** A rung whose sends left later than this (p99) measured the generator. */
constexpr uint64_t kMaxLateNs = 250'000;

struct WorkloadDef {
    const char *name;
    ycsb::Mix mix;
    ycsb::Dist dist;
    bool wire;
};

constexpr WorkloadDef kWorkloads[] = {
    {"read_hot", ycsb::Mix::kC, ycsb::Dist::kZipfian, false},
    {"read_uniform", ycsb::Mix::kC, ycsb::Dist::kUniform, false},
    {"nutanix", ycsb::Mix::kNutanix, ycsb::Dist::kZipfian, false},
    {"resp_get", ycsb::Mix::kB, ycsb::Dist::kZipfian, true},
};

struct Args {
    const WorkloadDef *wl = nullptr;
    uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::string out_dir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "prism_bench: %s\nusage: prism_bench --workload "
                 "<read_hot|read_uniform|nutanix|resp_get> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            for (const auto &w : kWorkloads)
                if (std::strcmp(w.name, v) == 0)
                    a.wl = &w;
            if (a.wl == nullptr)
                usage("unknown workload");
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            have_seed = end != v && *end == '\0';
        } else if (k == "--seconds") {
            a.seconds = static_cast<int>(std::strtol(v, &end, 10));
            if (end == v || *end != '\0' || a.seconds < 1 ||
                a.seconds > 600)
                usage("--seconds must be 1..600");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            a.trace = v[0] == '1';
            have_trace = true;
        } else if (k == "--out-dir") {
            a.out_dir = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.wl == nullptr || !have_seed || a.seconds == 0 || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

// ---------------------------------------------------------------------------
// Keys and checks. Item i is stored under hash64(i) masked to the 48-bit
// wire key space, so in-process and RESP workloads share one data set.

uint64_t
storeKey(uint64_t generated_key)
{
    return generated_key & net::kKeyMask;
}

/** Every loaded key, sorted: the reference for scan results. */
const std::vector<uint64_t> &
sortedKeys()
{
    static const std::vector<uint64_t> keys = [] {
        std::vector<uint64_t> k(kRecords);
        for (uint64_t i = 0; i < kRecords; i++)
            k[i] = storeKey(ycsb::OpGenerator::keyOf(i));
        std::sort(k.begin(), k.end());
        return k;
    }();
    return keys;
}

bool
valueMatches(uint64_t key, const std::string &got, std::string *scratch)
{
    ycsb::OpGenerator::fillValue(key, kValueBytes, scratch);
    return got == *scratch;
}

/** Rows must be exactly the next keys >= start, in order, with values. */
bool
scanMatches(uint64_t start, size_t count,
            const std::vector<std::pair<uint64_t, std::string>> &rows,
            std::string *scratch)
{
    const auto &keys = sortedKeys();
    const auto lb = std::lower_bound(keys.begin(), keys.end(), start);
    const size_t want =
        std::min<size_t>(count, static_cast<size_t>(keys.end() - lb));
    if (rows.size() != want)
        return false;
    for (size_t i = 0; i < want; i++)
        if (rows[i].first != lb[static_cast<long>(i)] ||
            !valueMatches(rows[i].first, rows[i].second, scratch))
            return false;
    return true;
}

// ---------------------------------------------------------------------------
// Fixture: the engine on simulated devices, each SSD behind a TimedDevice.

core::PrismOptions
prismOptions()
{
    core::PrismOptions o;
    o.shards = 1;
    o.io_backend = "sim";
    o.svc_capacity_bytes = kDatasetBytes * 20 / 100;
    o.pwb_size_bytes = kDatasetBytes * 16 / 100 / kClients;
    o.hsit_capacity = 512 * 1024;
    o.bg_workers = 4;
    return o;
}

struct Fixture {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<prismbench::TimedDevice>> devices;
    std::unique_ptr<core::ShardRouter> router;
    // Declared after the router: destroyed (stopped) before it.
    std::unique_ptr<prismbench::TimedStore> store;
    std::unique_ptr<net::RespServer> server;

    Fixture()
    {
        const core::PrismOptions o = prismOptions();
        // Same NVM budget rule as the repository's YCSB fixture: PWBs,
        // reclaim headroom, the HSIT, and the index floor.
        const uint64_t nvm_bytes = kDatasetBytes * 16 / 100 +
                                   o.pwb_size_bytes * 4 +
                                   o.hsit_capacity * 32 + (128ull << 20);
        nvm = std::make_shared<sim::NvmDevice>(nvm_bytes);
        region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
        core::ShardBackends b;
        b.region = region;
        for (int i = 0; i < kSsds; i++) {
            devices.push_back(std::make_shared<prismbench::TimedDevice>(
                std::make_shared<sim::SsdDevice>(kSsdBytes)));
            b.devices.push_back(devices.back());
        }
        std::vector<core::ShardBackends> shards;
        shards.push_back(std::move(b));
        router = core::ShardRouter::open(o, std::move(shards));
    }

    /** Bytes held for data: allocated VS chunks, PWB fill, NVM index. */
    uint64_t spaceBytes() const
    {
        uint64_t bytes = router->nvmIndexBytes();
        for (size_t i = 0; i < router->valueStorageCount(); i++) {
            auto &vs = router->valueStorage(i);
            bytes += (vs.totalChunks() - vs.freeChunks()) * vs.chunkBytes();
        }
        const auto snap = stats::StatsRegistry::global().snapshot();
        return bytes + static_cast<uint64_t>(
                           std::max<int64_t>(0,
                               snap.gauge("prism.pwb.used_bytes")));
    }
};

// ---------------------------------------------------------------------------
// Closed-loop clients.

/** Ops completed by every client (and the wire generator) so far. */
stats::Counter g_ops;

struct ClientStats {
    Samples get, put, scan;
    uint64_t ops = 0;
    uint64_t failed = 0;

    void merge(const ClientStats &o)
    {
        get.append(o.get);
        put.append(o.put);
        scan.append(o.scan);
        ops += o.ops;
        failed += o.failed;
    }

    /** Every op's latency, whatever its kind. */
    Samples all() const
    {
        Samples s = get;
        s.append(put);
        s.append(scan);
        return s;
    }
};

/** Share of writes in a mix, as ycsb::OpGenerator draws them. */
double
writeShare(ycsb::Mix mix)
{
    switch (mix) {
      case ycsb::Mix::kC: return 0;
      case ycsb::Mix::kB:
      case ycsb::Mix::kD:
      case ycsb::Mix::kE: return 0.05;
      case ycsb::Mix::kA: return 0.5;
      case ycsb::Mix::kNutanix: return 0.57;
      case ycsb::Mix::kLoad:
      case ycsb::Mix::kUpdateOnly: return 1;
    }
    return 0;
}

ycsb::WorkloadSpec
specFor(const WorkloadDef &wl)
{
    auto spec = ycsb::WorkloadSpec::forMix(wl.mix, kRecords, 0);
    spec.dist = wl.dist;
    spec.value_bytes = kValueBytes;
    return spec;
}

/** One client: issue, time and check ops until the deadline or max_ops. */
ClientStats
runClient(core::ShardRouter &db, const ycsb::WorkloadSpec &spec,
          uint64_t seed, uint64_t deadline_ns, uint64_t max_ops)
{
    ClientStats s;
    ycsb::OpGenerator gen(spec, seed);
    std::string value, scratch;
    std::vector<std::pair<uint64_t, std::string>> rows;
    const bool traced = SpanLog::on();
    for (uint64_t i = 0; i < max_ops; i++) {
        const ycsb::Op op = gen.next();
        const uint64_t key = storeKey(op.key);
        SpanKind kind;
        if (op.type == ycsb::OpType::kRead)
            kind = SpanKind::kCoreGet;
        else if (op.type == ycsb::OpType::kScan)
            kind = SpanKind::kCoreScan;
        else
            kind = SpanKind::kCorePut;
        if (kind == SpanKind::kCorePut)
            ycsb::OpGenerator::fillValue(key, kValueBytes, &value);

        const uint64_t span_id = traced ? SpanLog::newId() : 0;
        SpanLog::setCurrent(span_id);
        const uint64_t t0 = nowNs();
        if (t0 >= deadline_ns)
            break;
        Status st;
        if (kind == SpanKind::kCoreGet)
            st = db.get(key, &value);
        else if (kind == SpanKind::kCoreScan)
            st = db.scan(key, op.scan_len, &rows);
        else
            st = db.put(key, value);
        const uint64_t t1 = nowNs();
        SpanLog::setCurrent(0);
        if (traced)
            SpanLog::record({span_id, 0, t0, t1, kind});

        bool ok = st.isOk();
        if (kind == SpanKind::kCoreGet) {
            ok = ok && valueMatches(key, value, &scratch);
            s.get.add(t1 - t0, t0);
        } else if (kind == SpanKind::kCoreScan) {
            ok = ok && scanMatches(key, op.scan_len, rows, &scratch);
            s.scan.add(t1 - t0, t0);
        } else {
            s.put.add(t1 - t0, t0);
        }
        s.ops++;
        g_ops.inc();
        if (!ok)
            s.failed++;
    }
    return s;
}

/** Run @p fn(client index) on kClients threads and merge the results. */
ClientStats
onClients(const std::function<ClientStats(int)> &fn)
{
    std::vector<ClientStats> per(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; c++)
        threads.emplace_back([&, c] { per[static_cast<size_t>(c)] = fn(c); });
    for (auto &t : threads)
        t.join();
    ClientStats all;
    for (const auto &p : per)
        all.merge(p);
    return all;
}

/** Load every record; put latencies are kept for the load-phase rule. */
ClientStats
loadAll(core::ShardRouter &db)
{
    return onClients([&db](int c) {
        ClientStats s;
        std::string value;
        const uint64_t lo = kRecords * static_cast<uint64_t>(c) / kClients;
        const uint64_t hi =
            kRecords * static_cast<uint64_t>(c + 1) / kClients;
        for (uint64_t i = lo; i < hi; i++) {
            const uint64_t key = storeKey(ycsb::OpGenerator::keyOf(i));
            ycsb::OpGenerator::fillValue(key, kValueBytes, &value);
            const uint64_t t0 = nowNs();
            const Status st = db.put(key, value);
            s.put.add(nowNs() - t0, t0);
            s.ops++;
            if (!st.isOk())
                s.failed++;
        }
        return s;
    });
}

/** Seeds: disjoint per (phase, client) so no two streams repeat. */
uint64_t
clientSeed(uint64_t seed, int phase, int client)
{
    return seed * 1024 + static_cast<uint64_t>(phase) * 64 +
           static_cast<uint64_t>(client) + 1;
}

// ---------------------------------------------------------------------------
// CPU placement.

/**
 * Remove the last allowed CPU from the calling thread's mask and return
 * it; -1 (mask unchanged) when fewer than two CPUs are allowed.
 */
int
reserveLastCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0 ||
        CPU_COUNT(&set) < 2)
        return -1;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; c++)
        if (CPU_ISSET(c, &set))
            last = c;
    CPU_CLR(last, &set);
    return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? last : -1;
}

void
pinToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Process counters.

struct Proc {
    uint64_t user_ns = 0;
    uint64_t sys_ns = 0;
    double max_rss_mb = 0;

    static Proc now()
    {
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        Proc p;
        p.user_ns = static_cast<uint64_t>(ru.ru_utime.tv_sec) * 1'000'000'000ull +
                    static_cast<uint64_t>(ru.ru_utime.tv_usec) * 1000ull;
        p.sys_ns = static_cast<uint64_t>(ru.ru_stime.tv_sec) * 1'000'000'000ull +
                   static_cast<uint64_t>(ru.ru_stime.tv_usec) * 1000ull;
        p.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        return p;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

// ---------------------------------------------------------------------------
// Snapshots of everything the per-layer metrics difference.

struct LayerSnap {
    stats::StatsSnapshot reg;
    uint64_t busy[trace::kNumLayers] = {};
    uint64_t nvm_read = 0, nvm_written = 0;
    uint64_t dev_busy = 0;
    Proc proc;
    uint64_t t_ns = 0;

    static LayerSnap take(Fixture &fx)
    {
        LayerSnap s;
        s.reg = stats::StatsRegistry::global().snapshot();
        for (size_t l = 0; l < trace::kNumLayers; l++)
            s.busy[l] = trace::layerBusyNs(l);
        s.nvm_read = fx.nvm->stats().bytes_read.load();
        s.nvm_written = fx.nvm->stats().bytes_written.load();
        for (const auto &d : fx.devices)
            s.dev_busy += s.reg.counter(
                "sim.ssd." + std::to_string(d->deviceNumber()) + ".busy_ns");
        s.proc = Proc::now();
        s.t_ns = nowNs();
        return s;
    }
};

// ---------------------------------------------------------------------------
// Per-second rate and CPU sampling.

/**
 * Samples an op counter and the process CPU time once a second on its
 * own thread. Rates are reported as the median over whole seconds, so a
 * slow spell shorter than half the phase does not move the figure.
 */
class Ticker {
  public:
    explicit Ticker(const stats::Counter &ops)
        : ops_(ops), thread_([this] { loop(); })
    {
    }
    ~Ticker() { stop(); }

    Ticker(const Ticker &) = delete;
    Ticker &operator=(const Ticker &) = delete;

    void stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    /** Median ops/s over the sampled seconds. */
    double medianRate() const
    {
        const std::vector<double> v = rates();
        return v.empty() ? 0 : Samples::medianOf(v);
    }

    /** Ops/s of each sampled second, in order. */
    std::vector<double> rates() const
    {
        return over([](const Tick &a, const Tick &b) {
            return static_cast<double>(b.ops - a.ops) * 1e9 /
                   static_cast<double>(b.t_ns - a.t_ns);
        });
    }

    /** Median process CPU us per op over the sampled seconds. */
    double medianCpuUsPerOp() const
    {
        return medianOver([](const Tick &a, const Tick &b) {
            return ratio(static_cast<double>(b.cpu_ns - a.cpu_ns) / 1e3,
                         static_cast<double>(b.ops - a.ops));
        });
    }

  private:
    struct Tick {
        uint64_t t_ns, ops, cpu_ns;
    };

    Tick take() const
    {
        const Proc p = Proc::now();
        return {nowNs(), ops_.value(), p.user_ns + p.sys_ns};
    }

    void loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        ticks_.push_back(take());
        auto next = std::chrono::steady_clock::now();
        for (;;) {
            next += std::chrono::seconds(1);
            if (cv_.wait_until(lock, next, [this] { return stop_; }))
                break;
            ticks_.push_back(take());
        }
    }

    template <typename F>
    std::vector<double> over(F per) const
    {
        std::vector<double> v;
        for (size_t i = 1; i < ticks_.size(); i++)
            v.push_back(per(ticks_[i - 1], ticks_[i]));
        return v;
    }

    template <typename F>
    double medianOver(F per) const
    {
        const std::vector<double> v = over(per);
        return v.empty() ? 0 : Samples::medianOf(v);
    }

    const stats::Counter &ops_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;          ///< guarded by mu_
    std::vector<Tick> ticks_;    ///< written by the thread; read after stop
    std::thread thread_;         ///< last: starts after the members above
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printReport(const char *title, const std::vector<Metric> &ms)
{
    std::printf("# %s\n", title);
    for (const auto &m : ms)
        std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
jsonResult(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &ms)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < ms.size(); i++) {
        char buf[64];
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef &wl = *args.wl;
    const ycsb::WorkloadSpec spec = specFor(wl);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    // Distinct keys are a precondition of every value and scan check.
    {
        const auto &keys = sortedKeys();
        if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
            std::fprintf(stderr, "prism_bench: key collision in data set\n");
            return 1;
        }
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;

    // resp_get: the generator gets a core of its own. Threads inherit the
    // creating thread's CPU mask, so every engine and server thread
    // (created below, from this thread) stays off the generator's core.
    int gen_cpu = -1;
    if (wl.wire)
        gen_cpu = reserveLastCpu();

    // --- Setup, kSetups times; the last fixture is the one measured. -----
    // Each round: open, load, flushAll, one warm pass (and, for resp_get,
    // start the server). The flush policy is the same on every run: one
    // flushAll after the load, none during the timed phases.
    std::vector<double> setup_s, load_p50, load_p99;
    std::unique_ptr<Fixture> fx;
    uint64_t load_user_bytes = 0, load_ssd_bytes = 0;
    for (int round = 0; round < kSetups; round++) {
        fx.reset();
        const auto reg0 = stats::StatsRegistry::global().snapshot();
        const uint64_t t0 = nowNs();
        fx = std::make_unique<Fixture>();
        const ClientStats load = loadAll(*fx->router);
        fx->router->flushAll();
        const auto reg1 = stats::StatsRegistry::global().snapshot();
        const ClientStats warm = onClients([&](int c) {
            return runClient(*fx->router, spec,
                             clientSeed(args.seed, 10 + round, c),
                             UINT64_MAX, kWarmOpsPerClient);
        });
        if (wl.wire) {
            fx->store = std::make_unique<prismbench::TimedStore>(*fx->router);
            fx->server = std::make_unique<net::RespServer>(*fx->store);
            std::string err;
            if (!fx->server->start({}, &err)) {
                std::fprintf(stderr, "prism_bench: server: %s\n",
                             err.c_str());
                return 1;
            }
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        load_p50.push_back(load.put.quantileUs(0.50));
        load_p99.push_back(load.put.quantileUs(0.99));
        attempted += load.ops + warm.ops;
        failed += load.failed + warm.failed;
        load_user_bytes =
            reg1.counterDelta(reg0, "prism.user_bytes_written");
        load_ssd_bytes = reg1.counterDelta(reg0, "sim.ssd.bytes_written");
    }

    // --- Timed phases. ------------------------------------------------------
    const uint64_t total_ns =
        static_cast<uint64_t>(args.seconds) * 1'000'000'000ull;
    // Trace mode: the first half untraced (the overhead baseline), the
    // second half with every probe on.
    const uint64_t untraced_ns = args.trace ? total_ns / 2 : total_ns;
    const uint64_t traced_ns = total_ns - untraced_ns;

    ClientStats run;             // the untraced timed phase
    ClientStats traced_run;      // trace mode's traced phase
    std::vector<prismbench::WireStep> ladder;
    prismbench::WireStep wire_run, wire_traced;
    std::unique_ptr<prismbench::WireClient> wire;
    if (wl.wire) {
        if (gen_cpu >= 0)
            pinToCpu(gen_cpu);
        prismbench::WireOptions wo;
        wo.port = fx->server->port();
        wo.conns = kWireConns;
        wo.spec = spec;
        wo.seed = clientSeed(args.seed, 2, 0);
        wo.completed = &g_ops;
        wire = std::make_unique<prismbench::WireClient>(wo);
        if (!wire->ok()) {
            std::fprintf(stderr, "prism_bench: cannot connect to server\n");
            return 1;
        }
    }

    const auto closedLoop = [&](int phase, uint64_t duration_ns) {
        const uint64_t deadline = nowNs() + duration_ns;
        return onClients([&](int c) {
            return runClient(*fx->router, spec,
                             clientSeed(args.seed, phase, c), deadline,
                             UINT64_MAX);
        });
    };

    const LayerSnap s0 = LayerSnap::take(*fx);
    Ticker ticks(g_ops);
    if (!wl.wire) {
        run = closedLoop(1, untraced_ns);
    } else if (!args.trace) {
        wire_run = wire->run(0, untraced_ns);
    } else {
        // The untraced half: half closed loop (the overhead baseline),
        // half the open-loop rate ladder.
        wire_run = wire->run(0, untraced_ns / 2);
        const uint64_t rung_ns =
            (untraced_ns - untraced_ns / 2) / std::size(kWireLadder);
        for (const double rate : kWireLadder)
            ladder.push_back(wire->run(rate, rung_ns));
    }
    ticks.stop();
    const LayerSnap s1 = LayerSnap::take(*fx);

    LayerSnap t0s, t1s;
    if (args.trace) {
        trace::TraceRegistry::global().setRingCapacity(4096);
        for (auto &d : fx->devices)
            d->resetPending();
        SpanLog::setOn(true);
        trace::TraceRegistry::global().setEnabled(true);
        t0s = LayerSnap::take(*fx);
        if (!wl.wire)
            traced_run = closedLoop(3, traced_ns);
        else
            wire_traced = wire->run(0, traced_ns);
        t1s = LayerSnap::take(*fx);
        trace::TraceRegistry::global().setEnabled(false);
        SpanLog::setOn(false);
    }

    const double live_bytes =
        static_cast<double>(fx->router->size()) * kValueBytes;
    const double space_amp =
        ratio(static_cast<double>(fx->spaceBytes()), live_bytes);

    // --- Tally. -------------------------------------------------------------
    attempted += run.ops + traced_run.ops;
    failed += run.failed + traced_run.failed;
    if (wl.wire) {
        std::vector<const prismbench::WireStep *> steps = {&wire_traced};
        if (ladder.empty())
            steps.push_back(&wire_run);
        for (const auto &w : ladder)
            steps.push_back(&w);
        for (const auto *w : steps) {
            attempted += w->sent;
            failed += w->failed;
        }
    }
    // The server is stopped before teardown; its counters are final.
    if (fx->server)
        fx->server->stop();
    const bool correct = failed == 0;

    // --- End-to-end metrics (untraced phase). -------------------------------
    // A mix without writes reports put latency from the load phase
    // (median over the set-ups), and a mix with few writes reports waf
    // from load + flushAll.
    const Samples &get = wl.wire ? wire_run.get : run.get;
    const Samples &put = wl.wire ? wire_run.put : run.put;
    const double write_share = writeShare(wl.mix);
    const bool timed_puts = write_share > 0;
    const uint64_t user_bytes =
        s1.reg.counterDelta(s0.reg, "prism.user_bytes_written");
    const double waf =
        write_share >= kTimedWafWriteShare
            ? ratio(static_cast<double>(
                        s1.reg.counterDelta(s0.reg, "sim.ssd.bytes_written")),
                    static_cast<double>(user_bytes))
            : ratio(static_cast<double>(load_ssd_bytes),
                    static_cast<double>(load_user_bytes));

    std::vector<Metric> e2e = {
        {"throughput_kops", ticks.medianRate() / 1e3, "kops/s"},
        {"get_p50_us", get.blockedUs(0.50), "us"},
        {"get_p99_us", get.blockedUs(0.99), "us"},
        {"put_p50_us",
         timed_puts ? put.blockedUs(0.50) : Samples::medianOf(load_p50),
         "us"},
        {"put_p99_us",
         timed_puts ? put.blockedUs(0.99) : Samples::medianOf(load_p99),
         "us"},
        {"waf", waf, "ratio"},
        {"space_amp", space_amp, "ratio"},
        {"cpu_us_per_op", ticks.medianCpuUsPerOp(), "us"},
        {"peak_rss_mb", Proc::now().max_rss_mb, "MiB"},
        {"setup_s", Samples::medianOf(setup_s), "s"},
    };

    // Reported, not gated (README.md, "Metrics not in BENCHMARK.json").
    double slo_rate = 0;
    for (const auto &w : ladder) {
        const bool meets = w.failed == 0 && w.late_p99_us * 1e3 <= kMaxLateNs &&
                           w.get.quantileUs(0.99) * 1e3 <= kSloNs &&
                           w.backlog <= std::max<uint64_t>(
                               kWireConns,
                               static_cast<uint64_t>(w.rate * kSloNs / 1e9));
        if (meets)
            slo_rate = std::max(slo_rate, w.rate / 1e3);
    }
    std::printf("# workload %s seed %" PRIu64 " seconds %d trace %d\n",
                wl.name, args.seed, args.seconds, args.trace ? 1 : 0);
    std::printf("# samples: get %zu put %zu (%s) scan %zu\n", get.size(),
                timed_puts ? put.size() : kRecords * kSetups,
                timed_puts ? "timed" : "load phase", run.scan.size());
    // Scans are not gated (README.md, "Metrics not in BENCHMARK.json").
    if (!run.scan.empty())
        std::printf("# scan_p50_us %.4f us\n# scan_p99_us %.4f us\n",
                    run.scan.blockedUs(0.50), run.scan.blockedUs(0.99));
    std::vector<double> blocks = get.perBlockUs(0.99);
    std::sort(blocks.begin(), blocks.end());
    std::printf("# get p99 over the whole phase %.1f us; over %zu blocks of "
                "%zu: min %.1f median %.1f max %.1f us",
                get.quantileUs(0.99), blocks.size(), prismbench::kBlockSamples,
                blocks.empty() ? 0 : blocks.front(),
                blocks.empty() ? 0 : Samples::medianOf(blocks),
                blocks.empty() ? 0 : blocks.back());
    std::printf("\n# kops/s per second:");
    for (const double r : ticks.rates())
        std::printf(" %.1f", r / 1e3);
    std::printf("\n# setup_s per round:");
    for (const double s : setup_s)
        std::printf(" %.3f", s);
    std::printf("\n# error_ratio %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                failed, attempted);
    for (const auto &w : ladder)
        std::printf("# rung %.0f ops/s: sent %" PRIu64 " failed %" PRIu64
                    " backlog %" PRIu64 " get p50 %.1f us p99 %.1f us "
                    "late p99 %.1f us gen cpu %.3f\n",
                    w.rate, w.sent, w.failed, w.backlog,
                    w.get.quantileUs(0.5), w.get.quantileUs(0.99),
                    w.late_p99_us, w.cpu_share);
    if (!ladder.empty())
        std::printf("# slo_rate_kops %.1f\n", slo_rate);
    if (wl.wire)
        std::printf("# wire closed loop: sent %" PRIu64
                    ", generator cpu share %.3f on cpu %d\n",
                    wire_run.sent, wire_run.cpu_share, gen_cpu);

    if (!args.trace) {
        printReport("end-to-end", e2e);
        std::printf("%s\n", jsonResult(correct, attempted, failed, e2e).c_str());
        return 0;
    }

    // --- Per-layer metrics (traced phase). ----------------------------------
    const auto &a = t0s.reg;
    const auto &b = t1s.reg;
    const auto d = [&](const char *name) {
        return static_cast<double>(b.counterDelta(a, name));
    };
    const auto histSumMs = [&](const char *name) {
        return static_cast<double>(b.histogramDelta(a, name).sum()) / 1e6;
    };
    const auto busyS = [&](trace::Layer l) {
        const auto i = static_cast<size_t>(l);
        return static_cast<double>(t1s.busy[i] - t0s.busy[i]) / 1e9;
    };
    const double window_s = static_cast<double>(t1s.t_ns - t0s.t_ns) / 1e9;
    const auto &dev = prismbench::TimedDevice::acc();
    const double gets = d("prism.gets");
    const double puts = d("prism.puts");
    const double ops = gets + puts + d("prism.scans") + d("prism.dels");
    const int channels =
        fx->devices.front()->profile().internal_parallelism;

    // Benchmark spans: mean time inside router calls per op kind.
    const double core_get = traced_run.get.meanUs();
    const double core_put = traced_run.put.meanUs();
    const double core_scan = traced_run.scan.meanUs();
    double busy_sum = 0;
    for (size_t l = 0; l < trace::kNumLayers; l++)
        busy_sum += static_cast<double>(t1s.busy[l] - t0s.busy[l]);
    const double layer_sum_us = ratio(busy_sum / 1e3, ops);
    const double core_op = traced_run.all().meanUs();

    // Tracing overhead: mean op latency traced vs untraced.
    double overhead_pct;
    if (wl.wire) {
        overhead_pct = 100.0 * (ratio(wire_traced.get.meanUs(),
                                      wire_run.get.meanUs()) - 1.0);
    } else {
        overhead_pct = 100.0 * (ratio(core_op, run.all().meanUs()) - 1.0);
    }

    const double wire_get = wire_traced.get.meanUs();
    const double store_get = fx->store ? fx->store->get_ns.mean() / 1e3 : 0;
    const double reclaimed = d("prism.pwb.reclaimed_values");
    const double skipped = d("prism.pwb.reclaim_skipped_stale");
    const double svc_hits = d("prism.svc.hits");
    const double gc_moved = d("prism.vs.gc_moved_bytes");

    std::vector<Metric> layers = {
        {"net.wire_get_us", wire_get, "us"},
        {"net.store_get_us", store_get, "us"},
        {"net.self_us", wire_get > 0 ? wire_get - store_get : 0, "us"},
        {"net.commands", d("prism.server.commands"), "count"},
        {"net.backpressure", d("prism.server.backpressure"), "count"},
        {"net.slo_rate_kops", slo_rate, "kops/s"},
        {"ycsb.gen_late_p99_us", ladder.empty() ? 0 : ladder[0].late_p99_us,
         "us"},
        {"ycsb.gen_cpu_share", ladder.empty() ? 0 : ladder[0].cpu_share,
         "ratio"},
        {"core.get_us", core_get, "us"},
        {"core.put_us", core_put, "us"},
        {"core.scan_us", core_scan, "us"},
        {"core.scan_p50_us", traced_run.scan.blockedUs(0.50), "us"},
        {"core.scan_p99_us", traced_run.scan.blockedUs(0.99), "us"},
        {"core.busy_s", busyS(trace::Layer::kCore), "s"},
        {"hsit.cas_retries_per_put", ratio(d("prism.hsit.cas_retries"), puts),
         "ratio"},
        {"svc.hit_ratio", ratio(svc_hits, svc_hits + d("prism.svc.misses")),
         "ratio"},
        {"svc.admissions", d("prism.svc.admissions"), "count"},
        {"svc.evictions", d("prism.svc.evictions"), "count"},
        {"svc.reorged_values", d("prism.svc.reorged_values"), "count"},
        {"svc.busy_s", busyS(trace::Layer::kSvc), "s"},
        {"pwb.get_hit_ratio", ratio(d("prism.get.pwb_hits"), gets), "ratio"},
        {"pwb.stalls", d("prism.pwb.stalls"), "count"},
        {"pwb.stall_ms", histSumMs("prism.pwb.stall_ns"), "ms"},
        {"pwb.reclaim_passes", d("prism.pwb.reclaim_passes"), "count"},
        {"pwb.stale_skip_ratio", ratio(skipped, skipped + reclaimed),
         "ratio"},
        {"pwb.busy_s", busyS(trace::Layer::kPwb), "s"},
        {"vs.reads_per_get", ratio(d("prism.get.vs_reads"), gets), "ratio"},
        {"vs.tcq_batch",
         ratio(d("prism.tcq.requests"), d("prism.tcq.batches")), "ratio"},
        {"vs.gc_passes", d("prism.vs.gc_passes"), "count"},
        {"vs.gc_moved_mb", gc_moved / 1048576.0, "MiB"},
        {"vs.gc_moved_per_chunk",
         ratio(gc_moved / 1024.0, d("prism.vs.gc_reclaimed_chunks")), "KiB"},
        {"vs.retries", d("prism.vs.retries"), "count"},
        {"vs.busy_s", busyS(trace::Layer::kVs), "s"},
        {"bg.tasks", d("prism.bg.tasks"), "count"},
        {"bg.task_ms", histSumMs("prism.bg.task_ns"), "ms"},
        {"bg.queue_delay_p99_us",
         static_cast<double>(
             b.histogramDelta(a, "prism.bg.queue_delay_ns").percentile(0.99)) /
             1e3,
         "us"},
        {"bg.busy_s", busyS(trace::Layer::kBg), "s"},
        {"ssd.read_us", dev.read_ns.mean() / 1e3, "us"},
        {"ssd.device_read_us", dev.device_read_ns.mean() / 1e3, "us"},
        {"ssd.model_read_us", dev.model_read_ns.mean() / 1e3, "us"},
        {"ssd.write_us", dev.write_ns.mean() / 1e3, "us"},
        {"ssd.model_write_us", dev.model_write_ns.mean() / 1e3, "us"},
        {"ssd.submit_batch", dev.batch.mean(), "ratio"},
        {"ssd.inflight_mean", dev.inflight.mean(), "count"},
        {"ssd.read_mb", d("sim.ssd.bytes_read") / 1048576.0, "MiB"},
        {"ssd.write_mb", d("sim.ssd.bytes_written") / 1048576.0, "MiB"},
        {"ssd.util",
         ratio(static_cast<double>(t1s.dev_busy - t0s.dev_busy),
               window_s * 1e9 * channels * kSsds),
         "ratio"},
        {"ssd.busy_s", busyS(trace::Layer::kSsd), "s"},
        {"nvm.read_mb",
         static_cast<double>(t1s.nvm_read - t0s.nvm_read) / 1048576.0, "MiB"},
        {"nvm.write_mb",
         static_cast<double>(t1s.nvm_written - t0s.nvm_written) / 1048576.0,
         "MiB"},
        {"proc.user_s",
         static_cast<double>(t1s.proc.user_ns - t0s.proc.user_ns) / 1e9, "s"},
        {"proc.sys_s",
         static_cast<double>(t1s.proc.sys_ns - t0s.proc.sys_ns) / 1e9, "s"},
        {"trace.overhead_pct", overhead_pct, "%"},
        {"trace.layer_sum_us", layer_sum_us, "us"},
        {"trace.layer_gap_pct",
         core_op > 0 ? 100.0 * (core_op - layer_sum_us) / core_op : 0, "%"},
    };

    // Per-layer self time per engine op, for the GET-path decomposition.
    std::printf("# engine self time per op (traced phase, %.0f ops):\n", ops);
    for (size_t l = 0; l < trace::kNumLayers; l++)
        std::printf("#   %-6s %10.3f us\n", trace::layerName(l),
                    ratio(static_cast<double>(t1s.busy[l] - t0s.busy[l]) / 1e3,
                          ops));
    std::printf("#   sum    %10.3f us vs %.3f us inside router calls\n",
                layer_sum_us, core_op);

    if (!args.out_dir.empty()) {
        const std::string base = args.out_dir + "/" + wl.name;
        std::error_code ec;
        std::filesystem::create_directories(args.out_dir, ec);
        if (!ec && SpanLog::writeJson(base + ".spans.json") &&
            trace::TraceRegistry::global().exportJsonToFile(base +
                                                            ".engine.json"))
            std::printf("# spans written to %s.{spans,engine}.json\n",
                        base.c_str());
        else
            std::fprintf(stderr, "prism_bench: cannot write traces to %s\n",
                         args.out_dir.c_str());
    }

    printReport("per-layer (traced phase)", layers);
    std::printf("%s\n", jsonResult(correct, attempted, failed, layers).c_str());
    return 0;
}
