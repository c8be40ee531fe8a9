#include "net/resp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/log.h"
#include "common/logging.h"
#include "common/obs_server.h"
#include "common/stats.h"
#include "common/token_bucket.h"
#include "common/trace.h"

namespace prism::net {

namespace {

/** How long a closing connection may keep sending before it is cut. */
constexpr uint64_t kLingerNs = 1000ull * 1000 * 1000;

/** Strict decimal uint64 (wire keys, cursors, counts). */
bool
parseU64(std::string_view s, uint64_t *out)
{
    if (s.empty() || s.size() > 20)
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t d = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

std::string
upperAscii(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return out;
}

/** Metric-name-safe tenant slug: [a-zA-Z0-9_-], capped at 32 chars. */
std::string
sanitizeTenant(std::string_view name)
{
    std::string out;
    out.reserve(std::min<size_t>(name.size(), 32));
    for (char c : name) {
        if (out.size() >= 32)
            break;
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("_") : out;
}

/** Everything one tenant namespace owns. Server-thread-only. */
struct TenantState {
    uint16_t id = 0;
    std::string name;
    stats::Counter *ops = nullptr;
    stats::Counter *reads = nullptr;
    stats::Counter *writes = nullptr;
    stats::Counter *scans = nullptr;
    stats::Counter *errors = nullptr;
    stats::Counter *throttled = nullptr;
    std::unique_ptr<TokenBucket> quota;  ///< null = unlimited
};

/** One queued command awaiting its reply slot in request order. */
struct Pending {
    enum class Kind { kInline, kPut, kGet, kDel, kMget, kScan };
    Kind kind = Kind::kInline;
    std::string reply;               ///< pre-rendered for kInline
    core::OpFuture future;           ///< put / get / scan
    std::vector<core::OpFuture> futures;  ///< del / mget fan-out
    TenantState *tenant = nullptr;
    size_t scan_count = 0;           ///< requested COUNT (kScan)

    bool
    ready() const
    {
        switch (kind) {
          case Kind::kInline:
            return true;
          case Kind::kPut:
          case Kind::kGet:
          case Kind::kScan:
            return future.valid() && future.ready();
          case Kind::kDel:
          case Kind::kMget:
            for (const auto &f : futures)
                if (!f.valid() || !f.ready())
                    return false;
            return true;
        }
        return true;
    }
};

struct Conn {
    int fd = -1;
    RespParser parser;
    std::deque<std::unique_ptr<Pending>> pipeline;
    std::string out;
    size_t sent = 0;
    TenantState *tenant = nullptr;  ///< AUTH-selected namespace
    bool close_after_flush = false; ///< QUIT / protocol error / EOF
    uint64_t linger_until_ns = 0;   ///< write side shut; draining input
    bool dead = false;

    explicit Conn(int f, RespLimits limits) : fd(f), parser(limits) {}
};

}  // namespace

struct RespServer::Impl {
    ycsb::KvStore &store;
    Options opts;

    std::mutex mu;  ///< guards start/stop
    int listen_fd = -1;
    int wake_fd[2] = {-1, -1};
    std::atomic<int> bound_port{0};
    std::atomic<bool> stopping{false};
    std::thread thread;
    uint64_t start_ns = 0;

    /**
     * Store operations issued but not yet completed. Completion
     * callbacks hold a raw Impl*, so stop() drains this to zero before
     * the wake pipe (and the Impl) can go away.
     */
    std::atomic<uint64_t> store_inflight{0};

    /** Tenant namespaces; server-thread-only after start(). */
    std::map<std::string, std::unique_ptr<TenantState>> tenants;
    std::map<std::string, uint64_t> quota_overrides;
    uint16_t next_tenant_id = 1;

    stats::Counter *c_accepted = nullptr;
    stats::Counter *c_rejected = nullptr;
    stats::Counter *c_commands = nullptr;
    stats::Counter *c_throttled = nullptr;
    stats::Counter *c_parse_errors = nullptr;
    stats::Counter *c_bytes_in = nullptr;
    stats::Counter *c_bytes_out = nullptr;
    stats::Counter *c_backpressure = nullptr;
    stats::Gauge *g_connections = nullptr;
    stats::Gauge *g_port = nullptr;
    stats::Gauge *g_inflight = nullptr;
    stats::Gauge *g_tenants = nullptr;

    /** The server whose loop() runs on this thread, if any. */
    static inline thread_local const Impl *loop_owner = nullptr;

    explicit Impl(ycsb::KvStore &s) : store(s) {}

    void loop();
    void wakeLoop();
    core::AsyncCallback completionCb();

    TenantState *tenantByName(std::string_view name);
    bool resolveKey(Conn &c, std::string_view arg, uint64_t *store_key,
                    TenantState **tenant, std::string *err);

    void dispatch(Conn &c, std::vector<std::string> &args);
    void flush(Conn &c);
    void render(Conn &c, Pending &p);
    std::string renderInfo();
    std::string listenerJson();
};

void
RespServer::Impl::wakeLoop()
{
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd[1], &b, 1);
}

core::AsyncCallback
RespServer::Impl::completionCb()
{
    // Runs on whichever thread completes the op (often a Value-Storage
    // completion thread). It must not touch any Conn/Pending fields —
    // readiness is read from the future's own shared state — so its
    // whole job is waking the loop. An op that completes inline runs
    // this on the loop thread itself, inside dispatch(), and the flush
    // that follows dispatch() finds it ready: no wake is needed. The
    // inflight decrement comes AFTER the wake write: stop() keeps the
    // pipe open until inflight hits zero, which makes the write always
    // safe.
    return [this](const Status &) {
        if (loop_owner != this)
            wakeLoop();
        g_inflight->sub(1);
        store_inflight.fetch_sub(1, std::memory_order_release);
    };
}

TenantState *
RespServer::Impl::tenantByName(std::string_view raw)
{
    const std::string name = sanitizeTenant(raw);
    auto it = tenants.find(name);
    if (it != tenants.end())
        return it->second.get();
    // Bound the namespace table: tenant ids are 16-bit, and every
    // tenant mints a stats family, so a key-spraying client must not
    // be able to grow either without limit.
    if (tenants.size() >= 4096 || next_tenant_id == 0)
        return nullptr;
    auto t = std::make_unique<TenantState>();
    t->id = (name == "default") ? 0 : next_tenant_id++;
    t->name = name;
    auto &reg = stats::StatsRegistry::global();
    const std::string p = "prism.tenant." + name + ".";
    t->ops = &reg.counter(p + "ops", "requests");
    t->reads = &reg.counter(p + "reads", "requests");
    t->writes = &reg.counter(p + "writes", "requests");
    t->scans = &reg.counter(p + "scans", "requests");
    t->errors = &reg.counter(p + "errors", "requests");
    t->throttled = &reg.counter(p + "throttled", "requests");
    uint64_t rate = opts.quota_default_ops;
    if (auto q = quota_overrides.find(name); q != quota_overrides.end())
        rate = q->second;
    if (rate > 0)
        t->quota = std::make_unique<TokenBucket>(
            static_cast<double>(rate),
            std::max<uint64_t>(rate, 1000));
    TenantState *out = t.get();
    tenants.emplace(name, std::move(t));
    g_tenants->set(static_cast<int64_t>(tenants.size()));
    return out;
}

bool
RespServer::Impl::resolveKey(Conn &c, std::string_view arg,
                             uint64_t *store_key, TenantState **tenant,
                             std::string *err)
{
    TenantState *t = c.tenant;
    std::string_view keypart = arg;
    // Prefix convention: "<tenant>:<key>" routes one key into another
    // namespace without AUTH (and wins over the connection's AUTH).
    if (const size_t colon = arg.find(':');
        colon != std::string_view::npos) {
        t = tenantByName(arg.substr(0, colon));
        if (t == nullptr) {
            *err = "ERR tenant table full";
            return false;
        }
        keypart = arg.substr(colon + 1);
    }
    if (t == nullptr)
        t = tenantByName("default");
    uint64_t key48;
    if (!parseU64(keypart, &key48) || key48 > kKeyMask) {
        *err = "ERR key must be a decimal integer below 2^48";
        return false;
    }
    *store_key = tenantKey(t->id, key48);
    *tenant = t;
    return true;
}

void
RespServer::Impl::render(Conn &c, Pending &p)
{
    switch (p.kind) {
      case Pending::Kind::kInline:
        c.out += p.reply;
        return;
      case Pending::Kind::kPut: {
        const Status &st = p.future.status();
        if (st.isOk()) {
            appendSimple(&c.out, "OK");
        } else {
            appendError(&c.out, "ERR " + st.toString());
            if (p.tenant)
                p.tenant->errors->inc();
        }
        return;
      }
      case Pending::Kind::kGet: {
        const Status &st = p.future.status();
        if (st.isOk())
            appendBulk(&c.out, p.future.value());
        else if (st.isNotFound())
            appendNull(&c.out);
        else {
            appendError(&c.out, "ERR " + st.toString());
            if (p.tenant)
                p.tenant->errors->inc();
        }
        return;
      }
      case Pending::Kind::kDel: {
        int64_t removed = 0;
        for (const auto &f : p.futures) {
            if (f.status().isOk())
                removed++;
            else if (!f.status().isNotFound() && p.tenant)
                p.tenant->errors->inc();
        }
        appendInteger(&c.out, removed);
        return;
      }
      case Pending::Kind::kMget: {
        appendArrayHeader(&c.out, p.futures.size());
        for (auto &f : p.futures) {
            if (f.status().isOk())
                appendBulk(&c.out, f.value());
            else
                appendNull(&c.out);
        }
        return;
      }
      case Pending::Kind::kScan: {
        const Status &st = p.future.status();
        if (!st.isOk() && !st.isNotFound()) {
            appendError(&c.out, "ERR " + st.toString());
            if (p.tenant)
                p.tenant->errors->inc();
            return;
        }
        const auto &rows = p.future.rows();
        const uint16_t tid = p.tenant ? p.tenant->id : 0;
        // The namespace is the key's high bits, so this tenant's rows
        // are exactly the prefix that still carries its id.
        size_t in_range = 0;
        while (in_range < rows.size() &&
               (rows[in_range].first >> kKeyBits) == tid)
            in_range++;
        uint64_t next_cursor = 0;
        if (in_range == rows.size() && rows.size() >= p.scan_count &&
            !rows.empty()) {
            const uint64_t last48 = rows.back().first & kKeyMask;
            next_cursor = (last48 == kKeyMask) ? 0 : last48 + 1;
        }
        appendArrayHeader(&c.out, 2);
        appendBulk(&c.out, std::to_string(next_cursor));
        appendArrayHeader(&c.out, in_range);
        for (size_t i = 0; i < in_range; i++)
            appendBulk(&c.out,
                       std::to_string(rows[i].first & kKeyMask));
        return;
      }
    }
}

std::string
RespServer::Impl::renderInfo()
{
    char line[192];
    std::string s;
    s += "# Server\r\n";
    std::snprintf(line, sizeof(line), "prism_version:net-1\r\n"
                  "tcp_port:%d\r\n",
                  bound_port.load(std::memory_order_acquire));
    s += line;
    std::snprintf(line, sizeof(line), "uptime_in_seconds:%llu\r\n",
                  static_cast<unsigned long long>(
                      (nowNs() - start_ns) / 1000000000ull));
    s += line;
    s += "# Clients\r\n";
    std::snprintf(line, sizeof(line),
                  "connected_clients:%lld\r\n"
                  "inflight_commands:%lld\r\n",
                  static_cast<long long>(g_connections->value()),
                  static_cast<long long>(g_inflight->value()));
    s += line;
    s += "# Stats\r\n";
    std::snprintf(line, sizeof(line),
                  "total_connections_received:%llu\r\n"
                  "total_commands_processed:%llu\r\n",
                  static_cast<unsigned long long>(c_accepted->value()),
                  static_cast<unsigned long long>(c_commands->value()));
    s += line;
    std::snprintf(line, sizeof(line),
                  "total_net_input_bytes:%llu\r\n"
                  "total_net_output_bytes:%llu\r\n",
                  static_cast<unsigned long long>(c_bytes_in->value()),
                  static_cast<unsigned long long>(c_bytes_out->value()));
    s += line;
    std::snprintf(line, sizeof(line),
                  "throttled_commands:%llu\r\n"
                  "parse_errors:%llu\r\n",
                  static_cast<unsigned long long>(c_throttled->value()),
                  static_cast<unsigned long long>(
                      c_parse_errors->value()));
    s += line;
    s += "# Tenants\r\n";
    for (const auto &[name, t] : tenants) {
        std::snprintf(line, sizeof(line),
                      "tenant_%s:ops=%llu,errors=%llu,throttled=%llu,"
                      "quota_ops=%.0f\r\n",
                      name.c_str(),
                      static_cast<unsigned long long>(t->ops->value()),
                      static_cast<unsigned long long>(t->errors->value()),
                      static_cast<unsigned long long>(
                          t->throttled->value()),
                      t->quota ? t->quota->rate() : 0.0);
        s += line;
    }
    return s;
}

std::string
RespServer::Impl::listenerJson()
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"proto\":\"resp\",\"port\":%d,\"connections\":%lld,"
        "\"accepted\":%llu,\"commands\":%llu,\"inflight\":%lld,"
        "\"throttled\":%llu,\"tenants\":%lld}",
        bound_port.load(std::memory_order_acquire),
        static_cast<long long>(g_connections->value()),
        static_cast<unsigned long long>(c_accepted->value()),
        static_cast<unsigned long long>(c_commands->value()),
        static_cast<long long>(g_inflight->value()),
        static_cast<unsigned long long>(c_throttled->value()),
        static_cast<long long>(g_tenants->value()));
    return buf;
}

void
RespServer::Impl::dispatch(Conn &c, std::vector<std::string> &args)
{
    c_commands->inc();
    auto p = std::make_unique<Pending>();
    auto inlineReply = [&](auto append, auto &&...v) {
        append(&p->reply, std::forward<decltype(v)>(v)...);
    };
    const std::string cmd = upperAscii(args[0]);
    const size_t n = args.size();

    auto wrongArity = [&] {
        appendError(&p->reply,
                    "ERR wrong number of arguments for '" + cmd + "'");
    };
    auto admitted = [&](TenantState *t, bool write_op, bool scan_op) {
        t->ops->inc();
        (scan_op ? t->scans : write_op ? t->writes : t->reads)->inc();
        if (t->quota && !t->quota->tryAcquire(1)) {
            c_throttled->inc();
            t->throttled->inc();
            appendError(&p->reply,
                        "THROTTLED tenant '" + t->name +
                            "' over its ops/s quota");
            return false;
        }
        return true;
    };
    auto track = [&] {
        // One pipeline slot per sub-operation would break reply
        // arity, so fan-out commands count each future individually.
        const uint64_t subs =
            p->kind == Pending::Kind::kDel ||
                    p->kind == Pending::Kind::kMget
                ? p->futures.size()
                : 1;
        store_inflight.fetch_add(subs, std::memory_order_relaxed);
        g_inflight->add(static_cast<int64_t>(subs));
    };

    if (cmd == "PING") {
        if (n <= 1)
            inlineReply(appendSimple, "PONG");
        else
            inlineReply(appendBulk, args[1]);
    } else if (cmd == "ECHO") {
        if (n != 2)
            wrongArity();
        else
            inlineReply(appendBulk, args[1]);
    } else if (cmd == "AUTH") {
        // AUTH <tenant> (RESP2) or AUTH <tenant> <password> (ACL-style
        // clients); the password is accepted and ignored.
        if (n != 2 && n != 3) {
            wrongArity();
        } else if (TenantState *t = tenantByName(args[1])) {
            c.tenant = t;
            inlineReply(appendSimple, "OK");
        } else {
            inlineReply(appendError, "ERR tenant table full");
        }
    } else if (cmd == "SELECT") {
        // Single-database store; accept and ignore for client compat.
        inlineReply(appendSimple, "OK");
    } else if (cmd == "COMMAND") {
        inlineReply(appendArrayHeader, size_t{0});
    } else if (cmd == "INFO") {
        inlineReply(appendBulk, renderInfo());
    } else if (cmd == "QUIT") {
        inlineReply(appendSimple, "OK");
        c.close_after_flush = true;
    } else if (cmd == "SET") {
        uint64_t key;
        std::string err;
        if (n != 3)
            wrongArity();
        else if (!resolveKey(c, args[1], &key, &p->tenant, &err))
            inlineReply(appendError, err);
        else if (admitted(p->tenant, true, false)) {
            p->kind = Pending::Kind::kPut;
            track();
            p->future = store.asyncPut(key, args[2], completionCb());
        }
    } else if (cmd == "GET") {
        uint64_t key;
        std::string err;
        if (n != 2)
            wrongArity();
        else if (!resolveKey(c, args[1], &key, &p->tenant, &err))
            inlineReply(appendError, err);
        else if (admitted(p->tenant, false, false)) {
            p->kind = Pending::Kind::kGet;
            track();
            p->future = store.asyncGet(key, completionCb());
        }
    } else if (cmd == "DEL" || cmd == "MGET") {
        std::vector<uint64_t> keys;
        std::string err;
        if (n < 2) {
            wrongArity();
        } else {
            for (size_t i = 1; i < n && err.empty(); i++) {
                uint64_t key;
                TenantState *t;
                if (!resolveKey(c, args[i], &key, &t, &err))
                    break;
                if (p->tenant == nullptr)
                    p->tenant = t;  // accounting: first key's tenant
                keys.push_back(key);
            }
            if (!err.empty()) {
                p->tenant = nullptr;
                inlineReply(appendError, err);
            } else if (admitted(p->tenant, cmd == "DEL", false)) {
                p->kind = cmd == "DEL" ? Pending::Kind::kDel
                                       : Pending::Kind::kMget;
                p->futures.resize(keys.size());
                track();
                for (size_t i = 0; i < keys.size(); i++)
                    p->futures[i] =
                        cmd == "DEL"
                            ? store.asyncDel(keys[i], completionCb())
                            : store.asyncGet(keys[i], completionCb());
            }
        }
    } else if (cmd == "SCAN") {
        uint64_t cursor = 0, count = 10;
        std::string err;
        bool ok = n >= 2;
        TenantState *t = c.tenant != nullptr ? c.tenant
                                             : tenantByName("default");
        if (ok) {
            std::string_view cur = args[1];
            if (const size_t colon = cur.find(':');
                colon != std::string_view::npos) {
                t = tenantByName(cur.substr(0, colon));
                cur = cur.substr(colon + 1);
            }
            ok = t != nullptr && parseU64(cur, &cursor) &&
                 cursor <= kKeyMask;
        }
        for (size_t i = 2; ok && i < n; i += 2) {
            if (upperAscii(args[i]) == "COUNT" && i + 1 < n)
                ok = parseU64(args[i + 1], &count) && count > 0;
            else
                ok = false;
        }
        if (n < 2 || !ok || t == nullptr) {
            inlineReply(appendError,
                        "ERR syntax: SCAN <cursor> [COUNT <n>]");
        } else if (admitted(t, false, true)) {
            p->kind = Pending::Kind::kScan;
            p->tenant = t;
            p->scan_count = std::min<uint64_t>(count, 1000);
            track();
            p->future = store.asyncScan(tenantKey(t->id, cursor),
                                        p->scan_count, completionCb());
        }
    } else {
        inlineReply(appendError, "ERR unknown command '" + cmd + "'");
    }
    c.pipeline.push_back(std::move(p));
}

void
RespServer::Impl::flush(Conn &c)
{
    while (!c.pipeline.empty() && c.pipeline.front()->ready()) {
        render(c, *c.pipeline.front());
        c.pipeline.pop_front();
    }
}

void
RespServer::Impl::loop()
{
    trace::TraceRegistry::global().setThreadName("prism-resp");
    loop_owner = this;
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<std::string> args;
    while (!stopping.load(std::memory_order_acquire)) {
        std::vector<pollfd> pfds;
        pfds.push_back({wake_fd[0], POLLIN, 0});
        pfds.push_back({listen_fd, POLLIN, 0});
        for (const auto &c : conns) {
            short ev = 0;
            const bool backpressured =
                c->pipeline.size() >=
                    static_cast<size_t>(opts.inflight_cap) ||
                c->out.size() - c->sent > opts.out_hwm_bytes;
            if ((!c->close_after_flush && !backpressured) ||
                c->linger_until_ns != 0)
                ev |= POLLIN;
            if (c->sent < c->out.size())
                ev |= POLLOUT;
            pfds.push_back({c->fd, ev, 0});
        }
        const size_t polled = conns.size();
        int timeout_ms = -1;
        for (const auto &c : conns) {
            if (c->linger_until_ns == 0)
                continue;
            const uint64_t now = nowNs();
            const int ms = c->linger_until_ns > now
                               ? static_cast<int>(
                                     (c->linger_until_ns - now) / 1000000 +
                                     1)
                               : 0;
            timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
        }
        if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pfds[0].revents & POLLIN) {
            char drain[256];
            while (::read(wake_fd[0], drain, sizeof(drain)) > 0) {}
        }
        if (pfds[1].revents & POLLIN) {
            for (;;) {
                const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                         SOCK_NONBLOCK | SOCK_CLOEXEC);
                if (fd < 0)
                    break;
                if (conns.size() >=
                    static_cast<size_t>(opts.max_connections)) {
                    c_rejected->inc();
                    const char msg[] = "-ERR max connections reached\r\n";
                    [[maybe_unused]] ssize_t n =
                        ::send(fd, msg, sizeof(msg) - 1, MSG_NOSIGNAL);
                    ::close(fd);
                    continue;
                }
                const int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
                c_accepted->inc();
                conns.push_back(
                    std::make_unique<Conn>(fd, opts.limits));
                g_connections->set(
                    static_cast<int64_t>(conns.size()));
            }
        }
        for (size_t i = 0; i < conns.size(); i++) {
            Conn &c = *conns[i];
            const short rev = i < polled ? pfds[i + 2].revents : 0;
            if (rev & (POLLERR | POLLNVAL))
                c.dead = true;
            if (c.linger_until_ns != 0) {
                // Lingering close: everything owed is sent and our FIN
                // is out. Discard input until the peer's EOF (or the
                // deadline), so close() finds nothing unread and the
                // kernel does not answer with an RST that could destroy
                // replies the client has yet to read.
                char buf[16384];
                ssize_t r;
                while ((r = ::recv(c.fd, buf, sizeof(buf), 0)) > 0) {}
                if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                               errno != EINTR) ||
                    nowNs() >= c.linger_until_ns)
                    c.dead = true;
                continue;
            }
            bool eof = false;
            if (!c.dead && (rev & (POLLIN | POLLHUP))) {
                char buf[16384];
                for (;;) {
                    const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
                    if (r > 0) {
                        c_bytes_in->add(static_cast<uint64_t>(r));
                        c.parser.feed(
                            std::string_view(buf,
                                             static_cast<size_t>(r)));
                        continue;
                    }
                    if (r == 0)
                        eof = true;
                    else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                             errno != EINTR)
                        c.dead = true;
                    break;
                }
            }
            // Dispatch / flush until neither makes progress: a flush
            // can free pipeline slots that let buffered pipelined
            // commands dispatch, which can complete inline and allow
            // another flush.
            bool progress = !c.dead;
            while (progress) {
                progress = false;
                while (!c.close_after_flush &&
                       c.pipeline.size() <
                           static_cast<size_t>(opts.inflight_cap)) {
                    const ParseResult r = c.parser.next(&args);
                    if (r == ParseResult::kCommand) {
                        dispatch(c, args);
                        progress = true;
                        continue;
                    }
                    if (r == ParseResult::kError) {
                        // Framing is lost; answer what we can, then
                        // the error, then hang up.
                        c_parse_errors->inc();
                        auto p = std::make_unique<Pending>();
                        appendError(&p->reply, c.parser.error());
                        c.pipeline.push_back(std::move(p));
                        c.close_after_flush = true;
                        progress = true;
                    }
                    break;
                }
                const size_t before = c.pipeline.size();
                flush(c);
                progress = progress || c.pipeline.size() != before;
            }
            if (!c.dead && c.sent < c.out.size()) {
                while (c.sent < c.out.size()) {
                    const ssize_t r =
                        ::send(c.fd, c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
                    if (r > 0) {
                        c_bytes_out->add(static_cast<uint64_t>(r));
                        c.sent += static_cast<size_t>(r);
                        continue;
                    }
                    if (errno != EAGAIN && errno != EWOULDBLOCK &&
                        errno != EINTR)
                        c.dead = true;
                    break;
                }
                if (c.sent >= c.out.size()) {
                    c.out.clear();
                    c.sent = 0;
                }
            }
            // EOF: the client will send nothing more. Finish writing
            // whatever is still owed (pipelined requests already
            // received), then close.
            if (eof)
                c.close_after_flush = true;
            if (c.close_after_flush && c.pipeline.empty() &&
                c.sent >= c.out.size() && !c.dead) {
                ::shutdown(c.fd, SHUT_WR);
                c.linger_until_ns = nowNs() + kLingerNs;
            }
            // A connection dying with commands in flight must wait for
            // them: Pending futures are only safe to destroy on this
            // thread once their completions have run, and the flush
            // above drains them in order.
            if (c.dead && !c.pipeline.empty())
                c.dead = false, c.close_after_flush = true;
        }
        const size_t live_before = conns.size();
        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const auto &c) {
                                       if (!c->dead)
                                           return false;
                                       ::close(c->fd);
                                       return true;
                                   }),
                    conns.end());
        if (conns.size() != live_before)
            g_connections->set(static_cast<int64_t>(conns.size()));
    }
    // Stop: connections are dropped without waiting for their replies,
    // but in-flight store ops are awaited (stop() handles the drain).
    for (auto &c : conns) {
        while (!c->pipeline.empty()) {
            if (!c->pipeline.front()->ready()) {
                std::this_thread::yield();
                continue;
            }
            c->pipeline.pop_front();
        }
        ::close(c->fd);
    }
    g_connections->set(0);
}

RespServer::RespServer(ycsb::KvStore &store)
    : impl_(new Impl(store))
{
}

RespServer::~RespServer()
{
    stop();
    delete impl_;
}

bool
RespServer::start(const Options &opts, std::string *err)
{
    PRISM_CHECK(!running());
    impl_->opts = opts;
    impl_->stopping.store(false, std::memory_order_release);
    impl_->start_ns = nowNs();

    auto &reg = stats::StatsRegistry::global();
    impl_->c_accepted = &reg.counter("prism.server.accepted", "conns");
    impl_->c_rejected = &reg.counter("prism.server.rejected", "conns");
    impl_->c_commands =
        &reg.counter("prism.server.commands", "requests");
    impl_->c_throttled =
        &reg.counter("prism.server.throttled", "requests");
    impl_->c_parse_errors =
        &reg.counter("prism.server.parse_errors", "requests");
    impl_->c_bytes_in = &reg.counter("prism.server.bytes_in", "bytes");
    impl_->c_bytes_out = &reg.counter("prism.server.bytes_out", "bytes");
    impl_->c_backpressure =
        &reg.counter("prism.server.backpressure", "events");
    impl_->g_connections = &reg.gauge("prism.server.connections");
    impl_->g_port = &reg.gauge("prism.server.port");
    impl_->g_inflight = &reg.gauge("prism.server.inflight");
    impl_->g_tenants = &reg.gauge("prism.server.tenants");

    // Parse "name=rate,name=rate" quota overrides, and pre-register
    // the named tenants so INFO shows them before their first request.
    impl_->quota_overrides.clear();
    {
        std::string_view spec = opts.quota_spec;
        while (!spec.empty()) {
            size_t comma = spec.find(',');
            std::string_view item = spec.substr(0, comma);
            spec = comma == std::string_view::npos
                       ? std::string_view{}
                       : spec.substr(comma + 1);
            const size_t eq = item.find('=');
            uint64_t rate;
            if (eq == std::string_view::npos || eq == 0 ||
                !parseU64(item.substr(eq + 1), &rate)) {
                if (err)
                    *err = "bad quota spec item: " + std::string(item);
                return false;
            }
            impl_->quota_overrides.emplace(
                sanitizeTenant(item.substr(0, eq)), rate);
        }
    }
    impl_->tenantByName("default");
    for (const auto &[name, rate] : impl_->quota_overrides)
        impl_->tenantByName(name);

    const int fd = ::socket(AF_INET,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                            0);
    if (fd < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opts.port));
    if (::inet_pton(AF_INET, opts.bind_addr.c_str(),
                    &addr.sin_addr) != 1) {
        if (err)
            *err = "bad bind address: " + opts.bind_addr;
        ::close(fd);
        return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0 ||
        ::listen(fd, 512) < 0) {
        if (err)
            *err = std::string("bind/listen: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    if (::pipe2(impl_->wake_fd, O_NONBLOCK | O_CLOEXEC) != 0) {
        if (err)
            *err = std::string("pipe2: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    impl_->listen_fd = fd;
    impl_->bound_port.store(ntohs(addr.sin_port),
                            std::memory_order_release);
    impl_->g_port->set(port());
    obs::setListenerInfo([impl = impl_] { return impl->listenerJson(); });
    impl_->thread = std::thread([this] { impl_->loop(); });
    PRISM_LOG_INFO("net.server",
                   "RESP listening on %s:%d (inflight cap %d, "
                   "max conns %d)",
                   opts.bind_addr.c_str(), port(), opts.inflight_cap,
                   opts.max_connections);
    return true;
}

void
RespServer::stop()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->thread.joinable())
        return;
    obs::setListenerInfo(nullptr);
    impl_->stopping.store(true, std::memory_order_release);
    impl_->wakeLoop();
    impl_->thread.join();
    // The loop has drained every connection's pipeline, but a
    // completion callback may still be between its wake write and its
    // inflight decrement; the wake pipe stays open until all are out.
    while (impl_->store_inflight.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    ::close(impl_->listen_fd);
    ::close(impl_->wake_fd[0]);
    ::close(impl_->wake_fd[1]);
    impl_->listen_fd = impl_->wake_fd[0] = impl_->wake_fd[1] = -1;
    impl_->bound_port.store(0, std::memory_order_release);
    impl_->g_port->set(0);
    impl_->g_inflight->set(0);
}

bool
RespServer::running() const
{
    return impl_->bound_port.load(std::memory_order_acquire) != 0;
}

int
RespServer::port() const
{
    return impl_->bound_port.load(std::memory_order_acquire);
}

RespServer::ListenerInfo
RespServer::info() const
{
    ListenerInfo li;
    li.port = port();
    if (impl_->g_connections == nullptr)
        return li;  // never started; counters unregistered
    li.connections =
        static_cast<int>(impl_->g_connections->value());
    li.accepted = impl_->c_accepted->value();
    li.commands = impl_->c_commands->value();
    li.throttled = impl_->c_throttled->value();
    li.inflight =
        static_cast<uint64_t>(impl_->g_inflight->value());
    return li;
}

}  // namespace prism::net
