#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <string>

#include "common/clock.h"
#include "net/resp.h"
#include "net/resp_server.h"
#include "probes.h"

namespace prismbench {

using prism::nowNs;

namespace {

/** Hard limit on waiting for replies after a step's schedule ends. */
constexpr uint64_t kDrainTimeoutNs = 5'000'000'000ull;

uint64_t
threadCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

/** One request awaiting its reply. */
struct Outstanding {
    uint64_t due_ns;
    uint64_t key;
    bool is_get;
};

struct WireClient::Conn {
    int fd = -1;
    std::string out;      ///< encoded commands not yet written
    size_t out_off = 0;
    std::string in;       ///< received bytes not yet parsed
    size_t in_off = 0;
    std::deque<Outstanding> waiting;

    ~Conn() {
        if (fd >= 0)
            ::close(fd);
    }
};

WireClient::WireClient(const WireOptions &opts)
    : opts_(opts), gen_(opts.spec, opts.seed),
      arrivals_(prism::hash64(opts.seed) | 1)
{
    // ppoll deadlines are in ns; the default 50 us timer slack would
    // make every wake-up late by up to that much.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (int i = 0; i < opts_.conns; i++) {
        auto c = std::make_unique<Conn>();
        c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (c->fd < 0)
            return;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(c->fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            return;
        const int one = 1;
        ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
        conns_.push_back(std::move(c));
    }
    ok_ = true;
}

WireClient::~WireClient() = default;

WireStep
WireClient::run(double rate, uint64_t duration_ns)
{
    WireStep r;
    r.rate = rate;
    const size_t nconn = conns_.size();
    std::vector<pollfd> pfds(nconn);
    std::vector<uint64_t> late;
    std::string value;
    std::string expect;
    size_t rr = 0;
    uint64_t inflight = 0;
    bool broken = false;

    const uint64_t cpu0 = threadCpuNs();
    const uint64_t start = nowNs();
    const uint64_t sched_end = start + duration_ns;
    const bool closed = rate == 0;
    const double mean_gap_ns = closed ? 0 : 1e9 / rate;
    uint64_t due = start;

    auto nextGap = [&] {
        // Poisson arrivals: exponential gaps from the seeded stream.
        const double u = arrivals_.nextDouble();
        return static_cast<uint64_t>(-std::log1p(-u) * mean_gap_ns);
    };

    auto handleReply = [&](Conn &c, const prism::net::RespReply &rep,
                           uint64_t now) {
        const Outstanding o = c.waiting.front();
        c.waiting.pop_front();
        inflight--;
        if (opts_.completed != nullptr)
            opts_.completed->inc();
        bool good;
        if (o.is_get) {
            prism::ycsb::OpGenerator::fillValue(o.key, opts_.spec.value_bytes,
                                                &expect);
            good = rep.type == prism::net::RespReply::Type::kBulk &&
                   rep.str == expect;
            r.get.add(now - o.due_ns, o.due_ns);
            if (SpanLog::on())
                SpanLog::record({SpanLog::newId(), 0, o.due_ns, now,
                                 SpanKind::kWireGet});
        } else {
            good = rep.type == prism::net::RespReply::Type::kSimple &&
                   rep.str == "OK";
            r.put.add(now - o.due_ns, o.due_ns);
            if (SpanLog::on())
                SpanLog::record({SpanLog::newId(), 0, o.due_ns, now,
                                 SpanKind::kWirePut});
        }
        if (!good)
            r.failed++;
    };

    auto issue = [&](Conn &c, uint64_t due_ns, uint64_t now) {
        const prism::ycsb::Op op = gen_.next();
        const uint64_t key = op.key & prism::net::kKeyMask;
        const std::string keystr = std::to_string(key);
        const bool is_get = op.type == prism::ycsb::OpType::kRead;
        if (is_get) {
            prism::net::encodeCommand(&c.out, {"GET", keystr});
        } else {
            prism::ycsb::OpGenerator::fillValue(key, opts_.spec.value_bytes,
                                                &value);
            prism::net::encodeCommand(&c.out, {"SET", keystr, value});
        }
        c.waiting.push_back({due_ns, key, is_get});
        late.push_back(now - due_ns);
        inflight++;
        r.sent++;
    };

    bool schedule_done = false;
    for (;;) {
        uint64_t now = nowNs();
        if (!schedule_done && (closed ? now : due) >= sched_end) {
            schedule_done = true;
            r.backlog = inflight;
        }
        if (closed) {
            // One request in flight per connection, sent as soon as the
            // previous reply is in.
            for (size_t i = 0; i < nconn && !schedule_done; i++)
                if (conns_[i]->waiting.empty())
                    issue(*conns_[i], now, now);
        }
        // Issue every request that has come due, round-robin.
        while (!closed && !schedule_done && due <= now) {
            issue(*conns_[rr++ % nconn], due, now);
            due += nextGap();
            if (due >= sched_end) {
                schedule_done = true;
                r.backlog = inflight;
            }
        }
        if (schedule_done && inflight == 0)
            break;
        if (schedule_done && now > sched_end + kDrainTimeoutNs) {
            broken = true;
            break;
        }

        // Write what the sockets accept.
        for (size_t i = 0; i < nconn; i++) {
            Conn &c = *conns_[i];
            while (c.out_off < c.out.size()) {
                const ssize_t n =
                    ::send(c.fd, c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_NOSIGNAL);
                if (n > 0) {
                    c.out_off += static_cast<size_t>(n);
                } else {
                    if (n < 0 && errno != EAGAIN && errno != EINTR)
                        broken = true;
                    break;
                }
            }
            if (c.out_off == c.out.size()) {
                c.out.clear();
                c.out_off = 0;
            }
            pfds[i] = {c.fd,
                       static_cast<short>(
                           POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                       0};
        }
        if (broken)
            break;

        // Block until the next request is due or a socket is ready.
        const uint64_t deadline =
            schedule_done ? sched_end + kDrainTimeoutNs
                          : (closed ? sched_end : due);
        now = nowNs();
        const uint64_t wait = deadline > now ? deadline - now : 0;
        const timespec ts{static_cast<time_t>(wait / 1'000'000'000ull),
                          static_cast<long>(wait % 1'000'000'000ull)};
        const int ready = ::ppoll(pfds.data(), nconn, &ts, nullptr);
        if (ready < 0 && errno != EINTR) {
            broken = true;
            break;
        }
        if (ready <= 0)
            continue;

        now = nowNs();
        for (size_t i = 0; i < nconn; i++) {
            if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0)
                continue;
            Conn &c = *conns_[i];
            char buf[65536];
            for (;;) {
                const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    c.in.append(buf, static_cast<size_t>(n));
                    continue;
                }
                if (n == 0 || (errno != EAGAIN && errno != EINTR))
                    broken = true;
                break;
            }
            for (;;) {
                prism::net::RespReply rep;
                const size_t used = prism::net::parseReply(
                    std::string_view(c.in).substr(c.in_off), &rep);
                if (used == 0)
                    break;
                if (used == SIZE_MAX || c.waiting.empty()) {
                    broken = true;
                    break;
                }
                c.in_off += used;
                handleReply(c, rep, now);
            }
            if (c.in_off == c.in.size()) {
                c.in.clear();
                c.in_off = 0;
            } else if (c.in_off > (1u << 20)) {
                c.in.erase(0, c.in_off);
                c.in_off = 0;
            }
        }
        if (broken)
            break;
    }

    // Requests never answered count as failed; the connection state is
    // unusable after that, so later steps fail fast.
    if (broken) {
        r.failed += inflight;
        ok_ = false;
    }
    const uint64_t end = nowNs();
    r.cpu_share = static_cast<double>(threadCpuNs() - cpu0) /
                  static_cast<double>(end - start);
    r.late_p99_us = Samples::quantileOf(std::move(late), 0.99);
    return r;
}

}  // namespace prismbench
