/**
 * @file
 * RESP load generator for the resp_get workload.
 *
 * One thread drives a few loopback connections, either closed loop (one
 * request in flight per connection) or open loop: requests are due on a
 * seeded Poisson schedule and each latency is timed from when the request
 * was due, so a stall also charges the requests queued behind it. The
 * generator blocks in ppoll() until the next request is due or a reply
 * arrives (nanosecond deadline, 1 ns timer slack), and never spins
 * while nothing is in flight, so it leaves the cores to the server.
 * Every reply is checked: a GET must return the key's
 * ycsb::OpGenerator::fillValue payload, a SET must return +OK.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rand.h"
#include "common/stats.h"
#include "samples.h"
#include "ycsb/workload.h"

namespace prismbench {

struct WireOptions {
    int port = 0;
    int conns = 4;
    /** Counted once per reply, when set. */
    prism::stats::Counter *completed = nullptr;
    prism::ycsb::WorkloadSpec spec;  ///< op mix and key popularity
    uint64_t seed = 1;
};

/** Outcome of one fixed-rate step. */
struct WireStep {
    double rate = 0;            ///< offered ops/s (0: closed loop)
    uint64_t sent = 0;
    uint64_t failed = 0;        ///< error/wrong replies, or never answered
    uint64_t backlog = 0;       ///< in flight when the schedule ended
    Samples get;                ///< due -> reply, per GET
    Samples put;                ///< due -> reply, per SET
    double late_p99_us = 0;     ///< how late sends left vs their due time
    double cpu_share = 0;       ///< generator thread CPU / wall
};

/**
 * Connects on construction; ok() is false when a connection failed.
 * Not thread-safe; one instance per generator thread.
 */
class WireClient {
  public:
    explicit WireClient(const WireOptions &opts);
    ~WireClient();

    WireClient(const WireClient &) = delete;
    WireClient &operator=(const WireClient &) = delete;

    bool ok() const { return ok_; }

    /**
     * Offer @p rate ops/s for @p duration_ns, then drain. @p rate 0 runs
     * closed-loop instead: one request in flight per connection.
     */
    WireStep run(double rate, uint64_t duration_ns);

  private:
    struct Conn;

    bool ok_ = false;
    WireOptions opts_;
    prism::ycsb::OpGenerator gen_;
    prism::Xorshift arrivals_;
    std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace prismbench
