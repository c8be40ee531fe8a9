/**
 * @file
 * Latency samples with the time each op was issued.
 *
 * Tails are reported as the median, over consecutive blocks of
 * kBlockSamples ops in issue order, of each block's quantile. A single
 * multi-millisecond stall (a GC burst, a descheduled vCPU) lands in one
 * or two blocks, not in the run's figure, which keeps the reported tail
 * steady from run to run; a stall that recurs in most blocks still moves
 * it. Each block's p99 has ten samples beyond it.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace prismbench {

constexpr size_t kBlockSamples = 1000;

class Samples {
  public:
    /** @p at_ns: when the op was issued (any fixed origin). */
    void add(uint64_t ns, uint64_t at_ns) { s_.push_back({at_ns, ns}); }
    void append(const Samples &o) {
        s_.insert(s_.end(), o.s_.begin(), o.s_.end());
    }
    size_t size() const { return s_.size(); }
    bool empty() const { return s_.empty(); }

    /** Nearest-rank quantile over every sample, in us (0 if empty). */
    double quantileUs(double q) const { return quantileOf(latencies(), q); }

    /**
     * Median over blocks of kBlockSamples consecutive ops of each
     * block's @p q quantile, in us. Falls back to the whole-run quantile
     * when there is less than one full block.
     */
    double blockedUs(double q) const {
        const std::vector<double> per = perBlockUs(q);
        return per.empty() ? quantileUs(q) : medianOf(per);
    }

    /** The @p q quantile of each full block, in issue order. */
    std::vector<double> perBlockUs(double q) const {
        std::vector<Sample> sorted = s_;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Sample &a, const Sample &b) { return a.at < b.at; });
        std::vector<double> per;
        std::vector<uint64_t> block;
        for (size_t i = 0; i + kBlockSamples <= sorted.size();
             i += kBlockSamples) {
            block.clear();
            for (size_t j = i; j < i + kBlockSamples; j++)
                block.push_back(sorted[j].ns);
            per.push_back(quantileOf(block, q));
        }
        return per;
    }

    double meanUs() const {
        if (s_.empty())
            return 0;
        long double sum = 0;
        for (const Sample &x : s_)
            sum += x.ns;
        return static_cast<double>(sum / s_.size()) / 1e3;
    }

    static double quantileOf(std::vector<uint64_t> v, double q) {
        if (v.empty())
            return 0;
        size_t k = static_cast<size_t>(q * static_cast<double>(v.size()));
        k = std::min(k, v.size() - 1);
        std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                         v.end());
        return static_cast<double>(v[k]) / 1e3;
    }

    static double medianOf(std::vector<double> v) {
        std::sort(v.begin(), v.end());
        const size_t n = v.size();
        return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    }

  private:
    struct Sample {
        uint64_t at;
        uint64_t ns;
    };

    std::vector<uint64_t> latencies() const {
        std::vector<uint64_t> v;
        v.reserve(s_.size());
        for (const Sample &x : s_)
            v.push_back(x.ns);
        return v;
    }

    std::vector<Sample> s_;
};

}  // namespace prismbench
