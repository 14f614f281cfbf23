/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomized choices in the workload generators and the compiler
 * (e.g. the random bank picks of Algorithm 2) flow through Rng so that
 * runs are reproducible from a single seed.
 */

#ifndef DPU_SUPPORT_RNG_HH
#define DPU_SUPPORT_RNG_HH

#include <cstdint>
#include <vector>

#include "logging.hh"

namespace dpu {

/**
 * Small, fast, deterministic generator (splitmix64 core).
 *
 * splitmix64 passes BigCrush and has a trivially seedable state, which
 * keeps every module's behaviour a pure function of its seed.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state(seed) {}

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound). bound must be positive. */
    uint64_t
    below(uint64_t bound)
    {
        dpu_assert(bound > 0, "Rng::below needs a positive bound");
        // Rejection sampling to avoid modulo bias: draws below
        // (2^64 - bound) % bound are rejected. That threshold is below
        // `bound`, so a draw at or past `bound` is accepted without
        // computing it.
        for (;;) {
            uint64_t r = next();
            if (r >= bound || r >= (0 - bound) % bound)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        dpu_assert(lo <= hi, "Rng::range needs lo <= hi");
        return lo + static_cast<int64_t>(
            below(static_cast<uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        dpu_assert(!v.empty(), "Rng::pick on empty vector");
        return v[below(v.size())];
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for parallel structures). */
    Rng fork() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

  private:
    uint64_t state;
};

} // namespace dpu

#endif // DPU_SUPPORT_RNG_HH
