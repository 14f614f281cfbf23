/**
 * @file
 * Dynamic bit vector with a find-first-zero primitive, and an ordered
 * set of small integers on a two-level bitset.
 *
 * BitVec models the per-register valid bits of a DPU-v2 register bank:
 * the automatic write policy needs "lowest free address", i.e. the
 * index of the first zero bit (the hardware priority encoder of
 * fig. 5(d)). RankSet holds step 1's per-depth candidate buckets.
 */

#ifndef DPU_SUPPORT_BITVEC_HH
#define DPU_SUPPORT_BITVEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace dpu {

/** Fixed-size bit vector backed by 64-bit words. */
class BitVec
{
  public:
    BitVec() = default;

    explicit BitVec(size_t n, bool value = false)
        : numBits(n),
          words((n + 63) / 64, value ? ~uint64_t(0) : uint64_t(0))
    {
        trimTail();
    }

    size_t size() const { return numBits; }

    bool
    get(size_t i) const
    {
        dpu_assert(i < numBits, "BitVec::get out of range");
        return (words[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(size_t i, bool value = true)
    {
        dpu_assert(i < numBits, "BitVec::set out of range");
        uint64_t mask = uint64_t(1) << (i & 63);
        if (value)
            words[i >> 6] |= mask;
        else
            words[i >> 6] &= ~mask;
    }

    void clear(size_t i) { set(i, false); }

    /** Number of set bits. */
    size_t
    count() const
    {
        size_t n = 0;
        for (uint64_t w : words)
            n += static_cast<size_t>(__builtin_popcountll(w));
        return n;
    }

    /**
     * Index of the lowest zero bit (the priority-encoder output), or
     * size() if every bit is set (bank full).
     */
    size_t
    firstZero() const
    {
        for (size_t wi = 0; wi < words.size(); ++wi) {
            uint64_t inv = ~words[wi];
            if (wi + 1 == words.size())
                inv &= tailMask();
            if (inv) {
                size_t bit = static_cast<size_t>(__builtin_ctzll(inv));
                size_t idx = wi * 64 + bit;
                return idx < numBits ? idx : numBits;
            }
        }
        return numBits;
    }

    /** True if no bit is set. */
    bool
    none() const
    {
        for (uint64_t w : words)
            if (w)
                return false;
        return true;
    }

    void
    reset()
    {
        for (uint64_t &w : words)
            w = 0;
    }

    bool operator==(const BitVec &other) const = default;

  private:
    /** Mask of in-range bits within the last word. */
    uint64_t
    tailMask() const
    {
        size_t rem = numBits & 63;
        return rem ? ((uint64_t(1) << rem) - 1) : ~uint64_t(0);
    }

    /** Clear any bits beyond numBits so count()/none() stay exact. */
    void
    trimTail()
    {
        if (!words.empty())
            words.back() &= tailMask();
    }

    size_t numBits = 0;
    std::vector<uint64_t> words;
};

/**
 * Ordered set of ranks in [0, n): one bit per rank plus one summary
 * bit per 64-bit word (set iff the word is non-zero), so the nearest
 * member on either side of a rank takes a few countr_zero/countl_zero
 * calls and a scan of n/4096 summary words.
 */
class RankSet
{
  public:
    static constexpr size_t npos = static_cast<size_t>(-1);

    RankSet() = default;

    explicit RankSet(size_t n)
        : numRanks(n), words((n + 63) / 64, 0),
          summary((words.size() + 63) / 64, 0)
    {
    }

    bool empty() const { return members == 0; }
    size_t size() const { return members; }

    bool
    contains(size_t r) const
    {
        dpu_assert(r < numRanks, "RankSet rank out of range");
        return (words[r >> 6] >> (r & 63)) & 1;
    }

    void
    insert(size_t r)
    {
        if (contains(r))
            return;
        words[r >> 6] |= uint64_t(1) << (r & 63);
        summary[r >> 12] |= uint64_t(1) << ((r >> 6) & 63);
        ++members;
    }

    void
    erase(size_t r)
    {
        if (!contains(r))
            return;
        uint64_t &w = words[r >> 6];
        w &= ~(uint64_t(1) << (r & 63));
        if (!w)
            summary[r >> 12] &= ~(uint64_t(1) << ((r >> 6) & 63));
        --members;
    }

    /** The smallest member >= r, or npos. */
    size_t
    next(size_t r) const
    {
        if (r >= numRanks)
            return npos;
        size_t wi = r >> 6;
        uint64_t w = words[wi] & (~uint64_t(0) << (r & 63));
        if (w)
            return wi * 64 + static_cast<size_t>(std::countr_zero(w));
        // The first non-empty word after wi, from the summary.
        size_t from = wi + 1;
        for (size_t si = from >> 6; si < summary.size(); ++si) {
            uint64_t s = summary[si];
            if (si == from >> 6)
                s &= ~uint64_t(0) << (from & 63);
            if (s) {
                size_t wj = si * 64 +
                            static_cast<size_t>(std::countr_zero(s));
                return wj * 64 + static_cast<size_t>(
                                     std::countr_zero(words[wj]));
            }
        }
        return npos;
    }

    /** The largest member < r, or npos. */
    size_t
    prev(size_t r) const
    {
        if (r > numRanks)
            r = numRanks;
        if (r == 0)
            return npos;
        size_t last = r - 1;
        size_t wi = last >> 6;
        uint64_t w = words[wi] & (~uint64_t(0) >> (63 - (last & 63)));
        if (w)
            return wi * 64 + 63 -
                   static_cast<size_t>(std::countl_zero(w));
        // The last non-empty word before wi, from the summary.
        for (size_t wj = wi; wj-- > 0;) {
            size_t si = wj >> 6;
            uint64_t s =
                summary[si] & (~uint64_t(0) >> (63 - (wj & 63)));
            if (s) {
                size_t wk = si * 64 + 63 -
                            static_cast<size_t>(std::countl_zero(s));
                return wk * 64 + 63 -
                       static_cast<size_t>(
                           std::countl_zero(words[wk]));
            }
            wj = si * 64; // skip the rest of this summary word
        }
        return npos;
    }

  private:
    size_t numRanks = 0;
    size_t members = 0;
    std::vector<uint64_t> words;
    std::vector<uint64_t> summary;
};

} // namespace dpu

#endif // DPU_SUPPORT_BITVEC_HH
