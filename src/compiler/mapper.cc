#include "compiler/mapper.hh"

#include <algorithm>
#include <bit>
#include <span>

#include "arch/interconnect.hh"
#include "support/rng.hh"

namespace dpu {

namespace {

/** Banks are capped at 64 so a compatibility set fits one word. */
using BankMask = uint64_t;

uint32_t
popcount(BankMask m)
{
    return static_cast<uint32_t>(std::popcount(m));
}

/** Pick the k-th (random) set bit of a mask. */
uint32_t
randomSetBit(BankMask m, Rng &rng)
{
    uint32_t n = popcount(m);
    dpu_assert(n > 0, "empty mask");
    uint32_t k = static_cast<uint32_t>(rng.below(n));
    for (uint32_t b = 0;; ++b) {
        if ((m >> b) & 1) {
            if (k == 0)
                return b;
            --k;
        }
    }
}

/**
 * Step-2 engine over one contiguous id range. Per-node state is
 * range-local (indexed v - lo); block inputs coming from outside the
 * range already have their banks fixed by their owning range and are
 * simply ignored by the conflict objectives here.
 */
class BankMapper
{
  public:
    BankMapper(const Dag &dag, const ArchConfig &cfg,
               const std::vector<Block> &blocks, NodeId lo, NodeId hi,
               const uint32_t *block_of, const uint8_t *is_io,
               BankPolicy policy, uint64_t seed,
               const uint32_t *ext_bank_of = nullptr)
        : dag(dag), cfg(cfg), blocks(blocks), lo(lo), hi(hi),
          blockOf(block_of), isIo(is_io), policy(policy), rng(seed),
          extBankOf(ext_bank_of), contended(cfg.banks, 0)
    {
        dpu_assert(cfg.banks <= 64, "bank masks are 64-bit");
        dpu_assert(lo <= hi && hi <= dag.numNodes(), "bad mapper range");
        peWritable.reserve(cfg.numPes());
        for (uint32_t pe = 0; pe < cfg.numPes(); ++pe) {
            BankMask m = 0;
            for (uint32_t bank : writableBanks(cfg, pe))
                m |= BankMask(1) << bank;
            peWritable.push_back(m);
        }
    }

    BankAssignment
    run()
    {
        collectIoValues();
        initCompatibility();
        if (policy == BankPolicy::Random)
            assignRandomly();
        else
            assignGreedily();
        return std::move(out);
    }

  private:
    size_t extent() const { return hi - lo; }
    bool inRange(NodeId v) const { return v >= lo && v < hi; }
    size_t idx(NodeId v) const { return v - lo; }

    /** The blocks reading in-range value v, ascending. */
    std::span<const uint32_t>
    readersOf(NodeId v) const
    {
        return {readerList.data() + readerStart[idx(v)],
                readerList.data() + readerStart[idx(v) + 1]};
    }

    /**
     * Index io values, their reader blocks, and each block's in-range
     * inputs. A block's pending list is compacted in order as its
     * values are assigned, so the objective-I propagation of a
     * commit only visits values whose compatibility can still shrink.
     */
    void
    collectIoValues()
    {
        out.bankOf.assign(extent(), BankAssignment::invalid);
        out.peOf.assign(extent(), BankAssignment::invalid);
        readerStart.assign(extent() + 1, 0);
        pendingStart.assign(blocks.size(), 0);
        pendingSize.assign(blocks.size(), 0);
        for (uint32_t b = 0; b < blocks.size(); ++b) {
            pendingStart[b] = static_cast<uint32_t>(pendingList.size());
            for (NodeId v : blocks[b].inputs)
                if (inRange(v)) {
                    ++readerStart[idx(v) + 1];
                    pendingList.push_back(v);
                }
            pendingSize[b] = static_cast<uint32_t>(pendingList.size()) -
                             pendingStart[b];
        }
        for (size_t i = 0; i < extent(); ++i)
            readerStart[i + 1] += readerStart[i];
        readerList.resize(readerStart[extent()]);
        std::vector<uint32_t> fill(readerStart.begin(),
                                   readerStart.end() - 1);
        for (uint32_t b = 0; b < blocks.size(); ++b)
            for (NodeId v : blocks[b].inputs)
                if (inRange(v))
                    readerList[fill[idx(v)]++] = b;
        for (NodeId v = lo; v < hi; ++v)
            if (isIo[idx(v)])
                ioValues.push_back(v);
    }

    /** Physical (constraint H) mask of a value. */
    BankMask
    physicalMask(NodeId v) const
    {
        if (dag.node(v).isInput()) {
            // Vector loads can write any bank.
            return cfg.banks == 64 ? ~BankMask(0)
                                   : (BankMask(1) << cfg.banks) - 1;
        }
        BankMask m = 0;
        bool placed = false;
        for (const auto &[node, pe] : blocks[blockOf[idx(v)]].placements)
            if (node == v) {
                m |= peWritable[pe];
                placed = true;
            }
        dpu_assert(placed, "io node unplaced");
        return m;
    }

    /**
     * Banks occupied by already-fixed values of *earlier* ranges that
     * some block reads together with v (the boundary-aware extension
     * of objective I — without it, cross-partition co-reads land in
     * the same bank and each costs a copy instruction at codegen).
     */
    BankMask
    externalConflictMask(NodeId v) const
    {
        BankMask m = 0;
        for (uint32_t rb : readersOf(v))
            for (NodeId w : blocks[rb].inputs)
                if (w != v && !inRange(w)) {
                    uint32_t b = extBankOf[w];
                    if (b != BankAssignment::invalid)
                        m |= BankMask(1) << b;
                }
        return m;
    }

    void
    initCompatibility()
    {
        sb.assign(extent(), 0);
        phys.assign(extent(), 0);
        bucketOf.assign(extent(), BankAssignment::invalid);
        buckets.assign(cfg.banks + 1, {});
        for (NodeId v : ioValues) {
            phys[idx(v)] = physicalMask(v);
            sb[idx(v)] = phys[idx(v)];
            // Boundary-aware: co-read banks of earlier ranges shrink
            // the compatibility set up front (possibly to empty — the
            // greedy pass then falls back to the least-contended
            // physical bank, where external occupancy counts too).
            if (extBankOf)
                sb[idx(v)] &= ~externalConflictMask(v);
            moveToBucket(v, popcount(sb[idx(v)]));
        }
    }

    void
    moveToBucket(NodeId v, uint32_t count)
    {
        bucketOf[idx(v)] = count;
        buckets[count].push_back(v);
    }

    /** Pop the unassigned node with the fewest compatible banks. */
    NodeId
    popMinNode()
    {
        for (uint32_t c = 0; c <= cfg.banks; ++c) {
            auto &bucket = buckets[c];
            while (!bucket.empty()) {
                // Random pop (objective J needs unbiased tie-breaks).
                size_t k = rng.below(bucket.size());
                std::swap(bucket[k], bucket.back());
                NodeId v = bucket.back();
                bucket.pop_back();
                if (bucketOf[idx(v)] != c ||
                    out.bankOf[idx(v)] != BankAssignment::invalid) {
                    continue; // stale entry
                }
                return v;
            }
        }
        return invalidNode;
    }

    /** Shrink a node's compatibility set after a neighbour's pick. */
    void
    removeBank(NodeId v, uint32_t bank)
    {
        if (!inRange(v))
            return; // owned (and already fixed) by another range
        if (out.bankOf[idx(v)] != BankAssignment::invalid)
            return;
        BankMask bit = BankMask(1) << bank;
        if (!(sb[idx(v)] & bit))
            return;
        sb[idx(v)] &= ~bit;
        moveToBucket(v, popcount(sb[idx(v)]));
    }

    /** Outputs of v's block other than v (simul_wr of algorithm 2). */
    const std::vector<NodeId> &
    blockOutputs(NodeId v) const
    {
        static const std::vector<NodeId> none;
        if (dag.node(v).isInput())
            return none;
        return blocks[blockOf[idx(v)]].outputs;
    }

    /** Banks already taken by assigned outputs of v's block. */
    BankMask
    blockTakenMask(NodeId v) const
    {
        BankMask m = 0;
        for (NodeId w : blockOutputs(v))
            if (w != v && out.bankOf[idx(w)] != BankAssignment::invalid)
                m |= BankMask(1) << out.bankOf[idx(w)];
        return m;
    }

    /**
     * Count, per bank, how contended it is for v: the number of
     * already-assigned values that are read or written together with
     * v and live in that bank (algorithm 2 line 24). Reuses one
     * scratch array across calls.
     */
    const std::vector<uint32_t> &
    contention(NodeId v)
    {
        std::vector<uint32_t> &c = contended;
        std::fill(c.begin(), c.end(), 0);
        auto tally = [&](NodeId w) {
            if (w == v)
                return;
            if (inRange(w)) {
                if (out.bankOf[idx(w)] != BankAssignment::invalid)
                    ++c[out.bankOf[idx(w)]];
            } else if (extBankOf &&
                       extBankOf[w] != BankAssignment::invalid) {
                ++c[extBankOf[w]]; // fixed by an earlier range
            }
        };
        for (NodeId w : blockOutputs(v))
            tally(w);
        for (uint32_t rb : readersOf(v))
            for (NodeId w : blocks[rb].inputs)
                tally(w);
        return c;
    }

    /**
     * Constraint-G repair: try to re-seat already-assigned outputs of
     * the block so some bank in `want` frees up for v. Kuhn-style
     * augmenting search over the block's outputs x physical banks.
     * Guaranteed to succeed for the fig. 6 topologies (the per-tree
     * writable-bank families admit a system of distinct
     * representatives; see DESIGN.md).
     */
    bool
    augmentForBank(NodeId v, BankMask want)
    {
        const auto &outs = blockOutputs(v);
        std::vector<NodeId> ownerOf(cfg.banks, invalidNode);
        for (NodeId w : outs)
            if (w != v && out.bankOf[idx(w)] != BankAssignment::invalid)
                ownerOf[out.bankOf[idx(w)]] = w;

        std::vector<bool> visited(cfg.banks, false);
        // Depth-first augmenting path: take bank b for `node`,
        // recursively reseating its current owner.
        auto dfs = [&](auto &&self, NodeId node, BankMask allowed) -> int {
            for (uint32_t b = 0; b < cfg.banks; ++b) {
                if (!(allowed >> b & 1) || visited[b])
                    continue;
                visited[b] = true;
                NodeId owner = ownerOf[b];
                if (owner == invalidNode ||
                    self(self, owner, phys[idx(owner)]) >= 0) {
                    ownerOf[b] = node;
                    if (node != v) {
                        out.bankOf[idx(node)] = b;
                        out.peOf[idx(node)] = pickWriterPe(node, b);
                    }
                    return static_cast<int>(b);
                }
            }
            return -1;
        };
        int got = dfs(dfs, v, want);
        if (got < 0)
            return false;
        commitBank(v, static_cast<uint32_t>(got));
        return true;
    }

    /** The first replica PE of v, in placement order, that can
     *  write `bank` (constraint H). */
    uint32_t
    pickWriterPe(NodeId v, uint32_t bank) const
    {
        for (const auto &[node, pe] : blocks[blockOf[idx(v)]].placements)
            if (node == v && (peWritable[pe] >> bank & 1))
                return pe;
        dpu_panic("no replica PE writes the chosen bank");
    }

    /** Objective I for block rb after `bank` went to a value it
     *  reads: its still-unassigned inputs avoid that bank. Assigned
     *  values leave the pending list here (a no-op for removeBank
     *  anyway), keeping the survivors in input order. */
    void
    avoidInReader(uint32_t rb, uint32_t bank)
    {
        NodeId *pending = pendingList.data() + pendingStart[rb];
        uint32_t kept = 0;
        for (uint32_t i = 0; i < pendingSize[rb]; ++i) {
            NodeId w = pending[i];
            if (out.bankOf[idx(w)] != BankAssignment::invalid)
                continue;
            removeBank(w, bank);
            pending[kept++] = w;
        }
        pendingSize[rb] = kept;
    }

    /** Finalize v's bank: record it, pick the writer PE, propagate
     *  the F/G compatibility updates. */
    void
    commitBank(NodeId v, uint32_t bank)
    {
        out.bankOf[idx(v)] = bank;
        if (!dag.node(v).isInput())
            out.peOf[idx(v)] = pickWriterPe(v, bank);
        // Constraint G (intra-block): block-mates may not share it.
        for (NodeId w : blockOutputs(v))
            if (w != v)
                removeBank(w, bank);
        // Objective I (inter-block): values read together with v
        // should avoid v's bank.
        for (uint32_t rb : readersOf(v))
            avoidInReader(rb, bank);
    }

    void
    assignGreedily()
    {
        for (;;) {
            NodeId v = popMinNode();
            if (v == invalidNode)
                break;
            BankMask taken = blockTakenMask(v);
            BankMask free_compatible = sb[idx(v)] & ~taken;
            if (free_compatible) {
                commitBank(v, randomSetBit(free_compatible, rng));
                continue;
            }
            // No conflict-free compatible bank left. Fall back to the
            // least-contended physically writable bank (read conflicts
            // become copies), still honoring constraint G.
            BankMask hard = phys[idx(v)] & ~taken;
            if (!hard) {
                // Every physical bank is taken by a block-mate: reseat
                // mates via an augmenting path (must succeed).
                bool ok = augmentForBank(v, phys[idx(v)]);
                dpu_assert(ok, "write-port matching infeasible");
                continue;
            }
            const auto &contended = contention(v);
            uint32_t best = BankAssignment::invalid;
            uint32_t best_score = ~0u;
            for (uint32_t b = 0; b < cfg.banks; ++b) {
                if (!(hard >> b & 1))
                    continue;
                if (contended[b] < best_score) {
                    best_score = contended[b];
                    best = b;
                }
            }
            commitBank(v, best);
        }
    }

    /** fig. 10(b)'s baseline: uniform pick among physical banks,
     *  repaired only for the hard write-port constraint G. */
    void
    assignRandomly()
    {
        for (NodeId v : ioValues) {
            BankMask taken = blockTakenMask(v);
            BankMask hard = phys[idx(v)] & ~taken;
            if (!hard) {
                bool ok = augmentForBank(v, phys[idx(v)]);
                dpu_assert(ok, "write-port matching infeasible");
                continue;
            }
            commitBank(v, randomSetBit(hard, rng));
        }
    }

    const Dag &dag;
    const ArchConfig &cfg;
    const std::vector<Block> &blocks;
    NodeId lo;
    NodeId hi;
    const uint32_t *blockOf; ///< Range-local block ids (idx space).
    const uint8_t *isIo;     ///< Range-local io marks (idx space).
    BankPolicy policy;
    Rng rng;
    const uint32_t *extBankOf; ///< Global bankOf of earlier ranges.
    BankAssignment out;

    std::vector<BankMask> peWritable; ///< Writable banks per PE.
    std::vector<NodeId> ioValues;
    /** CSR of in-range value -> reader blocks (readersOf). */
    std::vector<uint32_t> readerStart;
    std::vector<uint32_t> readerList;
    /** Per block: its in-range inputs not yet assigned, a prefix of
     *  pendingList[pendingStart[b]..] of length pendingSize[b]. */
    std::vector<uint32_t> pendingStart;
    std::vector<uint32_t> pendingSize;
    std::vector<NodeId> pendingList;
    std::vector<uint32_t> contended; ///< contention() scratch.
    std::vector<BankMask> sb;   ///< Current compatibility (shrinks).
    std::vector<BankMask> phys; ///< Constraint-H mask (fixed).
    std::vector<uint32_t> bucketOf;
    std::vector<std::vector<NodeId>> buckets;
};

} // namespace

BankAssignment
assignBanks(const Dag &dag, const ArchConfig &cfg,
            const BlockDecomposition &dec, BankPolicy policy, uint64_t seed)
{
    // Whole-DAG range: global and range-local indexing coincide.
    std::vector<uint8_t> is_io(dag.numNodes(), 0);
    for (NodeId v = 0; v < dag.numNodes(); ++v)
        is_io[v] = dec.isIo[v] ? 1 : 0;
    BankAssignment out =
        BankMapper(dag, cfg, dec.blocks, 0,
                   static_cast<NodeId>(dag.numNodes()),
                   dec.blockOf.data(), is_io.data(), policy, seed)
            .run();
    out.readConflicts = countReadConflicts(dec, out);
    return out;
}

BankAssignment
assignBanksForRange(const Dag &dag, const ArchConfig &cfg,
                    const RangeDecomposition &dec, BankPolicy policy,
                    uint64_t seed, const std::vector<uint32_t> *externalBanks)
{
    const uint32_t *ext = nullptr;
    if (externalBanks) {
        dpu_assert(externalBanks->size() == dag.numNodes(),
                   "external bank view must cover the whole DAG");
        ext = externalBanks->data();
    }
    return BankMapper(dag, cfg, dec.blocks, dec.range.first,
                      dec.range.second, dec.blockOf.data(),
                      dec.isIo.data(), policy, seed, ext)
        .run();
}

uint64_t
countReadConflicts(const BlockDecomposition &dec,
                   const BankAssignment &assignment)
{
    // The scratch array is sized from the assignment itself, not a
    // hardcoded bank count: configurations beyond 64 banks are
    // rejected by ArchConfig::check(), but this helper is public and
    // must not write out of bounds for any input.
    uint32_t banks = 64;
    for (uint32_t b : assignment.bankOf)
        if (b != BankAssignment::invalid && b >= banks)
            banks = b + 1;
    uint64_t conflicts = 0;
    std::vector<uint32_t> seen;
    for (const Block &b : dec.blocks) {
        seen.assign(banks, 0);
        for (NodeId v : b.inputs) {
            uint32_t bank = assignment.bankOf[v];
            dpu_assert(bank != BankAssignment::invalid, "unmapped input");
            if (seen[bank]++)
                ++conflicts; // every extra co-resident input = 1 copy
        }
    }
    return conflicts;
}

} // namespace dpu
