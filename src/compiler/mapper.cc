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
    for (uint64_t k = rng.below(n); k > 0; --k)
        m &= m - 1; // drop the lowest set bit
    return static_cast<uint32_t>(std::countr_zero(m));
}

/**
 * Fill a CSR map of `keys` keys: `each(emit)` must call emit(key,
 * value) for every pair, the same pairs in the same order each time;
 * it runs twice (count, then fill), so every key's list keeps that
 * order.
 */
template <typename Each>
void
buildCsr(size_t keys, std::vector<uint32_t> &start,
         std::vector<uint32_t> &list, Each &&each)
{
    start.assign(keys + 1, 0);
    each([&](size_t key, uint32_t) { ++start[key + 1]; });
    for (size_t i = 0; i < keys; ++i)
        start[i + 1] += start[i];
    list.resize(start[keys]);
    std::vector<uint32_t> fill(start.begin(), start.end() - 1);
    each([&](size_t key, uint32_t value) { list[fill[key]++] = value; });
}

/**
 * The block with look-ahead id `id`: blocks are numbered across the
 * `later` decompositions in order, each one's blocks in its order.
 */
const Block &
laterBlock(std::span<const RangeDecomposition *const> later, uint32_t id)
{
    for (const RangeDecomposition *dec : later) {
        if (id < dec->blocks.size())
            return dec->blocks[id];
        id -= static_cast<uint32_t>(dec->blocks.size());
    }
    dpu_panic("look-ahead block id past the later ranges");
}

/**
 * The ordered half of step 2 over one contiguous id range, on its
 * prepared indexes. Per-node state is range-local (indexed v - lo);
 * block inputs coming from earlier ranges already have their banks
 * fixed by their owning range and only enter through `extBankOf`.
 * A value's readers are the range's own blocks, then its look-ahead
 * readers (prep.aheadBlocks, blocks of later ranges, which have no
 * outputs here); inputs of later ranges are not mapped yet and count
 * for nothing.
 */
class BankMapper
{
  public:
    BankMapper(const Dag &dag, const ArchConfig &cfg,
               const std::vector<Block> &blocks, NodeId lo, NodeId hi,
               const uint32_t *block_of, const RangeBankPrep &prep,
               BankPolicy policy, uint64_t seed,
               const uint32_t *ext_bank_of,
               std::span<const RangeDecomposition *const> later)
        : dag(dag), cfg(cfg), blocks(blocks), lo(lo), hi(hi),
          blockOf(block_of), prep(prep), policy(policy), rng(seed),
          extBankOf(ext_bank_of), contended(cfg.banks, 0)
    {
        readerBlocks.reserve(blocks.size() + prep.aheadBlocks.size());
        for (const Block &b : blocks)
            readerBlocks.push_back(&b);
        for (uint32_t id : prep.aheadBlocks)
            readerBlocks.push_back(&laterBlock(later, id));
        dpu_assert(prep.readerStart.size() == extent() + 1 &&
                       prep.inputStart.size() == readerBlocks.size() + 1,
                   "bank-mapping prep of another range");
    }

    BankAssignment
    run()
    {
        out.bankOf.assign(extent(), BankAssignment::invalid);
        out.peOf.assign(extent(), BankAssignment::invalid);
        takenBy.assign(blocks.size(), 0);
        initCompatibility();
        initHolders();
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

    size_t numReaders() const { return readerBlocks.size(); }

    /** The readers of in-range value v, ascending. */
    std::span<const uint32_t>
    readersOf(NodeId v) const
    {
        return {prep.readerList.data() + prep.readerStart[idx(v)],
                prep.readerList.data() + prep.readerStart[idx(v) + 1]};
    }

    /** Reader entries of in-range value v: indexes into
     *  prep.readerList and prep.readerSlot. */
    uint32_t firstReader(NodeId v) const { return prep.readerStart[idx(v)]; }
    uint32_t endReader(NodeId v) const { return prep.readerStart[idx(v) + 1]; }

    /** Holder mask of (block or reader b, bank). */
    static size_t
    holdAt(uint32_t b, uint32_t bank, uint32_t banks)
    {
        return size_t(b) * banks + bank;
    }

    /** The PEs holding a replica of io compute value v, in placement
     *  order. */
    std::span<const uint32_t>
    replicasOf(NodeId v) const
    {
        return {prep.replicaPe.data() + prep.replicaStart[idx(v)],
                prep.replicaPe.data() + prep.replicaStart[idx(v) + 1]};
    }

    /** Physical (constraint H) mask of an io value: the banks some
     *  replica can write, or any bank for a DAG input (vector loads
     *  can write any bank). */
    BankMask
    physicalMask(NodeId v) const
    {
        if (dag.node(v).isInput())
            return cfg.banks == 64 ? ~BankMask(0)
                                   : (BankMask(1) << cfg.banks) - 1;
        BankMask m = 0;
        for (uint32_t pe : replicasOf(v))
            m |= prep.peWritable[pe];
        return m;
    }

    /**
     * Banks occupied by already-fixed values of *earlier* ranges that
     * some block reads together with v (the boundary-aware extension
     * of objective I — without it, cross-partition co-reads land in
     * the same bank and each costs a copy instruction at codegen):
     * the union of v's readers' external masks.
     */
    BankMask
    externalConflictMask(NodeId v) const
    {
        BankMask m = 0;
        for (uint32_t rb : readersOf(v))
            m |= externalOf[rb];
        return m;
    }

    void
    initCompatibility()
    {
        // Per reader: the banks of its inputs that earlier ranges own.
        if (extBankOf) {
            externalOf.assign(numReaders(), 0);
            for (uint32_t rb = 0; rb < numReaders(); ++rb)
                for (NodeId w : readerBlocks[rb]->inputs)
                    if (w < lo && extBankOf[w] != BankAssignment::invalid)
                        externalOf[rb] |= BankMask(1) << extBankOf[w];
        }
        sb.assign(extent(), 0);
        bucketOf.assign(extent(), BankAssignment::invalid);
        buckets.assign(cfg.banks + 1, {});
        minBucket = cfg.banks + 1;
        for (NodeId v : prep.ioValues) {
            sb[idx(v)] = physicalMask(v);
            // Boundary-aware: co-read banks of earlier ranges shrink
            // the compatibility set up front (possibly to empty — the
            // greedy pass then falls back to the least-contended
            // physical bank, where external occupancy counts too).
            if (extBankOf)
                sb[idx(v)] &= ~externalConflictMask(v);
            moveToBucket(v, popcount(sb[idx(v)]));
        }
    }

    /**
     * Index which unassigned values still hold each bank: bit k of
     * outHold[(b, bank)] is output slot k of block b, bit k of
     * inHold[(rb, bank)] is in-range input slot k of reader rb. A
     * commit then visits only the values that lose its bank.
     */
    void
    initHolders()
    {
        const uint32_t banks = cfg.banks;
        outSlot.assign(extent(), 0);
        outHold.assign(blocks.size() * banks, 0);
        inHold.assign(numReaders() * banks, 0);
        outDone.assign(blocks.size(), 0);
        inDone.assign(numReaders(), 0);
        for (uint32_t b = 0; b < blocks.size(); ++b) {
            const std::vector<NodeId> &outs = blocks[b].outputs;
            dpu_assert(outs.size() <= 64, "more block outputs than banks");
            for (uint32_t k = 0; k < outs.size(); ++k) {
                outSlot[idx(outs[k])] = static_cast<uint8_t>(k);
                for (BankMask m = sb[idx(outs[k])]; m; m &= m - 1)
                    outHold[holdAt(b, std::countr_zero(m), banks)] |=
                        BankMask(1) << k;
            }
        }
        for (uint32_t b = 0; b < numReaders(); ++b) {
            const uint32_t first = prep.inputStart[b];
            const uint32_t n = prep.inputStart[b + 1] - first;
            dpu_assert(n <= 64, "more block inputs than banks");
            for (uint32_t k = 0; k < n; ++k)
                for (BankMask m = sb[idx(prep.inputList[first + k])]; m;
                     m &= m - 1)
                    inHold[holdAt(b, std::countr_zero(m), banks)] |=
                        BankMask(1) << k;
        }
    }

    void
    moveToBucket(NodeId v, uint32_t count)
    {
        bucketOf[idx(v)] = count;
        buckets[count].push_back(v);
        minBucket = std::min(minBucket, count);
    }

    /** Pop the unassigned node with the fewest compatible banks.
     *  Stale entries stay in their buckets until popped: the random
     *  pick counts them. */
    NodeId
    popMinNode()
    {
        for (uint32_t c = minBucket; c <= cfg.banks; ++c) {
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
                minBucket = c;
                return v;
            }
        }
        minBucket = cfg.banks + 1;
        return invalidNode;
    }

    /** Shrink an unassigned in-range value's compatibility set by a
     *  bank it holds, after a neighbour's pick. */
    void
    removeBank(NodeId v, uint32_t bank)
    {
        const uint32_t banks = cfg.banks;
        sb[idx(v)] &= ~(BankMask(1) << bank);
        moveToBucket(v, popcount(sb[idx(v)]));
        if (!dag.node(v).isInput())
            outHold[holdAt(blockOf[idx(v)], bank, banks)] &=
                ~(BankMask(1) << outSlot[idx(v)]);
        for (uint32_t e = firstReader(v); e < endReader(v); ++e)
            inHold[holdAt(prep.readerList[e], bank, banks)] &=
                ~(BankMask(1) << prep.readerSlot[e]);
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

    /** Banks already taken by assigned outputs of v's block (v
     *  itself is unassigned when this is asked). */
    BankMask
    blockTakenMask(NodeId v) const
    {
        if (dag.node(v).isInput())
            return 0;
        return takenBy[blockOf[idx(v)]];
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
            } else if (w < lo && extBankOf &&
                       extBankOf[w] != BankAssignment::invalid) {
                ++c[extBankOf[w]]; // fixed by an earlier range
            }
        };
        for (NodeId w : blockOutputs(v))
            tally(w);
        for (uint32_t rb : readersOf(v))
            for (NodeId w : readerBlocks[rb]->inputs)
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
                    self(self, owner, physicalMask(owner)) >= 0) {
                    ownerOf[b] = node;
                    if (node != v) {
                        // Reseat: node leaves its bank for b.
                        BankMask &taken = takenBy[blockOf[idx(node)]];
                        taken &= ~(BankMask(1) << out.bankOf[idx(node)]);
                        taken |= BankMask(1) << b;
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
        for (uint32_t pe : replicasOf(v))
            if (prep.peWritable[pe] >> bank & 1)
                return pe;
        dpu_panic("no replica PE writes the chosen bank");
    }

    /** Finalize v's bank: record it, pick the writer PE, propagate
     *  the F/G compatibility updates to the unassigned values that
     *  still hold the bank, mates in output order, then each reader's
     *  inputs in input order. */
    void
    commitBank(NodeId v, uint32_t bank)
    {
        const uint32_t banks = cfg.banks;
        out.bankOf[idx(v)] = bank;
        for (uint32_t e = firstReader(v); e < endReader(v); ++e)
            inDone[prep.readerList[e]] |= BankMask(1) << prep.readerSlot[e];
        if (!dag.node(v).isInput()) {
            const uint32_t b = blockOf[idx(v)];
            out.peOf[idx(v)] = pickWriterPe(v, bank);
            takenBy[b] |= BankMask(1) << bank;
            outDone[b] |= BankMask(1) << outSlot[idx(v)];
            // Constraint G (intra-block): block-mates may not share it.
            const std::vector<NodeId> &outs = blocks[b].outputs;
            for (BankMask m = outHold[holdAt(b, bank, banks)] & ~outDone[b];
                 m; m &= m - 1)
                removeBank(outs[std::countr_zero(m)], bank);
        }
        // Objective I (inter-block): values read together with v
        // should avoid v's bank.
        for (uint32_t rb : readersOf(v)) {
            const NodeId *inputs = prep.inputList.data() + prep.inputStart[rb];
            for (BankMask m = inHold[holdAt(rb, bank, banks)] & ~inDone[rb];
                 m; m &= m - 1)
                removeBank(inputs[std::countr_zero(m)], bank);
        }
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
            BankMask hard = physicalMask(v) & ~taken;
            if (!hard) {
                // Every physical bank is taken by a block-mate: reseat
                // mates via an augmenting path (must succeed).
                bool ok = augmentForBank(v, physicalMask(v));
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
        for (NodeId v : prep.ioValues) {
            BankMask taken = blockTakenMask(v);
            BankMask hard = physicalMask(v) & ~taken;
            if (!hard) {
                bool ok = augmentForBank(v, physicalMask(v));
                dpu_assert(ok, "write-port matching infeasible");
                continue;
            }
            commitBank(v, randomSetBit(hard, rng));
        }
    }

    const Dag &dag;
    const ArchConfig &cfg;
    const std::vector<Block> &blocks;
    /** Per reader: its block, the range's own blocks first. */
    std::vector<const Block *> readerBlocks;
    NodeId lo;
    NodeId hi;
    const uint32_t *blockOf; ///< Range-local block ids (idx space).
    const RangeBankPrep &prep;
    BankPolicy policy;
    Rng rng;
    const uint32_t *extBankOf; ///< Global bankOf of earlier ranges.
    BankAssignment out;

    /** Per (block, bank), see initHolders: the unassigned output
     *  slots and in-range input slots whose compatibility holds the
     *  bank. Bits of assigned slots may linger; outDone/inDone mask
     *  them. */
    std::vector<BankMask> outHold;
    std::vector<BankMask> inHold;
    std::vector<BankMask> outDone; ///< Per block: assigned output slots.
    std::vector<BankMask> inDone;  ///< Per reader: assigned input slots.
    std::vector<uint8_t> outSlot;  ///< Output slot of each io compute value.
    std::vector<BankMask> externalOf; ///< Per reader: earlier-range banks read.
    std::vector<BankMask> takenBy;    ///< Per block: banks of assigned outputs.
    std::vector<uint32_t> contended;  ///< contention() scratch.
    std::vector<BankMask> sb;   ///< Current compatibility (shrinks).
    std::vector<uint32_t> bucketOf;
    std::vector<std::vector<NodeId>> buckets;
    uint32_t minBucket = 0; ///< No bucket below it holds an entry.
};

} // namespace

BankAssignment
assignBanks(const Dag &dag, const ArchConfig &cfg,
            const RangeDecomposition &dec, BankPolicy policy, uint64_t seed)
{
    dpu_assert(dec.range.first == 0 && dec.range.second == dag.numNodes(),
               "assignBanks maps a whole-DAG decomposition");
    BankAssignment out = assignBanksForRange(
        dag, cfg, dec, prepareBanksForRange(dag, cfg, dec), policy, seed);
    out.readConflicts = countReadConflicts(dec, out);
    return out;
}

RangeBankPrep
prepareBanksForRange(const Dag &dag, const ArchConfig &cfg,
                     const RangeDecomposition &dec,
                     std::span<const RangeDecomposition *const> later)
{
    dpu_assert(cfg.banks <= 64, "bank masks are 64-bit");
    const NodeId lo = dec.range.first;
    const NodeId hi = dec.range.second;
    const std::vector<Block> &blocks = dec.blocks;
    const std::vector<uint8_t> &is_io = dec.isIo;
    dpu_assert(lo <= hi && hi <= dag.numNodes(), "bad mapper range");
    const size_t extent = hi - lo;
    RangeBankPrep prep;

    prep.peWritable = writableBankMasks(cfg);

    // Readers: the range's blocks, then the later blocks that read
    // one of its values (block inputs ascend, so the first input at or
    // past lo tells).
    std::vector<const Block *> readers;
    readers.reserve(blocks.size());
    for (const Block &block : blocks)
        readers.push_back(&block);
    uint32_t id = 0;
    for (const RangeDecomposition *d : later)
        for (const Block &block : d->blocks) {
            auto it = std::lower_bound(block.inputs.begin(),
                                       block.inputs.end(), lo);
            if (it != block.inputs.end() && *it < hi) {
                prep.aheadBlocks.push_back(id);
                readers.push_back(&block);
            }
            ++id;
        }

    // Reader -> in-range inputs, and its transpose, value -> readers.
    auto each_read = [&](auto &&emit) {
        for (uint32_t rb = 0; rb < readers.size(); ++rb) {
            const std::vector<NodeId> &inputs = readers[rb]->inputs;
            uint32_t slot = 0;
            for (auto it = std::lower_bound(inputs.begin(), inputs.end(), lo);
                 it != inputs.end() && *it < hi; ++it)
                emit(*it - lo, rb, slot++);
        }
    };
    buildCsr(readers.size(), prep.inputStart, prep.inputList,
             [&](auto &&emit) {
                 each_read([&](size_t v, uint32_t rb, uint32_t) {
                     emit(rb, static_cast<NodeId>(v + lo));
                 });
             });
    buildCsr(extent, prep.readerStart, prep.readerList, [&](auto &&emit) {
        each_read([&](size_t v, uint32_t b, uint32_t) { emit(v, b); });
    });
    buildCsr(extent, prep.readerStart, prep.readerSlot, [&](auto &&emit) {
        each_read([&](size_t v, uint32_t, uint32_t slot) { emit(v, slot); });
    });
    // Io value -> replica PEs: a node is placed only in its own block,
    // so its list is in placement order.
    buildCsr(extent, prep.replicaStart, prep.replicaPe, [&](auto &&emit) {
        for (const Block &block : blocks)
            for (const auto &[node, pe] : block.placements)
                if (is_io[node - lo])
                    emit(node - lo, pe);
    });

    for (NodeId v = lo; v < hi; ++v) {
        if (!is_io[v - lo])
            continue;
        prep.ioValues.push_back(v);
        dpu_assert(dag.node(v).isInput() ||
                       prep.replicaStart[v - lo] <
                           prep.replicaStart[v - lo + 1],
                   "io node unplaced");
    }
    return prep;
}

BankAssignment
assignBanksForRange(const Dag &dag, const ArchConfig &cfg,
                    const RangeDecomposition &dec,
                    const RangeBankPrep &prep, BankPolicy policy,
                    uint64_t seed,
                    const std::vector<uint32_t> *externalBanks,
                    std::span<const RangeDecomposition *const> later)
{
    const uint32_t *ext = nullptr;
    if (externalBanks) {
        dpu_assert(externalBanks->size() == dag.numNodes(),
                   "external bank view must cover the whole DAG");
        ext = externalBanks->data();
    }
    return BankMapper(dag, cfg, dec.blocks, dec.range.first,
                      dec.range.second, dec.blockOf.data(), prep,
                      policy, seed, ext, later)
        .run();
}

uint64_t
countReadConflicts(const RangeDecomposition &dec,
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
