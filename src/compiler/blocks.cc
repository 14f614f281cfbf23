#include "compiler/blocks.hh"

#include <algorithm>

#include "dag/algorithms.hh"
#include "support/bitvec.hh"

namespace dpu {

namespace {

/** A free subtree slot of the buddy allocator. */
struct FreeSlot
{
    uint32_t tree;
    uint32_t index;
};

/**
 * The nodes of [lo, hi) in (DFS position, id) order: a least-digit-
 * first radix sort on the positions, 11 bits a pass. Each pass is
 * stable and the ids start ascending, so equal positions keep id
 * order.
 */
std::vector<NodeId>
sortByDfsPosition(NodeId lo, NodeId hi, const std::vector<uint32_t> &dfs_pos)
{
    constexpr uint32_t bits = 11;
    constexpr uint32_t digits = 1u << bits;
    std::vector<NodeId> nodes(hi - lo), scratch(hi - lo);
    uint32_t top = 0;
    for (NodeId v = lo; v < hi; ++v) {
        nodes[v - lo] = v;
        top = std::max(top, dfs_pos[v]);
    }
    for (uint32_t shift = 0; shift < 32 && top >> shift; shift += bits) {
        std::vector<uint32_t> start(digits + 1, 0);
        for (NodeId v : nodes)
            ++start[(dfs_pos[v] >> shift & (digits - 1)) + 1];
        for (uint32_t d = 0; d < digits; ++d)
            start[d + 1] += start[d];
        for (NodeId v : nodes)
            scratch[start[dfs_pos[v] >> shift & (digits - 1)]++] = v;
        nodes.swap(scratch);
    }
    return nodes;
}

/**
 * Step-1 engine for one contiguous id range. All per-node state is
 * range-local; nodes outside the range count as mapped (inputs live
 * in registers, earlier partitions were fully mapped before this one
 * in the equivalent sequential pass, and later partitions cannot be
 * ancestors because edges point backward in id order). Maintains,
 * incrementally:
 *  - h[v]: length of the longest chain of unmapped ancestors ending at
 *    v (capped at D+1 = unschedulable). A node is a schedulable sink
 *    iff h[v] <= D.
 *  - per-depth candidate buckets ordered by DFS preorder position:
 *    one RankSet per depth over the nodes' DFS ranks (a node's rank is
 *    its position when the range's nodes are sorted by dfsPos).
 */
class BlockBuilder
{
  public:
    BlockBuilder(const Dag &dag, const SuccessorIndex &succ,
                 const ArchConfig &cfg, std::pair<NodeId, NodeId> range,
                 const std::vector<uint32_t> &dfs_positions)
        : dag(dag), succ(succ), cfg(cfg), rangeLo(range.first),
          rangeHi(range.second), dfsPos(dfs_positions),
          mapped(extent(), false),
          h(extent(), 0),
          stamp(extent(), 0),
          coneStamp(extent(), 0),
          readFloor(extent(), 0),
          overlapEpoch(extent(), 0),
          rankOf(extent()),
          buckets(cfg.depth + 1, RankSet(extent()))
    {
        dpu_assert(rangeLo <= rangeHi && rangeHi <= dag.numNodes(),
                   "bad partition range");
        nodeAtRank = sortByDfsPosition(rangeLo, rangeHi, dfsPos);
        for (uint32_t r = 0; r < nodeAtRank.size(); ++r)
            rankOf[idx(nodeAtRank[r])] = r;
    }

    RangeDecomposition
    run()
    {
        initHeights();
        dec.range = {rangeLo, rangeHi};
        dec.blockOf.assign(extent(), RangeDecomposition::noBlock);

        size_t remaining = populateBuckets();
        while (remaining) {
            Block block = buildOneBlock();
            dpu_assert(!block.subgraphs.empty(),
                       "empty block with nodes remaining");
            commitBlock(block);
            for (const Subgraph &sg : block.subgraphs)
                remaining -= sg.nodes.size();
            unrollBlock(block);
            dec.blocks.push_back(std::move(block));
        }
        finalizeIoMarks();
        return std::move(dec);
    }

  private:
    static constexpr uint32_t probeLimit = 32;

    size_t extent() const { return rangeHi - rangeLo; }

    bool
    inRange(NodeId v) const
    {
        return v >= rangeLo && v < rangeHi;
    }

    size_t idx(NodeId v) const { return v - rangeLo; }

    /** Mapped state with out-of-range nodes counting as mapped. */
    bool
    isMapped(NodeId v) const
    {
        return !inRange(v) || mapped[idx(v)];
    }

    void
    initHeights()
    {
        const uint32_t cap = cfg.depth + 1;
        for (NodeId v = rangeLo; v < rangeHi; ++v) {
            const Node &n = dag.node(v);
            if (n.isInput()) {
                mapped[idx(v)] = true; // inputs live in registers
                continue;
            }
            uint32_t best = 0;
            for (NodeId o : n.operands)
                if (!isMapped(o))
                    best = std::max(best, h[idx(o)]);
            h[idx(v)] = std::min(best + 1, cap);
        }
    }

    /** Insert the range's candidates; count its compute nodes. */
    size_t
    populateBuckets()
    {
        size_t remaining = 0;
        for (NodeId v = rangeLo; v < rangeHi; ++v) {
            if (dag.node(v).isInput())
                continue;
            ++remaining;
            if (h[idx(v)] <= cfg.depth)
                buckets[h[idx(v)]].insert(rankOf[idx(v)]);
        }
        return remaining;
    }

    uint32_t
    recomputeHeight(NodeId v) const
    {
        uint32_t best = 0;
        for (NodeId o : dag.node(v).operands)
            if (!isMapped(o))
                best = std::max(best, h[idx(o)]);
        return std::min(best + 1, cfg.depth + 1);
    }

    static constexpr uint32_t noCone = static_cast<uint32_t>(-1);

    /**
     * Gather the cone of `sink` and return its stall: the blocks the
     * block being built would still wait for the in-range values the
     * cone reads. An exec's result is readable pipelineStages() blocks
     * later, so a value written k blocks back costs
     * pipelineStages() - k; 0 when the cone reads nothing the last
     * pipelineStages() - 1 blocks wrote. DAG inputs and the cone's own
     * nodes have no block yet, and values of earlier ranges are not
     * counted. Returns noCone, and stops early, when the cone overlaps
     * nodes already picked for the current block (epoch-stamped) or
     * its stall reaches `cap`. Either way it leaves what it saw in the
     * sink's readFloor and overlapEpoch (see knownNoCone).
     */
    uint32_t
    gatherCone(NodeId sink, uint64_t epoch, uint32_t cap,
               std::vector<NodeId> &cone)
    {
        const uint32_t current = static_cast<uint32_t>(dec.blocks.size());
        const uint32_t stages = cfg.pipelineStages();
        uint32_t &floor = readFloor[idx(sink)];
        uint32_t stall = 0;
        cone.clear();
        dfsStack.clear();
        dfsStack.push_back(sink);
        uint64_t visit_epoch = ++visitCounter;
        while (!dfsStack.empty()) {
            NodeId v = dfsStack.back();
            dfsStack.pop_back();
            if (coneStamp[idx(v)] == visit_epoch)
                continue;
            coneStamp[idx(v)] = visit_epoch;
            if (stamp[idx(v)] == epoch) {
                overlapEpoch[idx(sink)] = epoch;
                return noCone; // overlaps a cone already in this block
            }
            cone.push_back(v);
            for (NodeId o : dag.node(v).operands) {
                if (!isMapped(o)) {
                    dfsStack.push_back(o);
                    continue;
                }
                if (!inRange(o))
                    continue;
                const uint32_t b = dec.blockOf[idx(o)];
                if (b == RangeDecomposition::noBlock)
                    continue;
                floor = std::max(floor, b + 1);
                if (current - b < stages)
                    stall = std::max(stall, stages - (current - b));
                if (stall >= cap)
                    return noCone;
            }
        }
        return stall;
    }

    /**
     * True when gatherCone(sink, epoch, cap) is known to return noCone
     * without walking: the cone overlapped the block being built in
     * this epoch (cones do not change while a block is built, and its
     * picks only grow), or the stall of the latest block it is known
     * to read already reaches `cap`. That floor is a lower bound, as
     * the latest block a cone reads only grows: a cone node that maps
     * leaves the cone, and the node reading it now reads the newest
     * block.
     */
    bool
    knownNoCone(NodeId sink, uint64_t epoch, uint32_t cap) const
    {
        if (overlapEpoch[idx(sink)] == epoch)
            return true;
        const uint32_t floor = readFloor[idx(sink)];
        if (floor == 0)
            return false;
        const uint32_t since = static_cast<uint32_t>(dec.blocks.size()) -
                               (floor - 1);
        const uint32_t stages = cfg.pipelineStages();
        return since < stages && stages - since >= cap;
    }

    /**
     * Pick the best schedulable candidate: deepest depth first
     * (objective C — deeper cones hold more nodes); within a depth,
     * the nearest of its probeLimit candidates nearest the anchor in
     * DFS order (objective D) whose cone waits on no recent block
     * (stall 0, see gatherCone), else the one with the smallest stall,
     * nearer first. Returns invalidNode if nothing fits `dcap`.
     */
    NodeId
    pickCandidate(uint32_t dcap, uint64_t epoch, std::vector<NodeId> &cone,
                  uint32_t &depth)
    {
        for (uint32_t d = std::min(cfg.depth, dcap); d >= 1; --d) {
            const RankSet &bucket = buckets[d];
            if (bucket.empty())
                continue;
            // Ranks of the next forward/backward entries (npos: none).
            const uint32_t anchor = dfsPos[nodeAtRank[anchorRank]];
            size_t fwd = bucket.next(anchorRank);
            size_t bwd = bucket.prev(anchorRank);
            // Only a cone with a smaller stall than the best so far
            // can win, so gathering stops once a cone reaches it.
            NodeId best = invalidNode;
            uint32_t best_stall = cfg.pipelineStages();
            for (uint32_t probes = 0;
                 probes < probeLimit &&
                 (fwd != RankSet::npos || bwd != RankSet::npos);
                 ++probes) {
                // Take the nearer of the next forward/backward entry.
                bool take_fwd;
                if (fwd == RankSet::npos)
                    take_fwd = false;
                else if (bwd == RankSet::npos)
                    take_fwd = true;
                else {
                    uint32_t df = dfsPos[nodeAtRank[fwd]] - anchor;
                    uint32_t db = anchor - dfsPos[nodeAtRank[bwd]];
                    take_fwd = df <= db;
                }
                NodeId v;
                if (take_fwd) {
                    v = nodeAtRank[fwd];
                    fwd = bucket.next(fwd + 1);
                } else {
                    v = nodeAtRank[bwd];
                    bwd = bucket.prev(bwd);
                }
                dpu_assert(!mapped[idx(v)] && h[idx(v)] == d,
                           "stale bucket entry");
                if (knownNoCone(v, epoch, best_stall))
                    continue;
                const uint32_t stall = gatherCone(v, epoch, best_stall, cone);
                if (stall == noCone)
                    continue;
                best = v;
                best_stall = stall;
                bestCone.swap(cone);
                if (stall == 0)
                    break;
            }
            if (best != invalidNode) {
                cone.swap(bestCone);
                depth = d;
                return best;
            }
        }
        return invalidNode;
    }

    /** Build one block: pick cones and pack them into buddy slots. */
    Block
    buildOneBlock()
    {
        Block block;
        ++blockEpoch;

        // Buddy slot pool: one full-depth slot per tree.
        std::vector<std::vector<FreeSlot>> free(cfg.depth + 1);
        for (uint32_t t = 0; t < cfg.trees(); ++t)
            free[cfg.depth].push_back({t, 0});

        std::vector<NodeId> cone;
        for (;;) {
            uint32_t dcap = 0;
            for (uint32_t d = cfg.depth; d >= 1; --d) {
                if (!free[d].empty()) {
                    dcap = d;
                    break;
                }
            }
            if (dcap == 0)
                break; // datapath full

            uint32_t depth = 0;
            NodeId sink = pickCandidate(dcap, blockEpoch, cone, depth);
            if (sink == invalidNode)
                break; // nothing schedulable fits the leftover slots

            // Best-fit slot: smallest free depth >= cone depth, split
            // down buddy-style (this is what yields fig. 9(d)'s depth
            // combinations).
            uint32_t at = depth;
            while (free[at].empty())
                ++at;
            FreeSlot slot = free[at].back();
            free[at].pop_back();
            while (at > depth) {
                --at;
                free[at].push_back({slot.tree, slot.index * 2 + 1});
                slot.index = slot.index * 2;
            }

            Subgraph sg;
            sg.sink = sink;
            sg.nodes = cone;
            sg.depth = depth;
            sg.tree = slot.tree;
            sg.rootLayer = depth;
            sg.rootIndex = slot.index;
            for (NodeId v : cone)
                stamp[idx(v)] = blockEpoch;
            block.subgraphs.push_back(std::move(sg));
            anchorRank = rankOf[idx(sink)];
        }
        return block;
    }

    /** Mark the block's nodes mapped and ripple height updates. */
    void
    commitBlock(const Block &block)
    {
        uint32_t block_id = static_cast<uint32_t>(dec.blocks.size());
        std::vector<NodeId> worklist;
        for (const Subgraph &sg : block.subgraphs) {
            for (NodeId v : sg.nodes) {
                dpu_assert(!mapped[idx(v)], "node mapped twice");
                mapped[idx(v)] = true;
                dec.blockOf[idx(v)] = block_id;
                if (h[idx(v)] <= cfg.depth)
                    buckets[h[idx(v)]].erase(rankOf[idx(v)]);
                for (NodeId s : succ.of(v))
                    if (inRange(s) && !mapped[idx(s)])
                        worklist.push_back(s);
            }
        }
        // Heights only decrease; each node settles after <= D+1 drops.
        while (!worklist.empty()) {
            NodeId v = worklist.back();
            worklist.pop_back();
            if (mapped[idx(v)])
                continue;
            uint32_t nh = recomputeHeight(v);
            if (nh == h[idx(v)])
                continue;
            if (h[idx(v)] <= cfg.depth)
                buckets[h[idx(v)]].erase(rankOf[idx(v)]);
            h[idx(v)] = nh;
            if (h[idx(v)] <= cfg.depth)
                buckets[h[idx(v)]].insert(rankOf[idx(v)]);
            for (NodeId s : succ.of(v))
                if (inRange(s) && !mapped[idx(s)])
                    worklist.push_back(s);
        }
    }

    /** True if `v` belongs to the cone currently being unrolled. */
    bool
    inCone(NodeId v) const
    {
        return inRange(v) && coneStamp[idx(v)] == visitCounter;
    }

    /** Thread a register value up through pass-through PEs. */
    void
    passDown(Block &block, PeCoord at, NodeId value)
    {
        uint32_t pe = cfg.peId(at);
        dpu_assert(block.peOps[pe] == PeOp::Nop, "PE double-booked");
        block.peOps[pe] = PeOp::PassA;
        if (at.layer == 1) {
            block.reads.push_back(
                {cfg.portBank(at.tree, at.index * 2), value});
            return;
        }
        passDown(block, {at.tree, at.layer - 1, at.index * 2}, value);
    }

    /** Recursively place a cone node (replicating shared nodes). */
    void
    placeNode(Block &block, NodeId v, PeCoord at)
    {
        uint32_t pe = cfg.peId(at);
        dpu_assert(block.peOps[pe] == PeOp::Nop, "PE double-booked");
        const Node &n = dag.node(v);
        block.peOps[pe] = n.op == OpType::Add ? PeOp::Add : PeOp::Mul;
        block.placements.push_back({v, pe});
        dpu_assert(n.operands.size() == 2, "DAG must be binarized");
        if (at.layer == 1) {
            for (uint32_t i = 0; i < 2; ++i) {
                NodeId o = n.operands[i];
                dpu_assert(!inCone(o), "cone node below layer 1");
                block.reads.push_back(
                    {cfg.portBank(at.tree, at.index * 2 + i), o});
            }
            return;
        }
        for (uint32_t i = 0; i < 2; ++i) {
            NodeId o = n.operands[i];
            PeCoord child{at.tree, at.layer - 1, at.index * 2 + i};
            if (inCone(o))
                placeNode(block, o, child);
            else
                passDown(block, child, o);
        }
    }

    /** Fill peOps / reads / placements for a finished block. */
    void
    unrollBlock(Block &block)
    {
        block.peOps.assign(cfg.numPes(), PeOp::Nop);
        for (const Subgraph &sg : block.subgraphs) {
            // Re-stamp the cone so inCone() answers for this subgraph.
            ++visitCounter;
            for (NodeId v : sg.nodes)
                coneStamp[idx(v)] = visitCounter;
            placeNode(block, sg.sink,
                      {sg.tree, sg.rootLayer, sg.rootIndex});
        }
        // Distinct input values, ascending.
        block.inputs.clear();
        for (const PortRead &r : block.reads)
            block.inputs.push_back(r.value);
        std::sort(block.inputs.begin(), block.inputs.end());
        block.inputs.erase(
            std::unique(block.inputs.begin(), block.inputs.end()),
            block.inputs.end());
    }

    /** Mark io values: DAG inputs plus block outputs. A successor
     *  outside the range always lives in a different (later) block. */
    void
    finalizeIoMarks()
    {
        dec.isIo.assign(extent(), 0);
        for (NodeId v = rangeLo; v < rangeHi; ++v) {
            if (dag.node(v).isInput()) {
                dec.isIo[idx(v)] = 1;
                continue;
            }
            uint32_t b = dec.blockOf[idx(v)];
            std::span<const NodeId> consumers = succ.of(v);
            bool out = consumers.empty(); // DAG result
            for (NodeId s : consumers)
                if (!inRange(s) || dec.blockOf[idx(s)] != b)
                    out = true;
            if (out) {
                dec.isIo[idx(v)] = 1;
                dec.blocks[b].outputs.push_back(v);
            }
        }
    }

    const Dag &dag;
    const SuccessorIndex &succ;
    const ArchConfig &cfg;
    NodeId rangeLo = 0;
    NodeId rangeHi = 0;
    const std::vector<uint32_t> &dfsPos;
    std::vector<bool> mapped;
    std::vector<uint32_t> h;
    std::vector<uint64_t> stamp;     ///< block-epoch pick marks
    std::vector<uint64_t> coneStamp; ///< cone-DFS visit marks
    /** Per candidate sink: 1 + the latest block its cone is known to
     *  read (0: none known), a floor that only grows. */
    std::vector<uint32_t> readFloor;
    /** Per candidate sink: the block epoch in which its cone was seen
     *  to overlap the block being built. */
    std::vector<uint64_t> overlapEpoch;
    std::vector<uint32_t> rankOf;     ///< DFS rank of each range node
    std::vector<NodeId> nodeAtRank;   ///< inverse of rankOf
    std::vector<RankSet> buckets;     ///< per-depth candidate ranks
    std::vector<NodeId> dfsStack;
    std::vector<NodeId> bestCone; ///< pickCandidate's pick so far
    /** The result so far: blockOf of every committed node is final. */
    RangeDecomposition dec;
    uint64_t blockEpoch = 0;
    uint64_t visitCounter = 0;
    /** DFS rank of the last picked sink (0 before the first pick:
     *  nothing lies before it, so no distance is compared). */
    uint32_t anchorRank = 0;
};

} // namespace

RangeDecomposition
decomposeRangeIntoBlocks(const Dag &dag, const SuccessorIndex &succ,
                         const ArchConfig &cfg,
                         std::pair<NodeId, NodeId> range,
                         const std::vector<uint32_t> &dfs_positions)
{
    return BlockBuilder(dag, succ, cfg, range, dfs_positions).run();
}

RangeDecomposition
decomposeIntoBlocks(const Dag &dag, const ArchConfig &cfg)
{
    cfg.check();
    dpu_assert(dag.isBinary(), "decompose needs a binarized DAG");
    const SuccessorIndex succ(dag);
    return decomposeRangeIntoBlocks(
        dag, succ, cfg, {0, static_cast<NodeId>(dag.numNodes())},
        dfsPreorderPositions(dag, succ));
}

void
validateDecomposition(const Dag &dag, const ArchConfig &cfg,
                      const RangeDecomposition &dec)
{
    const auto [lo, hi] = dec.range;
    dpu_assert(lo <= hi && hi <= dag.numNodes() &&
                   dec.blockOf.size() == hi - lo,
               "bad decomposition range");

    // Every compute node of the range appears in exactly one block,
    // the one blockOf names; no block reaches outside the range.
    std::vector<uint32_t> seen(hi - lo, 0);
    for (uint32_t bi = 0; bi < dec.blocks.size(); ++bi)
        for (const Subgraph &sg : dec.blocks[bi].subgraphs) {
            dpu_assert(sg.depth >= 1 && sg.depth <= cfg.depth,
                       "subgraph depth out of range");
            for (NodeId v : sg.nodes) {
                dpu_assert(v >= lo && v < hi, "block node outside the range");
                dpu_assert(dec.blockOf[v - lo] == bi,
                           "blockOf disagrees with the blocks");
                ++seen[v - lo];
            }
        }
    for (NodeId v = lo; v < hi; ++v) {
        if (dag.node(v).isInput())
            dpu_assert(seen[v - lo] == 0, "input node inside a block");
        else
            dpu_assert(seen[v - lo] == 1, "compute node not covered once");
    }

    // Operand blocks strictly precede consumer blocks (constraint A),
    // unless operand and consumer share a block (tree edge). Operands
    // below the range live in earlier ranges' blocks.
    for (uint32_t bi = 0; bi < dec.blocks.size(); ++bi)
        for (const Subgraph &sg : dec.blocks[bi].subgraphs)
            for (NodeId v : sg.nodes)
                for (NodeId o : dag.node(v).operands) {
                    if (o < lo || dag.node(o).isInput())
                        continue;
                    dpu_assert(dec.blockOf[o - lo] <= bi,
                               "operand in a later block");
                }

    // Port reads: at most one value per port; ports exist.
    for (const Block &b : dec.blocks) {
        std::vector<bool> used(cfg.banks, false);
        for (const PortRead &r : b.reads) {
            dpu_assert(r.port < cfg.banks, "bad port");
            dpu_assert(!used[r.port], "port double-read");
            used[r.port] = true;
        }
        dpu_assert(b.peOps.size() == cfg.numPes(), "bad peOps size");
    }
}

} // namespace dpu
