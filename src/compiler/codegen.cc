#include "compiler/codegen.hh"

#include <algorithm>
#include <unordered_map>

#include "support/rng.hh"

namespace dpu {

namespace {

/** Per-fragment RNG stream: partition 0 keeps the historical seed so
 *  unpartitioned compiles keep their program bytes; later partitions
 *  get decorrelated deterministic streams. */
uint64_t
fragmentRngSeed(uint32_t part)
{
    return 0xc0de + 0x9e3779b97f4a7c15ull * part;
}

/** Generates one partition's IR fragment. Per-node working state is
 *  a range-local array for the partition's own ids plus small hash
 *  maps for the below-range values its blocks read (inputs loaded
 *  here, io values of earlier partitions), so many fragments stay
 *  O(total nodes) together instead of O(fragments x nodes). */
class CodeGen
{
  public:
    CodeGen(const Dag &dag, const ArchConfig &cfg,
            std::span<const Block> blocks,
            std::pair<NodeId, NodeId> range, const BankAssignment &banks,
            const CodegenShared &shared, uint32_t part)
        : dag(dag), cfg(cfg), blocks(blocks), lo(range.first),
          hi(range.second), banks(banks), shared(shared), part(part),
          rng(fragmentRngSeed(part))
    {
        dpu_assert(lo <= hi && hi <= dag.numNodes(), "bad range");
    }

    IrFragment
    run()
    {
        remainingLocal.assign(hi - lo, 0);
        instLocal.assign(hi - lo, invalidInstance);
        rowCounter.assign(cfg.banks, 0);
        countReads();
        for (uint32_t b = 0; b < blocks.size(); ++b)
            emitBlock(b);
        frag.last = part + 1 == shared.numParts;
        if (frag.last)
            emitStores();
        checkBalance();
        // A fragment-cache entry keeps the fragment as it is.
        ir().instrs.shrink_to_fit();
        ir().instances.shrink_to_fit();
        frag.defs.shrink_to_fit();
        return std::move(frag);
    }

  private:
    IrProgram &ir() { return frag.ir; }

    bool inRange(NodeId v) const { return v >= lo && v < hi; }

    /** Pending local reads of v (reader blocks in this fragment). */
    uint32_t &
    remainingOf(NodeId v)
    {
        return inRange(v) ? remainingLocal[v - lo] : remainingExt[v];
    }

    /** Primary instance this fragment created for v (invalid if it
     *  has not, i.e. the value is external or not yet defined). */
    InstanceId
    instanceOf(NodeId v) const
    {
        if (inRange(v))
            return instLocal[v - lo];
        auto it = instExt.find(v);
        return it == instExt.end() ? invalidInstance : it->second;
    }

    void
    setInstance(NodeId v, InstanceId id)
    {
        if (inRange(v))
            instLocal[v - lo] = id;
        else
            instExt[v] = id;
    }

    void
    countReads()
    {
        for (const Block &blk : blocks)
            for (NodeId v : blk.inputs)
                ++remainingOf(v);
    }

    /** True when this read is the globally last register read of v:
     *  the last one in this fragment, in the partition holding the
     *  value's final reader. */
    bool
    consumeRead(NodeId v)
    {
        uint32_t &remaining = remainingOf(v);
        dpu_assert(remaining > 0, "read accounting underflow");
        return --remaining == 0 && shared.lastReaderPart[v] == part;
    }

    InstanceId
    newInstance(NodeId value, uint32_t bank, uint32_t pe)
    {
        ir().instances.push_back({value, bank, pe});
        return static_cast<InstanceId>(ir().instances.size() - 1);
    }

    /** Local primary instance, or an external reference for values
     *  loaded / produced by an earlier partition. */
    InstanceId
    primaryIdOf(NodeId v)
    {
        InstanceId id = instanceOf(v);
        if (id != invalidInstance)
            return id;
        auto [it, fresh] = externalIndexOf.try_emplace(
            v, static_cast<uint32_t>(frag.externals.size()));
        if (fresh)
            frag.externals.push_back(v);
        return IrFragment::externalFlag | it->second;
    }

    /** Home bank of the instance behind `id` (externals keep the
     *  home bank their owner chose). */
    uint32_t
    bankOfId(NodeId value, InstanceId id) const
    {
        if (IrFragment::isExternal(id))
            return banks.bankOf[value];
        return frag.ir.instances[id].bank;
    }

    /** Emit loads for the block's DAG inputs this fragment owns. */
    void
    emitLoads(const Block &blk)
    {
        // Gather the batch of inputs this block needs for the first
        // time. Inputs that are consumed together should live in the
        // same memory row so one vector load covers them all: align
        // the whole batch (bank columns permitting) to the highest
        // per-bank fill level, then advance those banks' levels. Rows
        // are fragment-local here; ScheduledIrMerger::append() replays
        // them against the global counters.
        loadBatch.clear();
        for (NodeId v : blk.inputs) {
            if (!dag.node(v).isInput() ||
                instanceOf(v) != invalidInstance) // already loaded here
                continue;
            if (shared.firstLoaderPart[v] != part)
                continue; // an earlier partition's fragment loads it
            loadBatch.push_back(v);
        }
        // One aligned row, and one load, per round; a value whose bank
        // the round already uses waits for the next round. So every
        // later round holds a bank an earlier round advanced past its
        // row, and rows ascend round by round.
        while (!loadBatch.empty()) {
            uint64_t used = 0;
            uint32_t row = 0;
            loadRound.clear();
            for (auto it = loadBatch.begin(); it != loadBatch.end();) {
                uint32_t bank = banks.bankOf[*it];
                if (used >> bank & 1) {
                    ++it;
                    continue;
                }
                used |= uint64_t(1) << bank;
                row = std::max(row, rowCounter[bank]);
                loadRound.push_back(*it);
                it = loadBatch.erase(it);
            }
            IrInstr load;
            load.kind = InstrKind::Load;
            load.memRow = row;
            load.writes.reserve(loadRound.size());
            for (NodeId v : loadRound) {
                rowCounter[banks.bankOf[v]] = row + 1;
                InstanceId id = newInstance(v, banks.bankOf[v],
                                            BankAssignment::invalid);
                setInstance(v, id);
                frag.defs.push_back({v, id});
                load.writes.push_back({id});
            }
            ir().instrs.push_back(std::move(load));
        }
    }

    /**
     * Resolve read conflicts with copies. Leaves in useOf, per input
     * of blk.inputs, the instance each read of this block should use.
     */
    void
    emitConflictCopies(const Block &blk)
    {
        useOf.clear();
        displaced.clear();
        // First pass: one value may keep each home bank.
        uint64_t used_banks = 0;
        for (uint32_t i = 0; i < blk.inputs.size(); ++i) {
            const NodeId v = blk.inputs[i];
            const uint64_t bit = uint64_t(1) << banks.bankOf[v];
            if (used_banks & bit) {
                useOf.push_back(invalidInstance);
                displaced.push_back(i);
            } else {
                useOf.push_back(primaryIdOf(v));
                used_banks |= bit;
            }
        }
        if (displaced.empty())
            return;

        ir().copyResolvedConflicts += displaced.size();

        // Pick a fresh bank per displaced value and batch the copies
        // into copy_4s with distinct source and destination banks.
        pending.clear();
        for (uint32_t i : displaced) {
            uint64_t free = ~used_banks;
            if (cfg.banks < 64)
                free &= (uint64_t(1) << cfg.banks) - 1;
            dpu_assert(free, "no free bank for conflict copy");
            uint32_t n = static_cast<uint32_t>(__builtin_popcountll(free));
            uint32_t k = static_cast<uint32_t>(rng.below(n));
            uint32_t dst = 0;
            for (uint32_t b = 0;; ++b) {
                if ((free >> b) & 1) {
                    if (k == 0) {
                        dst = b;
                        break;
                    }
                    --k;
                }
            }
            used_banks |= uint64_t(1) << dst;
            pending.push_back({i, banks.bankOf[blk.inputs[i]], dst});
        }
        while (!pending.empty()) {
            IrInstr copy;
            copy.kind = InstrKind::Copy4;
            uint64_t src_used = 0, dst_used = 0;
            for (auto it = pending.begin();
                 it != pending.end() && copy.reads.size() < 4;) {
                uint64_t sbit = uint64_t(1) << it->srcBank;
                uint64_t dbit = uint64_t(1) << it->dstBank;
                if ((src_used & sbit) || (dst_used & dbit)) {
                    ++it;
                    continue;
                }
                src_used |= sbit;
                dst_used |= dbit;
                NodeId v = blk.inputs[it->input];
                copy.reads.push_back({primaryIdOf(v), consumeRead(v)});
                InstanceId tmp = newInstance(v, it->dstBank,
                                             BankAssignment::invalid);
                copy.writes.push_back({tmp});
                useOf[it->input] = tmp;
                it = pending.erase(it);
            }
            dpu_assert(!copy.reads.empty(), "copy packing stuck");
            ir().instrs.push_back(std::move(copy));
        }
    }

    void
    emitBlock(uint32_t block_id)
    {
        const Block &blk = blocks[block_id];
        emitLoads(blk);
        emitConflictCopies(blk);

        IrInstr exec;
        exec.kind = InstrKind::Exec;
        exec.blockId = block_id; // fragment-local; merge offsets it
        exec.inputSel.assign(cfg.banks, 0);
        exec.reads.reserve(blk.inputs.size());
        exec.writes.reserve(blk.outputs.size());
        for (uint32_t i = 0; i < blk.inputs.size(); ++i) {
            const NodeId v = blk.inputs[i];
            InstanceId inst = useOf[i];
            bool is_temp = inst != primaryIdOf(v);
            bool last = is_temp ? true : consumeRead(v);
            exec.reads.push_back({inst, last});
        }
        // blk.inputs is ascending, so a read finds its input by
        // binary search.
        for (const PortRead &r : blk.reads) {
            auto at = std::lower_bound(blk.inputs.begin(),
                                       blk.inputs.end(), r.value);
            dpu_assert(at != blk.inputs.end() && *at == r.value,
                       "port read of a value that is not a block input");
            exec.inputSel[r.port] = static_cast<uint16_t>(
                bankOfId(r.value, useOf[at - blk.inputs.begin()]));
        }
        for (NodeId v : blk.outputs) {
            InstanceId id = newInstance(v, banks.bankOf[v], banks.peOf[v]);
            setInstance(v, id);
            frag.defs.push_back({v, id});
            exec.writes.push_back({id});
        }
        ir().instrs.push_back(std::move(exec));
    }

    /**
     * The final stores: every compute sink goes to the output region,
     * one store per round and one value per bank in a round. Store k
     * writes row ir.inputRows + k, past every load row here, so step
     * 3 sees no memory dependence between the loads and the stores;
     * the merge rebases the rows on the program's input region.
     */
    void
    emitStores()
    {
        std::vector<NodeId> pending;
        for (NodeId s : shared.sinks)
            if (!dag.node(s).isInput())
                pending.push_back(s);
        ir().inputRows =
            *std::max_element(rowCounter.begin(), rowCounter.end());
        uint32_t row = ir().inputRows;
        while (!pending.empty()) {
            IrInstr store;
            store.memRow = row;
            uint64_t used = 0;
            for (auto it = pending.begin(); it != pending.end();) {
                const uint32_t bank = banks.bankOf[*it];
                if (used >> bank & 1) {
                    ++it;
                    continue;
                }
                used |= uint64_t(1) << bank;
                dpu_assert(shared.lastReaderPart[*it] ==
                               CodegenShared::storeSentinel,
                           "store must be the final read");
                store.reads.push_back({primaryIdOf(*it), true});
                ir().outputs.push_back({*it, row, bank});
                it = pending.erase(it);
            }
            store.kind = store.reads.size() <= 4 ? InstrKind::Store4
                                                 : InstrKind::Store;
            ir().instrs.push_back(std::move(store));
            ++row;
        }
        ir().outputRows = row - ir().inputRows;
    }

    /** Every locally counted read must have been emitted. */
    void
    checkBalance() const
    {
        for (uint32_t remaining : remainingLocal)
            dpu_assert(remaining == 0, "read accounting out of balance");
        for (const auto &kv : remainingExt)
            dpu_assert(kv.second == 0,
                       "read accounting out of balance");
    }

    const Dag &dag;
    const ArchConfig &cfg;
    std::span<const Block> blocks;
    NodeId lo;
    NodeId hi;
    const BankAssignment &banks;
    const CodegenShared &shared;
    uint32_t part;
    Rng rng;

    IrFragment frag;
    std::unordered_map<NodeId, uint32_t> externalIndexOf;
    std::vector<uint32_t> remainingLocal; ///< idx space: v - lo.
    std::unordered_map<NodeId, uint32_t> remainingExt;
    std::vector<InstanceId> instLocal;    ///< idx space: v - lo.
    std::unordered_map<NodeId, InstanceId> instExt;
    std::vector<uint32_t> rowCounter;

    // Per-block scratch, cleared by the block that uses it.
    struct PendingCopy
    {
        uint32_t input; ///< Index into blk.inputs.
        uint32_t srcBank;
        uint32_t dstBank;
    };
    std::vector<NodeId> loadBatch;
    std::vector<NodeId> loadRound;
    std::vector<InstanceId> useOf; ///< Per input of the block.
    std::vector<uint32_t> displaced;
    std::vector<PendingCopy> pending;
};

} // namespace

CodegenShared
computeCodegenShared(const Dag &dag, std::span<const NodeId> sinks,
                     const std::vector<std::span<const Block>> &partBlocks)
{
    CodegenShared shared;
    shared.sinks = sinks;
    shared.numParts = static_cast<uint32_t>(partBlocks.size());
    shared.inputIndexOf.assign(dag.numNodes(), CodegenShared::never);
    uint32_t k = 0;
    for (NodeId v = 0; v < dag.numNodes(); ++v)
        if (dag.node(v).isInput())
            shared.inputIndexOf[v] = k++;
    shared.numInputs = k;

    shared.firstLoaderPart.assign(dag.numNodes(), CodegenShared::never);
    shared.lastReaderPart.assign(dag.numNodes(), CodegenShared::never);
    for (uint32_t p = 0; p < partBlocks.size(); ++p) {
        for (const Block &blk : partBlocks[p]) {
            for (NodeId v : blk.inputs) {
                if (shared.firstLoaderPart[v] == CodegenShared::never)
                    shared.firstLoaderPart[v] = p;
                shared.lastReaderPart[v] = p; // partitions ascend
            }
        }
    }
    // Compute sinks are read one final time by the closing store.
    for (NodeId s : sinks)
        if (!dag.node(s).isInput())
            shared.lastReaderPart[s] = CodegenShared::storeSentinel;
    return shared;
}

IrFragment
generateIrForRange(const Dag &dag, const ArchConfig &cfg,
                   std::span<const Block> blocks,
                   std::pair<NodeId, NodeId> range,
                   const BankAssignment &banks,
                   const CodegenShared &shared, uint32_t part)
{
    return CodeGen(dag, cfg, blocks, range, banks, shared, part).run();
}

ScheduledIrMerger::ScheduledIrMerger(const Dag &dag_, const ArchConfig &cfg_,
                                     const BankAssignment &banks_,
                                     const CodegenShared &shared_)
    : dag(dag_), cfg(cfg_), banks(banks_), shared(shared_)
{
    out.inputLocation.assign(dag.numInputs(), {0, 0});
    instOf.assign(dag.numNodes(), invalidInstance);
    rowCounter.assign(cfg.banks, 0);
}

void
ScheduledIrMerger::append(IrFragment &&f, size_t numBlocks)
{
    const uint32_t inst_offset = static_cast<uint32_t>(out.instances.size());
    out.instances.insert(out.instances.end(), f.ir.instances.begin(),
                         f.ir.instances.end());
    readyAt.resize(out.instances.size(), 0);
    for (auto [value, id] : f.defs)
        instOf[value] = id + inst_offset;

    // Pass 1: resolve reads/writes to merged instance ids and find
    // the boundary padding: the fragment was scheduled assuming
    // external values are readable at its cycle 0, so shift it until
    // every cross-fragment producer's write latency has elapsed.
    const uint64_t base = out.instrs.size();
    uint64_t shift = 0;
    for (size_t i = 0; i < f.ir.instrs.size(); ++i) {
        IrInstr &in = f.ir.instrs[i];
        for (IrRead &r : in.reads) {
            if (IrFragment::isExternal(r.inst)) {
                NodeId v = f.externals[r.inst & ~IrFragment::externalFlag];
                dpu_assert(instOf[v] != invalidInstance,
                           "external reference before definition");
                r.inst = instOf[v];
            } else {
                r.inst += inst_offset;
            }
            if (r.inst < inst_offset) { // produced by an earlier fragment
                const uint64_t pos = base + i;
                if (readyAt[r.inst] > pos)
                    shift = std::max(shift, readyAt[r.inst] - pos);
            }
        }
        for (IrWrite &w : in.writes)
            w.inst += inst_offset;
        if (in.kind == InstrKind::Exec)
            in.blockId += blockOffset;
    }
    for (uint64_t k = 0; k < shift; ++k)
        out.instrs.push_back(IrInstr{}); // nop
    const size_t first = out.instrs.size();

    // Pass 2: replay load rows against the global fill levels and
    // record when each write becomes readable.
    for (IrInstr &in : f.ir.instrs) {
        if (in.kind == InstrKind::Load) {
            uint32_t row = 0;
            for (const IrWrite &w : in.writes)
                row = std::max(row, rowCounter[out.instances[w.inst].bank]);
            in.memRow = row;
            for (const IrWrite &w : in.writes) {
                const RegInstance &inst = out.instances[w.inst];
                rowCounter[inst.bank] = row + 1;
                out.inputLocation[shared.inputIndexOf[inst.value]] =
                    {row, inst.bank};
            }
            out.inputRows = std::max(out.inputRows, row + 1);
        }
        const uint64_t pos = out.instrs.size();
        for (const IrWrite &w : in.writes)
            readyAt[w.inst] = pos + writeLatency(in.kind, cfg);
        out.instrs.push_back(std::move(in));
    }
    out.copyResolvedConflicts += f.ir.copyResolvedConflicts;
    blockOffset += static_cast<uint32_t>(numBlocks);
    if (f.last)
        placeOutputs(f, first);
}

void
ScheduledIrMerger::placeOutputs(const IrFragment &last, size_t firstInstr)
{
    // The result *is* an input. Input sinks have no consumers, so no
    // fragment loaded them: give them a memory home now (no hardware
    // work needed).
    for (NodeId s : shared.sinks) {
        if (!dag.node(s).isInput())
            continue;
        dpu_assert(instOf[s] == invalidInstance, "input sink was loaded");
        const uint32_t bank = banks.bankOf[s];
        const uint32_t row = rowCounter[bank]++;
        out.inputRows = std::max(out.inputRows, row + 1);
        out.inputLocation[shared.inputIndexOf[s]] = {row, bank};
        out.outputs.push_back({s, row, bank});
    }
    // Store k wrote row last.ir.inputRows + k: move it to the first
    // output row past the now-final input region.
    auto rebase = [&](uint32_t row) {
        return out.inputRows + (row - last.ir.inputRows);
    };
    for (size_t i = firstInstr; i < out.instrs.size(); ++i) {
        IrInstr &in = out.instrs[i];
        if (in.kind == InstrKind::Store || in.kind == InstrKind::Store4)
            in.memRow = rebase(in.memRow);
    }
    for (const IrProgram::OutputLoc &o : last.ir.outputs)
        out.outputs.push_back({o.node, rebase(o.row), o.col});
    out.outputRows = last.ir.outputRows;
}

} // namespace dpu
