#include "compiler/compiler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>

#include "compiler/blocks.hh"
#include "compiler/cache.hh"
#include "compiler/codegen.hh"
#include "compiler/finalize.hh"
#include "compiler/partitioner.hh"
#include "compiler/scheduler.hh"
#include "compiler/verify.hh"
#include "dag/algorithms.hh"
#include "dag/binarize.hh"
#include "support/parallel.hh"

namespace dpu {

namespace {

/** Per-partition mapper seed: partition 0 keeps the user seed so
 *  unpartitioned compiles reproduce the historical pipeline bit for
 *  bit; later partitions get decorrelated deterministic streams. */
uint64_t
partitionSeed(uint64_t seed, size_t part)
{
    return seed + 0x9e3779b97f4a7c15ull * part;
}

/**
 * Program footprint if the automatic write policy (§III-B) did not
 * exist: every instruction kind that writes registers would carry one
 * explicit address field per bank lane (load, exec) or per slot
 * (copy_4), and could drop the 1-bit valid_rst lanes in exchange —
 * the paper's 30%-program-size claim is the gap between the two.
 */
uint64_t
explicitWriteFootprintBits(const ArchConfig &cfg,
                           const Program &instrs)
{
    IsaLayout lay(cfg);
    uint64_t total = 0;
    for (const Instr &in : instrs) {
        uint64_t bits = lay.lengthBits(in.kind);
        switch (in.kind) {
          case InstrKind::Load:
            bits += uint64_t(cfg.banks) * lay.addrBits;
            break;
          case InstrKind::Exec:
            bits += uint64_t(cfg.banks) * lay.addrBits;
            bits -= cfg.banks; // valid_rst lanes no longer needed
            break;
          case InstrKind::Copy4:
            bits += 4ull * lay.addrBits;
            bits -= cfg.banks;
            break;
          default:
            break;
        }
        total += bits;
    }
    return total;
}

/** The footprints that encode register addresses, so depend on R. */
void
fillEncodedFootprints(CompiledProgram &prog)
{
    prog.stats.programBits = programSizeBits(prog.cfg, prog.instructions);
    prog.stats.programBitsExplicitWrites =
        explicitWriteFootprintBits(prog.cfg, prog.instructions);
}

} // namespace

uint64_t
csrFootprintBits(const Dag &dag)
{
    // Row-pointer per node (32b), column index per edge (32b), an
    // operator tag per node (8b), and a 32-bit word per node value
    // (inputs and intermediates both live in the global value array).
    uint64_t n = dag.numOperations();
    uint64_t bits = (n + 1) * 32 + dag.numEdges() * 32 + n * 8 +
                    dag.numNodes() * 32;
    return bits;
}

namespace {

/** The binary form every later step compiles: binarize rewrites a DAG
 *  that is already binary node for node in id order, so such an input
 *  needs none. Non-binary input is binarized into `owned`. */
const Dag &
binaryForm(const Dag &input, Dag &owned)
{
    if (input.isBinary())
        return input;
    owned = binarize(input).dag;
    dpu_assert(owned.isBinary(), "compile needs a binarized DAG");
    return owned;
}

/** Partitioning, steps 1-4 and finalization of a binary DAG: the one
 *  compile path behind both compile() overloads. */
CompiledProgram
compileBinary(const Dag &dag, const SuccessorIndex &succ,
              const std::vector<uint32_t> &dfs_positions,
              const std::vector<NodeId> &sinks, uint64_t binarized_hash,
              const ArchConfig &cfg, const CompileOptions &options)
{
    cfg.check();
    auto t0 = std::chrono::steady_clock::now();

    // Verifier passes are timed separately (stats.verifySeconds):
    // Debug/sanitizer builds must report the same compileSeconds a
    // Release build would, or compile-latency comparisons lie.
    double verify_seconds = 0.0;
    auto timed_verify = [&](auto &&check) {
        auto v0 = std::chrono::steady_clock::now();
        check();
        verify_seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - v0)
                              .count();
    };

    std::vector<std::pair<NodeId, NodeId>> parts;
    if (options.partitionNodes)
        parts = partitionByCount(dag, options.partitionNodes);
    if (parts.empty()) // unpartitioned, or a DAG with no compute nodes
        parts.push_back({0, static_cast<NodeId>(dag.numNodes())});
    const size_t num_parts = parts.size();

    // Fragment-cache probe: a partition's steps 1-2 + codegen depend
    // only on what fragmentCacheKey captures, so a hit skips all
    // three for that range. Every stage reads a hit's artifacts in
    // place through `hit[p]`, which keeps the entry alive even if the
    // cache evicts it meanwhile; only its IR fragment, which merge and
    // reorder rewrite, is copied.
    FragmentCache *fcache = options.fragmentCache;
    std::vector<std::shared_ptr<const CompiledFragment>> hit(num_parts);
    std::vector<std::string> fkeys(num_parts);
    if (fcache) {
        for (size_t p = 0; p < num_parts; ++p) {
            fkeys[p] = fragmentCacheKey(binarized_hash, parts[p],
                                        static_cast<uint32_t>(p), cfg,
                                        options);
            hit[p] = fcache->lookup(fkeys[p]);
        }
    }

    // Step 1, partition-parallel: each range's block decomposition
    // depends only on (dag, cfg, range), so any thread count produces
    // the same pieces. `decs[p]` is the range's decomposition: a cache
    // entry's, or the one in `pieces[p]` that a miss computes. Step 2
    // of a range reads the blocks of every later range (look-ahead),
    // and codegen reads every range's blocks (CodegenShared, the
    // global block ids), so both wait for the last decomposition.
    std::vector<RangeDecomposition> pieces(num_parts);
    std::vector<const RangeDecomposition *> decs(num_parts);
    parallelFor(num_parts, options.threads, [&](size_t p) {
        if (hit[p]) {
            decs[p] = &hit[p]->dec;
        } else {
            pieces[p] = decomposeRangeIntoBlocks(dag, succ, cfg, parts[p],
                                                 dfs_positions);
            decs[p] = &pieces[p];
        }
    });
    std::vector<std::span<const Block>> partBlocks(num_parts);
    std::vector<size_t> blockBase(num_parts + 1, 0);
    for (size_t p = 0; p < num_parts; ++p) {
        partBlocks[p] = decs[p]->blocks;
        blockBase[p + 1] = blockBase[p] + partBlocks[p].size();
    }
    // An unpartitioned hit reads the codegen context its entry
    // stored: it depends only on the DAG and the entry's blocks.
    CodegenShared computed;
    const CodegenShared &shared =
        num_parts == 1 && hit[0] && hit[0]->shared ? *hit[0]->shared
                                                   : computed;

    // Step 2. A miss prepares its range unordered (prepareBanksForRange
    // reads decompositions only), then maps it in the ordered chain,
    // and the merge copies its bank map into the whole-DAG view
    // codegen reads (a range reads values earlier ranges own).
    // Boundary-aware mapping chains the ranges — each sees the merged
    // banks of its predecessors and the blocks of its successors — so
    // ranges map in partition order.
    std::vector<RangeBankPrep> preps(num_parts);
    std::vector<BankAssignment> pieceBanks(num_parts);
    BankAssignment banks;
    banks.bankOf.assign(dag.numNodes(), BankAssignment::invalid);
    banks.peOf.assign(dag.numNodes(), BankAssignment::invalid);
    const bool boundary_aware =
        options.boundaryAwareBanks && num_parts > 1;
    auto later = [&](size_t p) {
        return boundary_aware
                   ? std::span<const RangeDecomposition *const>(decs)
                         .subspan(p + 1)
                   : std::span<const RangeDecomposition *const>();
    };
    // The last preparation to finish also derives the codegen
    // context, while the ordered chain already maps.
    std::atomic<size_t> unprepared{num_parts};
    auto prepare_range = [&](size_t p) {
        if (!hit[p])
            preps[p] = prepareBanksForRange(dag, cfg, pieces[p], later(p));
        if (unprepared.fetch_sub(1) == 1 && &shared == &computed)
            computed = computeCodegenShared(dag, sinks, partBlocks);
    };
    auto map_range = [&](size_t p) {
        if (!hit[p]) {
            pieceBanks[p] = assignBanksForRange(
                dag, cfg, pieces[p], preps[p], options.bankPolicy,
                partitionSeed(options.seed, p),
                boundary_aware ? &banks.bankOf : nullptr, later(p));
            preps[p] = {};
        }
        const BankAssignment &piece =
            hit[p] ? hit[p]->banks : pieceBanks[p];
        std::copy(piece.bankOf.begin(), piece.bankOf.end(),
                  banks.bankOf.begin() + decs[p]->range.first);
        std::copy(piece.peOf.begin(), piece.peOf.end(),
                  banks.peOf.begin() + decs[p]->range.first);
    };

    // Pipelined steps 2-4 on one pool of workers:
    // - pre: step 2's preparation of every range, unordered;
    // - ordered: the rest of step 2 of partition p, once p is
    //   prepared and p-1 is mapped, while other ranges are still
    //   being prepared, or in codegen, reorder or finalize;
    // - produce: codegen + per-fragment reorder, once every range is
    //   prepared and the codegen context derived;
    // - consume: this thread merges and finalizes the fragments in
    //   strict partition order.
    // Step 2 sees exactly the banks the earlier ranges chose, and the
    // merge and the incremental finalizer are deterministic in the
    // consume order, so the program is byte-identical at every thread
    // count — threads = 1 (and an unpartitioned compile) degenerates
    // to every preparation, then the plain map/produce/consume
    // interleave.
    auto block_at = [&](uint32_t id) -> const Block & {
        size_t p = static_cast<size_t>(std::upper_bound(blockBase.begin(),
                                                        blockBase.end(),
                                                        id) -
                                       blockBase.begin()) -
                   1;
        return partBlocks[p][id - blockBase[p]];
    };

    ScheduledIrMerger merger(dag, cfg, banks, shared);
    ProgramFinalizer finalizer(cfg, block_at);
    std::vector<IrFragment> frags(num_parts);
    std::vector<ScheduleStats> schedules(num_parts);
    // The "codegen"-stage verifier needs the pre-schedule IR; keep
    // per-fragment copies only when it will run.
    std::vector<IrFragment> unscheduled;
    if (options.verify)
        unscheduled.resize(num_parts);
    size_t done_instrs = 0;
    size_t done_instances = 0;
    pipelineOrdered(
        num_parts, options.threads,
        prepare_range, // pre: step-2 prep, unordered
        map_range,     // ordered: range p sees ranges < p mapped
        [&](size_t p) { // produce: codegen + per-fragment reorder
            if (hit[p]) {
                frags[p] = hit[p]->frag;
            } else {
                frags[p] = generateIrForRange(
                    dag, cfg, partBlocks[p], parts[p], banks, shared,
                    static_cast<uint32_t>(p));
                if (fcache)
                    fcache->store(fkeys[p], pieces[p], pieceBanks[p],
                                  frags[p],
                                  num_parts == 1 ? &computed : nullptr);
            }
            if (options.verify)
                unscheduled[p] = frags[p];
            schedules[p] =
                reorderFragment(frags[p], cfg, options.reorderWindow);
        },
        [&](size_t p) { // consume: ordered merge + finalize chunk
            merger.append(std::move(frags[p]), partBlocks[p].size());
            finalizer.appendChunk(merger.ir(), done_instrs,
                                  done_instances);
            done_instrs = merger.ir().instrs.size();
            done_instances = merger.ir().instances.size();
        });
    const IrProgram &ir = merger.ir();

    if (options.verify) {
        // Step 1's result, range by range, read in place.
        timed_verify([&] {
            for (const RangeDecomposition *d : decs)
                validateDecomposition(dag, cfg, *d);
        });
        // Stage "codegen" checks the order-preserving merge of the
        // *unscheduled* fragments.
        ScheduledIrMerger unsched(dag, cfg, banks, shared);
        for (size_t p = 0; p < num_parts; ++p)
            unsched.append(std::move(unscheduled[p]), partBlocks[p].size());
        VerifyIrOptions vopt;
        vopt.numBlocks = blockBase[num_parts];
        timed_verify([&] {
            throwIfVerifyErrors(verifyIr(unsched.ir(), cfg, vopt),
                                "codegen");
        });
        vopt.hazardsResolved = true;
        timed_verify([&] {
            throwIfVerifyErrors(verifyIr(ir, cfg, vopt), "schedule");
        });
    }

    CompiledProgram prog = finalizer.finish(ir, blockBase[num_parts]);

    // The register certificate (the finalizer filled peakSlots). It
    // holds when neither R-dependent branch fired: no spill, and peaks
    // that admit this compile's own R, i.e. a live estimate that never
    // reached the throttle.
    RegisterCertificate &cert = prog.registers;
    for (const ScheduleStats &s : schedules)
        cert.peakLive = std::max(cert.peakLive, s.peakLive);
    cert.valid = prog.stats.spillStores == 0;
    cert.valid = cert.admits(cfg);

    prog.stats.numOperations = dag.numOperations();
    fillEncodedFootprints(prog);
    prog.stats.csrBits = csrFootprintBits(dag);
    prog.stats.dataBits = uint64_t(prog.numRows) * cfg.banks * 32;

    // Last: the program-level pass cross-checks the stats fields just
    // filled in (V040), so it must see the finished program.
    if (options.verify)
        timed_verify(
            [&] { throwIfVerifyErrors(verifyProgram(prog), "finalize"); });

    auto t1 = std::chrono::steady_clock::now();
    prog.stats.verifySeconds = verify_seconds;
    prog.stats.compileSeconds = std::max(
        0.0, std::chrono::duration<double>(t1 - t0).count() -
                 verify_seconds);
    return prog;
}

} // namespace

PreparedDag
prepareDag(const Dag &input)
{
    PreparedDag p;
    p.numInputs = input.numInputs();
    p.sourceHash = dagStructuralHash(input);
    if (&binaryForm(input, p.dag) == &input)
        p.dag = input; // a PreparedDag owns its DAG
    p.binarizedHash = dagStructuralHash(p.dag);
    p.successors = SuccessorIndex(p.dag);
    p.dfsPositions = dfsPreorderPositions(p.dag, p.successors);
    p.sinks = p.dag.sinks();
    return p;
}

CompiledProgram
compile(const Dag &input, const ArchConfig &cfg,
        const CompileOptions &options)
{
    cfg.check();
    auto t0 = std::chrono::steady_clock::now();
    // A binary input compiles in place. The core reads the binarized
    // hash only for fragment keys, so a compile without a fragment
    // cache hashes nothing.
    Dag owned;
    const Dag &dag = binaryForm(input, owned);
    const SuccessorIndex succ(dag);
    const std::vector<uint32_t> dfs_positions =
        dfsPreorderPositions(dag, succ);
    const std::vector<NodeId> sinks = dag.sinks();
    const uint64_t binarized_hash =
        options.fragmentCache ? dagStructuralHash(dag) : 0;
    const double prepare_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    CompiledProgram prog =
        compileBinary(dag, succ, dfs_positions, sinks, binarized_hash, cfg,
                      options);
    prog.stats.compileSeconds += prepare_seconds;
    return prog;
}

CompiledProgram
compile(const PreparedDag &prepared, const ArchConfig &cfg,
        const CompileOptions &options)
{
    return compileBinary(prepared.dag, prepared.successors,
                         prepared.dfsPositions, prepared.sinks,
                         prepared.binarizedHash, cfg, options);
}

CompiledProgram
deriveForRegisterCount(const CompiledProgram &prog, uint32_t regsPerBank)
{
    ArchConfig cfg = prog.cfg;
    cfg.regsPerBank = regsPerBank;
    cfg.check();
    dpu_assert(prog.registers.admits(cfg),
               "register certificate does not admit R=" +
                   std::to_string(regsPerBank));
    CompiledProgram out = prog;
    out.cfg = cfg;
    fillEncodedFootprints(out);
    return out;
}

} // namespace dpu
