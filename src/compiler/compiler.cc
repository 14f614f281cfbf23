#include "compiler/compiler.hh"

#include <algorithm>
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
                           const std::vector<Instruction> &instrs)
{
    IsaLayout lay(cfg);
    uint64_t total = 0;
    for (const Instruction &in : instrs) {
        uint64_t bits = lay.lengthBits(in);
        switch (kindOf(in)) {
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

/** prepareDag without the structural hashes: only cache keys read
 *  them, so a compile without a cache skips both. */
PreparedDag
prepareUnhashed(const Dag &input)
{
    PreparedDag p;
    p.numInputs = input.numInputs();
    p.dag = binarize(input).dag;
    dpu_assert(p.dag.isBinary(), "compile needs a binarized DAG");
    p.dfsPositions = dfsPreorderPositions(p.dag);
    return p;
}

} // namespace

PreparedDag
prepareDag(const Dag &input)
{
    PreparedDag p = prepareUnhashed(input);
    p.sourceHash = dagStructuralHash(input);
    p.binarizedHash = dagStructuralHash(p.dag);
    return p;
}

CompiledProgram
compile(const Dag &input, const ArchConfig &cfg,
        const CompileOptions &options)
{
    cfg.check();
    auto t0 = std::chrono::steady_clock::now();
    // compile() never reads sourceHash and reads binarizedHash only
    // for fragment keys, so a compile without a fragment cache hashes
    // nothing.
    PreparedDag prepared = prepareUnhashed(input);
    if (options.fragmentCache)
        prepared.binarizedHash = dagStructuralHash(prepared.dag);
    const double prepare_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    CompiledProgram prog = compile(prepared, cfg, options);
    prog.stats.compileSeconds += prepare_seconds;
    return prog;
}

CompiledProgram
compile(const PreparedDag &prepared, const ArchConfig &cfg,
        const CompileOptions &options)
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

    const Dag &dag = prepared.dag;

    std::vector<std::pair<NodeId, NodeId>> parts;
    if (options.partitionNodes)
        parts = partitionByCount(dag, options.partitionNodes);
    if (parts.empty()) // unpartitioned, or a DAG with no compute nodes
        parts.push_back({0, static_cast<NodeId>(dag.numNodes())});
    const size_t num_parts = parts.size();

    // Shared read-only precompute for the range-scoped steps.
    const std::vector<uint32_t> &dfs_positions = prepared.dfsPositions;

    // Fragment-cache probe: a partition's steps 1-2 + codegen depend
    // only on what fragmentCacheKey captures, so a hit skips all
    // three for that range.
    FragmentCache *fcache = options.fragmentCache;
    std::vector<std::shared_ptr<const CompiledFragment>> hit(num_parts);
    std::vector<std::string> fkeys(num_parts);
    if (fcache) {
        for (size_t p = 0; p < num_parts; ++p) {
            fkeys[p] = fragmentCacheKey(prepared.binarizedHash, parts[p],
                                        static_cast<uint32_t>(p), dag,
                                        cfg, options);
            hit[p] = fcache->lookup(fkeys[p]);
        }
    }

    // Step 1, partition-parallel: each range's block decomposition
    // depends only on (dag, cfg, seed, range), so any thread count
    // produces the same pieces.
    std::vector<RangeDecomposition> pieces(num_parts);
    std::vector<BankAssignment> pieceBanks(num_parts);
    parallelFor(num_parts, options.threads, [&](size_t p) {
        if (hit[p])
            pieces[p] = hit[p]->dec;
        else
            pieces[p] = decomposeRangeIntoBlocks(
                dag, cfg, options.seed, parts[p], dfs_positions);
    });

    // Step 2 + merge of the per-range bank maps into the whole-DAG
    // view codegen needs (a range reads values earlier ranges own).
    // Boundary-aware mapping chains the ranges (each sees the merged
    // occupancy of its predecessors), so it runs sequentially;
    // otherwise the historical parallel fan-out applies.
    BankAssignment banks;
    banks.bankOf.assign(dag.numNodes(), BankAssignment::invalid);
    banks.peOf.assign(dag.numNodes(), BankAssignment::invalid);
    auto merge_range_banks = [&](size_t p) {
        NodeId lo = pieces[p].range.first;
        for (size_t i = 0; i < pieceBanks[p].bankOf.size(); ++i) {
            banks.bankOf[lo + i] = pieceBanks[p].bankOf[i];
            banks.peOf[lo + i] = pieceBanks[p].peOf[i];
        }
    };
    const bool boundary_aware =
        options.boundaryAwareBanks && num_parts > 1;
    if (boundary_aware) {
        for (size_t p = 0; p < num_parts; ++p) {
            if (hit[p])
                pieceBanks[p] = hit[p]->banks;
            else
                pieceBanks[p] = assignBanksForRange(
                    dag, cfg, pieces[p], options.bankPolicy,
                    partitionSeed(options.seed, p), &banks.bankOf);
            merge_range_banks(p);
        }
    } else {
        parallelFor(num_parts, options.threads, [&](size_t p) {
            if (hit[p])
                pieceBanks[p] = hit[p]->banks;
            else
                pieceBanks[p] = assignBanksForRange(
                    dag, cfg, pieces[p], options.bankPolicy,
                    partitionSeed(options.seed, p));
        });
        for (size_t p = 0; p < num_parts; ++p)
            merge_range_banks(p);
    }
    std::vector<std::span<const Block>> partBlocks(num_parts);
    std::vector<size_t> blocksPerPart(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
        partBlocks[p] = std::span<const Block>(pieces[p].blocks);
        blocksPerPart[p] = pieces[p].blocks.size();
    }
    CodegenShared shared = computeCodegenShared(dag, partBlocks);

    VerifyIrOptions vopt;
    CompiledProgram prog;
    BlockDecomposition dec;

    if (num_parts == 1) {
        // Historical monolithic tail: codegen -> merge -> whole-IR
        // reorder -> finalize. Unpartitioned programs stay bit-exact
        // with every release since the parallel compiler landed.
        std::vector<IrFragment> frags(1);
        if (hit[0]) {
            frags[0] = hit[0]->frag;
        } else {
            frags[0] = generateIrForRange(dag, cfg, partBlocks[0],
                                          pieces[0].range, banks, shared,
                                          0);
            if (fcache)
                fcache->store(fkeys[0], pieces[0], pieceBanks[0],
                              frags[0]);
        }
        IrProgram ir = mergeIrFragments(dag, cfg, banks, shared,
                                        std::move(frags), blocksPerPart);
        dec = mergeRangeDecompositions(dag, std::move(pieces));
        banks.readConflicts = countReadConflicts(dec, banks);
        if (options.validate)
            validateDecomposition(dag, cfg, dec);

        vopt.numBlocks = dec.blocks.size();
        if (options.verify)
            timed_verify([&] {
                throwIfVerifyErrors(verifyIr(ir, cfg, vopt), "codegen");
            });

        reorderForPipeline(ir, cfg, options.reorderWindow);
        if (options.validate)
            checkHazardFree(ir, cfg);
        if (options.verify) {
            vopt.hazardsResolved = true;
            timed_verify([&] {
                throwIfVerifyErrors(verifyIr(ir, cfg, vopt), "schedule");
            });
        }

        prog = finalizeProgram(std::move(ir), cfg, dec);
    } else {
        // Pipelined steps 3-4: each partition's fragment is reordered
        // as soon as its codegen completes (workers), then merged and
        // finalized in strict partition order (this thread). Both the
        // merge and the incremental finalizer are deterministic in
        // the consume order, so the program is byte-identical at
        // every thread count — threads = 1 degenerates to the plain
        // produce/consume interleave.
        std::vector<size_t> blockBase(num_parts + 1, 0);
        for (size_t p = 0; p < num_parts; ++p)
            blockBase[p + 1] = blockBase[p] + blocksPerPart[p];
        auto block_at = [&](uint32_t id) -> const Block & {
            size_t p = static_cast<size_t>(
                           std::upper_bound(blockBase.begin(),
                                            blockBase.end(), id) -
                           blockBase.begin()) -
                       1;
            return pieces[p].blocks[id - blockBase[p]];
        };

        ScheduledIrMerger merger(dag, cfg, banks, shared);
        ProgramFinalizer finalizer(cfg, block_at);
        std::vector<IrFragment> frags(num_parts);
        // The "codegen"-stage verifier needs the pre-schedule IR;
        // keep per-fragment copies only when it will run.
        std::vector<IrFragment> unscheduled;
        if (options.verify)
            unscheduled.resize(num_parts);
        size_t done_instrs = 0;
        size_t done_instances = 0;
        pipelineOrdered(
            num_parts, options.threads,
            [&](size_t p) { // produce: codegen + per-fragment reorder
                if (hit[p]) {
                    frags[p] = hit[p]->frag;
                } else {
                    frags[p] = generateIrForRange(
                        dag, cfg, partBlocks[p], pieces[p].range, banks,
                        shared, static_cast<uint32_t>(p));
                    if (fcache)
                        fcache->store(fkeys[p], pieces[p], pieceBanks[p],
                                      frags[p]);
                }
                if (options.verify)
                    unscheduled[p] = frags[p];
                reorderFragment(frags[p], cfg, options.reorderWindow);
            },
            [&](size_t p) { // consume: ordered merge + finalize chunk
                merger.append(std::move(frags[p]), blocksPerPart[p]);
                finalizer.appendChunk(merger.ir(), done_instrs,
                                      done_instances);
                done_instrs = merger.ir().instrs.size();
                done_instances = merger.ir().instances.size();
            });
        merger.finish(); // final stores
        finalizer.appendChunk(merger.ir(), done_instrs, done_instances);
        const IrProgram &ir = merger.ir();

        dec = mergeRangeDecompositions(dag, std::move(pieces));
        banks.readConflicts = countReadConflicts(dec, banks);
        if (options.validate) {
            validateDecomposition(dag, cfg, dec);
            checkHazardFree(ir, cfg);
        }

        vopt.numBlocks = dec.blocks.size();
        if (options.verify) {
            // Stage "codegen" checks the same artifact the monolithic
            // path would: the order-preserving merge of the
            // *unscheduled* fragments.
            IrProgram unsched =
                mergeIrFragments(dag, cfg, banks, shared,
                                 std::move(unscheduled), blocksPerPart);
            timed_verify([&] {
                throwIfVerifyErrors(verifyIr(unsched, cfg, vopt),
                                    "codegen");
            });
            vopt.hazardsResolved = true;
            timed_verify([&] {
                throwIfVerifyErrors(verifyIr(ir, cfg, vopt), "schedule");
            });
        }

        prog = finalizer.finish(ir, dec.blocks.size());
    }

    prog.stats.numOperations = dag.numOperations();
    prog.stats.programBits = programSizeBits(cfg, prog.instructions);
    prog.stats.programBitsExplicitWrites =
        explicitWriteFootprintBits(cfg, prog.instructions);
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

} // namespace dpu
