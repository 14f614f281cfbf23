#include "compiler/scheduler.hh"

#include <algorithm>
#include <queue>

#include "compiler/codegen.hh"
#include "support/bitvec.hh"
#include "support/logging.hh"

namespace dpu {

namespace {

/** Dependence edge: successor must issue >= gap after predecessor. */
struct DepEdge
{
    uint32_t succ;
    uint32_t gap;
};

constexpr uint32_t none = static_cast<uint32_t>(-1);

/** The dependence graph in CSR form: the successors of instruction i
 *  are succ[first[i], first[i + 1]), in the order the edges are
 *  found. */
struct DepGraph
{
    std::vector<uint32_t> first;
    std::vector<DepEdge> succ;
    std::vector<uint32_t> ndeps; ///< Predecessor count per instruction.
};

/**
 * Build the dependence graph of an IR list:
 *  - writer -> reader of each instance, gap = producer write latency;
 *  - non-final reader -> valid_rst reader of an instance, gap 1
 *    (the freeing read must stay the temporally last one);
 *  - memory ordering on a data-memory row (store->load gap 2,
 *    load->store and store->store gap 1).
 *
 * Reads carrying IrFragment::externalFlag reference values written by
 * an earlier fragment. They get a dependence slot past the local
 * instances (for valid_rst ordering among this fragment's reads of
 * the value) but no producer edge — the merge pads the boundary until
 * the producer's write has landed. The register-leak check runs only
 * on the last fragment: elsewhere a local value read or stored only
 * by later fragments legitimately has no valid_rst read.
 *
 * Count-then-fill: one walk over the list counts each instruction's
 * edges, a second identical walk places them. The walks' bookkeeping
 * is flat: the not-yet-freed readers of an instance and the loads of
 * a row since its last store are chains of index links.
 */
DepGraph
buildDeps(const IrFragment &frag, const ArchConfig &cfg)
{
    const IrProgram &ir = frag.ir;
    const uint32_t n = static_cast<uint32_t>(ir.instrs.size());
    const size_t nlocal = ir.instances.size();
    auto slot = [&](InstanceId id) -> size_t {
        if (IrFragment::isExternal(id))
            return nlocal + (id & ~IrFragment::externalFlag);
        return id;
    };

    uint32_t rows = 0;
    for (const IrInstr &in : ir.instrs)
        if (in.kind == InstrKind::Load || in.kind == InstrKind::Store ||
            in.kind == InstrKind::Store4)
            rows = std::max(rows, in.memRow + 1);

    const size_t universe = nlocal + frag.externals.size();
    std::vector<uint32_t> writer, rst_reader, reader_head;
    std::vector<uint32_t> row_writer, row_head; // last store, loads since
    std::vector<uint32_t> link_instr, link_next; // chain nodes
    auto link = [&](uint32_t instr, uint32_t head) {
        link_instr.push_back(instr);
        link_next.push_back(head);
        return static_cast<uint32_t>(link_instr.size() - 1);
    };
    auto walk = [&](auto &&add_edge) {
        writer.assign(universe, none);
        rst_reader.assign(universe, none);
        reader_head.assign(universe, none);
        row_writer.assign(rows, none);
        row_head.assign(rows, none);
        link_instr.clear();
        link_next.clear();
        for (uint32_t i = 0; i < n; ++i) {
            const IrInstr &in = ir.instrs[i];
            for (const IrRead &r : in.reads) {
                const size_t s = slot(r.inst);
                if (s < nlocal) {
                    dpu_assert(writer[s] != none, "read before write in IR");
                    add_edge(writer[s], i,
                             writeLatency(ir.instrs[writer[s]].kind, cfg));
                }
                if (r.lastRead) {
                    dpu_assert(rst_reader[s] == none,
                               "two valid_rst reads of one instance");
                    rst_reader[s] = i;
                    for (uint32_t k = reader_head[s]; k != none;
                         k = link_next[k])
                        add_edge(link_instr[k], i, 1);
                } else {
                    reader_head[s] = link(i, reader_head[s]);
                }
            }
            for (const IrWrite &w : in.writes) {
                dpu_assert(writer[w.inst] == none,
                           "instance written twice in IR");
                writer[w.inst] = i;
            }
            if (in.kind == InstrKind::Load) {
                if (row_writer[in.memRow] != none)
                    add_edge(row_writer[in.memRow], i, 2);
                row_head[in.memRow] = link(i, row_head[in.memRow]);
            } else if (in.kind == InstrKind::Store ||
                       in.kind == InstrKind::Store4) {
                if (row_writer[in.memRow] != none)
                    add_edge(row_writer[in.memRow], i, 1);
                for (uint32_t k = row_head[in.memRow]; k != none;
                     k = link_next[k])
                    add_edge(link_instr[k], i, 1);
                row_head[in.memRow] = none;
                row_writer[in.memRow] = i;
            }
        }
    };

    DepGraph g;
    g.first.assign(n + 1, 0);
    g.ndeps.assign(n, 0);
    walk([&](uint32_t from, uint32_t to, uint32_t) {
        ++g.first[from + 1];
        ++g.ndeps[to];
    });
    for (uint32_t i = 0; i < n; ++i)
        g.first[i + 1] += g.first[i];
    g.succ.resize(g.first[n]);
    // first[from] is the fill cursor, which leaves first[i] at the
    // old first[i + 1]; shift it back afterwards.
    walk([&](uint32_t from, uint32_t to, uint32_t gap) {
        g.succ[g.first[from]++] = {to, gap};
    });
    for (uint32_t i = n; i > 0; --i)
        g.first[i] = g.first[i - 1];
    g.first[0] = 0;

    // Every instance must eventually be freed, or the register file
    // leaks; codegen guarantees this by the last fragment, which holds
    // the final stores. Earlier fragments may export values that a
    // later fragment (or a store) frees.
    if (frag.last)
        for (size_t k = 0; k < nlocal; ++k)
            dpu_assert(rst_reader[k] != none, "instance never freed");
    return g;
}

/** Issue slots the longest gap-weighted path of `g` spans. Edges
 *  point forward in list order, so one pass in that order settles
 *  every instruction's earliest slot. */
uint64_t
criticalPathOf(const DepGraph &g)
{
    const uint32_t n = static_cast<uint32_t>(g.ndeps.size());
    std::vector<uint64_t> earliest(n, 0);
    uint64_t path = 0;
    for (uint32_t i = 0; i < n; ++i) {
        path = std::max(path, earliest[i] + 1);
        for (uint32_t k = g.first[i]; k < g.first[i + 1]; ++k) {
            const DepEdge &e = g.succ[k];
            earliest[e.succ] = std::max(earliest[e.succ], earliest[i] + e.gap);
        }
    }
    return path;
}

/** The banks a copy_4's slots read and write. */
struct CopyBanks
{
    uint64_t src = 0;
    uint64_t dst = 0;
};

CopyBanks
copyBanks(const IrInstr &copy, const IrFragment &frag)
{
    CopyBanks b;
    for (size_t k = 0; k < copy.reads.size(); ++k) {
        b.src |= bankBit(frag.bankOf(copy.reads[k].inst));
        b.dst |= bankBit(frag.bankOf(copy.writes[k].inst));
    }
    return b;
}

} // namespace

ScheduleStats
reorderFragment(IrFragment &frag, const ArchConfig &cfg, uint32_t window)
{
    dpu_assert(window >= 1, "window must be positive");
    DepGraph deps = buildDeps(frag, cfg);
    IrProgram &ir = frag.ir;

    const uint32_t n = static_cast<uint32_t>(ir.instrs.size());
    std::vector<uint32_t> &remaining = deps.ndeps;
    std::vector<uint64_t> ready_at(n, 0);
    std::vector<bool> scheduled(n, false);

    // Min-heaps of issueable instructions by original index. Loads
    // are kept apart and issued lazily (only when nothing else can
    // go): hoisting a load early only inflates register pressure —
    // its consumers cannot run sooner anyway — so eager loads would
    // turn straight into spill traffic in step 4. Ready copies are
    // kept apart too, as an ordered set of indices: a copy_4 issues
    // with the other ready copies of the window folded into its free
    // slots.
    using MinHeap = std::priority_queue<uint32_t, std::vector<uint32_t>,
                                        std::greater<uint32_t>>;
    MinHeap readyOthers;
    MinHeap readyLoads;
    RankSet readyCopies(n);
    auto push_ready = [&](uint32_t i) {
        switch (ir.instrs[i].kind) {
          case InstrKind::Load:
            readyLoads.push(i);
            break;
          case InstrKind::Copy4:
            readyCopies.insert(i);
            break;
          default:
            readyOthers.push(i);
        }
    };
    // Instructions whose deps are all scheduled but whose gap has not
    // elapsed yet, by release time. Release order among them does not
    // matter: the ready sets above order by index.
    using Pending = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
        pending;

    for (uint32_t i = 0; i < n; ++i)
        if (remaining[i] == 0)
            push_ready(i);

    std::vector<IrInstr> out;
    out.reserve(n + n / 8);
    ScheduleStats stats;
    stats.criticalPath = criticalPathOf(deps);

    uint32_t head = 0; // smallest unscheduled original index
    std::vector<uint32_t> group; // the instructions issued in one slot
    uint64_t now = 0;
    uint32_t done = 0;

    auto release = [&](uint64_t time) {
        while (!pending.empty() && pending.top().first <= time) {
            push_ready(pending.top().second);
            pending.pop();
        }
    };

    // Register-pressure feedback: pulling instructions forward to
    // hide hazards stretches value lifetimes, which step 4 then pays
    // for in spill traffic. Track an estimate of the live-register
    // count and shrink the look-ahead window once it passes half the
    // register file — nops are 1 cycle each, spill+reload pairs are 3.
    const uint64_t capacity =
        uint64_t(cfg.banks) * cfg.regsPerBank;
    const uint64_t high_water = capacity / 2;
    // A fragment starts with its external values already live.
    int64_t live = static_cast<int64_t>(frag.externals.size());

    while (done < n) {
        release(now);
        while (head < n && scheduled[head])
            ++head;

        stats.peakLive = std::max(stats.peakLive, live);
        uint32_t eff_window =
            live >= static_cast<int64_t>(high_water)
                ? std::min<uint32_t>(window, 8)
                : window;

        // Issue the earliest ready non-load inside the window; fall
        // back to the earliest ready load, then to a nop.
        const uint64_t limit = uint64_t(head) + eff_window;
        uint32_t pick = none;
        if (!readyOthers.empty())
            pick = readyOthers.top();
        // Every ready instruction is at or past head.
        pick = static_cast<uint32_t>(
            std::min<size_t>(pick, readyCopies.next(head)));
        if (pick >= limit)
            pick = !readyLoads.empty() && readyLoads.top() < limit
                       ? readyLoads.top()
                       : none;

        if (pick == none) {
            // Nothing issueable: a hazard the window could not hide.
            out.push_back(IrInstr{}); // nop
            ++stats.nopsInserted;
            ++now;
            continue;
        }
        IrInstr &in = ir.instrs[pick];
        group.assign(1, pick);
        if (in.kind == InstrKind::Load) {
            readyLoads.pop();
        } else if (in.kind != InstrKind::Copy4) {
            readyOthers.pop();
        } else {
            // Fold the window's other ready copies into the free
            // slots: at most four slots, no two reading one bank and
            // no two writing one.
            readyCopies.erase(pick);
            CopyBanks used = copyBanks(in, frag);
            size_t slots = in.reads.size();
            for (size_t c = readyCopies.next(pick + 1);
                 slots < 4 && c < limit; c = readyCopies.next(c + 1)) {
                const IrInstr &copy = ir.instrs[c];
                const CopyBanks b = copyBanks(copy, frag);
                if (slots + copy.reads.size() > 4 || (used.src & b.src) ||
                    (used.dst & b.dst))
                    continue;
                used.src |= b.src;
                used.dst |= b.dst;
                slots += copy.reads.size();
                group.push_back(static_cast<uint32_t>(c));
                readyCopies.erase(c);
            }
            in.reads.reserve(slots);
            in.writes.reserve(slots);
        }
        for (uint32_t i : group) {
            // Count the writes and frees before the slots move out.
            scheduled[i] = true;
            live += static_cast<int64_t>(ir.instrs[i].writes.size());
            for (const IrRead &r : ir.instrs[i].reads)
                if (r.lastRead)
                    --live;
            if (i != head)
                ++stats.movedInstructions;
            ++done;
        }
        for (size_t g = 1; g < group.size(); ++g) {
            IrInstr &member = ir.instrs[group[g]];
            in.reads.insert(in.reads.end(), member.reads.begin(),
                            member.reads.end());
            in.writes.insert(in.writes.end(), member.writes.begin(),
                             member.writes.end());
        }
        out.push_back(std::move(in));
        for (uint32_t i : group) {
            for (uint32_t k = deps.first[i]; k < deps.first[i + 1]; ++k) {
                const DepEdge &e = deps.succ[k];
                ready_at[e.succ] = std::max(ready_at[e.succ], now + e.gap);
                if (--remaining[e.succ] == 0) {
                    if (ready_at[e.succ] <= now + 1)
                        push_ready(e.succ);
                    else
                        pending.push({ready_at[e.succ], e.succ});
                }
            }
        }
        ++now;
    }
    ir.instrs = std::move(out);
    return stats;
}

} // namespace dpu
