/**
 * @file
 * The DPU-v2 architecture template (paper §III, fig. 5(a)).
 *
 * The template has three independent parameters — the PE-tree depth D,
 * the number of register banks B, and the registers per bank R — plus
 * the interconnect topology choices of fig. 6. Everything else is
 * derived: T = B / 2^D parallel trees, T * (2^D - 1) PEs, and D + 1
 * pipeline stages.
 */

#ifndef DPU_ARCH_CONFIG_HH
#define DPU_ARCH_CONFIG_HH

#include <cstdint>
#include <string>

#include "support/logging.hh"

namespace dpu {

/** Output-interconnect topologies of fig. 6 (input is a crossbar). */
enum class OutputInterconnect : uint8_t {
    Crossbar,        ///< fig. 6(a): any PE can write any bank.
    PerLayerSubtree, ///< fig. 6(b): each bank picks one PE per layer
                     ///  (a D:1 mux); a PE writes its subtree's banks.
    OnePerPe,        ///< fig. 6(c): each PE writes one fixed bank.
};

/** Printable topology name. */
inline const char *
interconnectName(OutputInterconnect k)
{
    switch (k) {
      case OutputInterconnect::Crossbar: return "crossbar";
      case OutputInterconnect::PerLayerSubtree: return "per-layer";
      case OutputInterconnect::OnePerPe: return "one-per-pe";
    }
    return "?";
}

/** Coordinates of a PE: tree, layer (1 = leaf layer .. D = root), index. */
struct PeCoord
{
    uint32_t tree;
    uint32_t layer;
    uint32_t index;

    bool operator==(const PeCoord &) const = default;
};

/** One instantiation of the DPU-v2 template. */
struct ArchConfig
{
    uint32_t depth = 3;        ///< D: PE-tree depth (layers).
    uint32_t banks = 64;       ///< B: register banks.
    uint32_t regsPerBank = 32; ///< R: registers per bank.
    OutputInterconnect outputNet = OutputInterconnect::PerLayerSubtree;

    /** Data-memory rows (each row is B words). */
    uint32_t dataMemRows = 4096;

    /** Largest supported R: register addresses are 16-bit lanes. */
    static constexpr uint32_t maxRegsPerBank = 65536;

    /** Validate the derived-parameter constraints. */
    void
    check() const
    {
        dpu_assert(depth >= 1 && depth <= 6, "D out of supported range");
        dpu_assert(banks >= (1u << depth),
                   "need at least one tree: B >= 2^D");
        dpu_assert((banks & (banks - 1)) == 0, "B must be a power of two");
        dpu_assert(banks % (1u << depth) == 0, "B must be T * 2^D");
        if (banks > 64)
            dpu_fatal("B > 64 unsupported: bank masks are 64-bit "
                      "(requested B=" + std::to_string(banks) + ")");
        dpu_assert(regsPerBank >= 2, "R too small");
        if (regsPerBank > maxRegsPerBank)
            dpu_fatal("R > " + std::to_string(maxRegsPerBank) +
                      " unsupported: register addresses are 16-bit "
                      "(requested R=" + std::to_string(regsPerBank) + ")");
    }

    /** T: number of parallel PE trees (= B / 2^D). */
    uint32_t trees() const { return banks >> depth; }

    /** Leaf input ports per tree (= 2^D). One register bank per port. */
    uint32_t portsPerTree() const { return 1u << depth; }

    /** PEs per tree (= 2^D - 1). */
    uint32_t pesPerTree() const { return (1u << depth) - 1; }

    /** Total PE count. */
    uint32_t numPes() const { return trees() * pesPerTree(); }

    /** Pipeline stages of the datapath (paper §IV-C: D + 1). */
    uint32_t pipelineStages() const { return depth + 1; }

    /** PEs in one layer of one tree (layer 1 = leaves). */
    uint32_t
    pesInLayer(uint32_t layer) const
    {
        dpu_assert(layer >= 1 && layer <= depth, "bad layer");
        return 1u << (depth - layer);
    }

    /** Flat id of a PE; tree-major, then layer 1..D, then index. */
    uint32_t
    peId(const PeCoord &c) const
    {
        dpu_assert(c.tree < trees(), "bad tree");
        dpu_assert(c.layer >= 1 && c.layer <= depth, "bad layer");
        dpu_assert(c.index < pesInLayer(c.layer), "bad index");
        uint32_t off = 0;
        for (uint32_t l = 1; l < c.layer; ++l)
            off += pesInLayer(l);
        return c.tree * pesPerTree() + off + c.index;
    }

    /** Inverse of peId(). */
    PeCoord
    peCoord(uint32_t id) const
    {
        dpu_assert(id < numPes(), "bad pe id");
        PeCoord c;
        c.tree = id / pesPerTree();
        uint32_t rem = id % pesPerTree();
        c.layer = 1;
        while (rem >= pesInLayer(c.layer)) {
            rem -= pesInLayer(c.layer);
            ++c.layer;
        }
        c.index = rem;
        return c;
    }

    /** The bank feeding tree input port `port` of tree `tree`. */
    uint32_t
    portBank(uint32_t tree, uint32_t port) const
    {
        dpu_assert(tree < trees() && port < portsPerTree(), "bad port");
        return tree * portsPerTree() + port;
    }

    /** Short "D/B/R" descriptor for logs and tables. */
    std::string
    label() const
    {
        // Seeded with a std::string (not a leading literal +
        // string&&): the literal+rvalue form trips GCC 12's bogus
        // -Wrestrict diagnostic (GCC PR 105329) at some inlining
        // depths.
        std::string s = "D";
        s += std::to_string(depth);
        s += ".B";
        s += std::to_string(banks);
        s += ".R";
        s += std::to_string(regsPerBank);
        return s;
    }
};

/** The paper's minimum-EDP configuration (§V-B). */
inline ArchConfig
minEdpConfig()
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 64;
    c.regsPerBank = 32;
    return c;
}

/** The large configuration used for Table I(c) ("DPU-v2 (L)", §V-C2). */
inline ArchConfig
largeConfig()
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 64;
    c.regsPerBank = 256;
    c.dataMemRows = 8192; // 2 MB / (64 banks * 4 B)
    return c;
}

} // namespace dpu

#endif // DPU_ARCH_CONFIG_HH
