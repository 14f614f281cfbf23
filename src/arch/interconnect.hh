/**
 * @file
 * Datapath <-> register-bank interconnects (paper §III-C, fig. 6).
 *
 * The input side is always a full B x B crossbar (every tree input
 * port can read any bank) — the paper shows at least one crossbar is
 * needed to decouple PE mapping from bank mapping, and picks the input
 * side. The output side is restricted; this module answers "which
 * banks can PE p write?" and its inverse for each fig. 6 topology.
 */

#ifndef DPU_ARCH_INTERCONNECT_HH
#define DPU_ARCH_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"

namespace dpu {

/**
 * Banks writable by PE `pe` under the configured output interconnect.
 *
 * - Crossbar: every bank.
 * - PerLayerSubtree (fig. 6(b)): a PE covers the leaf ports of its
 *   subtree; it can write exactly the banks feeding those ports, so a
 *   layer-l PE reaches 2^l banks and each bank sees one PE per layer
 *   (the D:1 output mux of fig. 5(a)).
 * - OnePerPe (fig. 6(c)): PE (layer l, index j) writes the single bank
 *   at local offset j*2^l + 2^(l-1); the root PE additionally writes
 *   local bank 0 (the "two in the case of the top PE" of the paper).
 */
std::vector<uint32_t> writableBanks(const ArchConfig &cfg, uint32_t pe);

/** writableBanks of every PE as a bank mask (bit b: the PE can write
 *  bank b), indexed by PE id. Needs B <= 64. */
std::vector<uint64_t> writableBankMasks(const ArchConfig &cfg);

/** PEs that can write bank `bank` (inverse of writableBanks). */
std::vector<uint32_t> writingPes(const ArchConfig &cfg, uint32_t bank);

/**
 * Mux-select values of every (bank, PE) pair for one configuration:
 * the position of PE `pe` in writingPes(cfg, bank), i.e. what the exec
 * instruction's per-bank output-select field stores. Built once per
 * configuration, so a per-write lookup allocates nothing.
 */
class OutputSelectTable
{
  public:
    explicit OutputSelectTable(const ArchConfig &cfg);

    /** The select of `pe` on `bank`. Panics if the PE cannot write
     *  the bank. */
    uint32_t operator()(uint32_t bank, uint32_t pe) const;

  private:
    uint32_t banks;
    uint32_t pes;
    std::vector<uint32_t> select; ///< [bank * pes + pe]
};

/** Where a PE's two inputs come from: tree input ports (indices into
 *  an exec's crossbar selects) for a leaf-layer PE, child PE ids
 *  otherwise. */
struct PeSources
{
    bool leaf = false;
    uint16_t src[2] = {0, 0};
};

/** The sources of every PE, indexed by PE id. */
std::vector<PeSources> peSources(const ArchConfig &cfg);

/** Widest per-bank writer set, determines the output-select width. */
uint32_t maxWritersPerBank(const ArchConfig &cfg);

} // namespace dpu

#endif // DPU_ARCH_INTERCONNECT_HH
