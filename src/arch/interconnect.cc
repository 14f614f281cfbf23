#include "arch/interconnect.hh"

#include <algorithm>

namespace dpu {

std::vector<uint32_t>
writableBanks(const ArchConfig &cfg, uint32_t pe)
{
    PeCoord c = cfg.peCoord(pe);
    std::vector<uint32_t> out;
    switch (cfg.outputNet) {
      case OutputInterconnect::Crossbar:
        out.resize(cfg.banks);
        for (uint32_t b = 0; b < cfg.banks; ++b)
            out[b] = b;
        break;
      case OutputInterconnect::PerLayerSubtree: {
        uint32_t span = 1u << c.layer;
        uint32_t base = cfg.portBank(c.tree, c.index * span);
        for (uint32_t k = 0; k < span; ++k)
            out.push_back(base + k);
        break;
      }
      case OutputInterconnect::OnePerPe: {
        uint32_t local = c.index * (1u << c.layer) + (1u << (c.layer - 1));
        out.push_back(cfg.portBank(c.tree, local));
        if (c.layer == cfg.depth)
            out.push_back(cfg.portBank(c.tree, 0));
        break;
      }
    }
    return out;
}

std::vector<uint64_t>
writableBankMasks(const ArchConfig &cfg)
{
    dpu_assert(cfg.banks <= 64, "bank masks are 64-bit");
    std::vector<uint64_t> out(cfg.numPes(), 0);
    for (uint32_t pe = 0; pe < cfg.numPes(); ++pe)
        for (uint32_t bank : writableBanks(cfg, pe))
            out[pe] |= uint64_t(1) << bank;
    return out;
}

std::vector<uint32_t>
writingPes(const ArchConfig &cfg, uint32_t bank)
{
    dpu_assert(bank < cfg.banks, "bad bank");
    std::vector<uint32_t> out;
    uint32_t tree = bank / cfg.portsPerTree();
    uint32_t local = bank % cfg.portsPerTree();
    switch (cfg.outputNet) {
      case OutputInterconnect::Crossbar:
        for (uint32_t p = 0; p < cfg.numPes(); ++p)
            out.push_back(p);
        break;
      case OutputInterconnect::PerLayerSubtree:
        // One PE per layer: the PE whose subtree covers this port.
        for (uint32_t l = 1; l <= cfg.depth; ++l)
            out.push_back(cfg.peId({tree, l, local >> l}));
        break;
      case OutputInterconnect::OnePerPe:
        for (uint32_t l = 1; l <= cfg.depth; ++l) {
            // Local offsets of the form j*2^l + 2^(l-1) belong to the
            // layer-l PE with index j.
            if (local % (1u << l) == (1u << (l - 1)))
                out.push_back(cfg.peId({tree, l, local >> l}));
        }
        if (local == 0)
            out.push_back(cfg.peId({tree, cfg.depth, 0}));
        break;
    }
    return out;
}

namespace {
constexpr uint32_t kNoSelect = ~0u;
} // namespace

OutputSelectTable::OutputSelectTable(const ArchConfig &cfg)
    : banks(cfg.banks), pes(cfg.numPes()),
      select(size_t(banks) * pes, kNoSelect)
{
    for (uint32_t b = 0; b < banks; ++b) {
        std::vector<uint32_t> writers = writingPes(cfg, b);
        for (size_t k = writers.size(); k-- > 0;)
            select[size_t(b) * pes + writers[k]] = static_cast<uint32_t>(k);
    }
}

uint32_t
OutputSelectTable::operator()(uint32_t bank, uint32_t pe) const
{
    dpu_assert(bank < banks, "bad bank");
    uint32_t sel = pe < pes ? select[size_t(bank) * pes + pe] : kNoSelect;
    dpu_assert(sel != kNoSelect, "PE cannot write this bank");
    return sel;
}

std::vector<PeSources>
peSources(const ArchConfig &cfg)
{
    std::vector<PeSources> out(cfg.numPes());
    for (uint32_t pe = 0; pe < cfg.numPes(); ++pe) {
        PeCoord c = cfg.peCoord(pe);
        PeSources &in = out[pe];
        in.leaf = c.layer == 1;
        for (uint32_t side = 0; side < 2; ++side)
            in.src[side] = static_cast<uint16_t>(
                in.leaf ? cfg.portBank(c.tree, c.index * 2 + side)
                        : cfg.peId({c.tree, c.layer - 1,
                                    c.index * 2 + side}));
    }
    return out;
}

uint32_t
maxWritersPerBank(const ArchConfig &cfg)
{
    uint32_t best = 0;
    for (uint32_t b = 0; b < cfg.banks; ++b)
        best = std::max(
            best, static_cast<uint32_t>(writingPes(cfg, b).size()));
    return best;
}

} // namespace dpu
