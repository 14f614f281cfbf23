#include "workloads/suite.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "dag/algorithms.hh"
#include "support/logging.hh"
#include "workloads/pc_generator.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"

namespace dpu {

const char *
workloadClassName(WorkloadClass cls)
{
    switch (cls) {
      case WorkloadClass::Pc: return "PC";
      case WorkloadClass::SpTrsv: return "SpTRSV";
      case WorkloadClass::LargePc: return "Large PC";
    }
    return "?";
}

const std::vector<WorkloadSpec> &
pcSuite()
{
    static const std::vector<WorkloadSpec> suite = {
        {"tretail", WorkloadClass::Pc, 9000, 49, 0, 101, {}},
        {"mnist", WorkloadClass::Pc, 10000, 26, 0, 102, {}},
        {"nltcs", WorkloadClass::Pc, 14000, 27, 0, 103, {}},
        {"msnbc", WorkloadClass::Pc, 48000, 28, 0, 104, {}},
        {"msweb", WorkloadClass::Pc, 51000, 73, 0, 105, {}},
        {"bnetflix", WorkloadClass::Pc, 55000, 53, 0, 106, {}},
    };
    return suite;
}

const std::vector<WorkloadSpec> &
sptrsvSuite()
{
    static const std::vector<WorkloadSpec> suite = {
        {"bp_200", WorkloadClass::SpTrsv, 8000, 139, 822, 201, {}},
        {"west2021", WorkloadClass::SpTrsv, 10000, 136, 2021, 202, {}},
        {"sieber", WorkloadClass::SpTrsv, 23000, 242, 2290, 203, {}},
        {"jagmesh4", WorkloadClass::SpTrsv, 44000, 215, 4096, 204, {}},
        {"rdb968", WorkloadClass::SpTrsv, 51000, 278, 3096, 205, {}},
        {"dw2048", WorkloadClass::SpTrsv, 79000, 929, 8192, 206, {}},
    };
    return suite;
}

const std::vector<WorkloadSpec> &
largePcSuite()
{
    static const std::vector<WorkloadSpec> suite = {
        {"pigs", WorkloadClass::LargePc, 600000, 90, 0, 301, {}},
        {"andes", WorkloadClass::LargePc, 700000, 84, 0, 302, {}},
        {"munin", WorkloadClass::LargePc, 3100000, 337, 0, 303, {}},
        {"mildew", WorkloadClass::LargePc, 3300000, 176, 0, 304, {}},
    };
    return suite;
}

std::vector<WorkloadSpec>
smallSuite()
{
    std::vector<WorkloadSpec> all = pcSuite();
    const auto &b = sptrsvSuite();
    all.insert(all.end(), b.begin(), b.end());
    return all;
}

namespace {

/** Build a PC twin: exact node count and exact longest path. */
Dag
buildPcTwin(const WorkloadSpec &spec, double scale)
{
    PcParams p;
    p.targetOperations = std::max<size_t>(
        spec.paperLongestPath,
        static_cast<size_t>(static_cast<double>(spec.paperNodes) * scale));
    p.depth = spec.paperLongestPath;
    p.seed = spec.seed;
    return generatePc(p);
}

/**
 * Build a SpTRSV twin with a short calibration loop: the generated
 * operation count scales with avgOffDiagonal and the DAG's longest
 * path with depthLevels, but neither relationship is exactly linear
 * (reduction trees add log-factors), so measure and correct twice.
 */
Dag
buildSptrsvTwin(const WorkloadSpec &spec, double scale)
{
    size_t target_ops = std::max<size_t>(
        64, static_cast<size_t>(static_cast<double>(spec.paperNodes) *
                                scale));
    size_t target_path = spec.paperLongestPath;

    LowerTriangularParams p;
    p.dim = std::max<uint32_t>(
        64, static_cast<uint32_t>(static_cast<double>(spec.matrixDim) *
                                  std::sqrt(scale)));
    p.seed = spec.seed;
    // Initial guesses: ~2 ops per off-diagonal nonzero; ~3 DAG levels
    // per row-dependency level (mul + balanced add tree).
    p.avgOffDiagonal = std::max(
        1.2, static_cast<double>(target_ops) / (2.0 * p.dim));
    p.depthLevels = std::max<uint32_t>(
        1, static_cast<uint32_t>(target_path / 3));
    p.depthLevels = std::min(p.depthLevels, p.dim);

    Dag dag;
    for (int iter = 0; iter < 3; ++iter) {
        SparseMatrixCsr m = makeLowerTriangular(p);
        dag = buildSpTrsvDag(m).dag;
        DagStats s = computeStats(dag);
        double op_err = static_cast<double>(s.numOperations) /
                        static_cast<double>(target_ops);
        double path_err = static_cast<double>(s.longestPath) /
                          static_cast<double>(target_path);
        if (op_err > 0.95 && op_err < 1.05 && path_err > 0.93 &&
            path_err < 1.07) {
            break;
        }
        p.avgOffDiagonal = std::max(1.2, p.avgOffDiagonal / op_err);
        p.depthLevels = std::max<uint32_t>(
            1, static_cast<uint32_t>(
                   std::lround(p.depthLevels / path_err)));
        p.depthLevels = std::min(p.depthLevels, p.dim);
    }
    return dag;
}

} // namespace

SparseMatrixCsr
loadWorkloadMatrix(const WorkloadSpec &spec)
{
    dpu_assert(!spec.matrixPath.empty(),
               "not a file-backed workload: " + spec.name);
    return lowerTriangularFrom(readMatrixMarketFile(spec.matrixPath));
}

WorkloadSpec
matrixWorkload(const std::string &mtxPath)
{
    WorkloadSpec spec;
    spec.name = std::filesystem::path(mtxPath).stem().string();
    spec.cls = WorkloadClass::SpTrsv;
    spec.seed = 0;
    spec.matrixPath = mtxPath;

    SparseMatrixCsr lower = loadWorkloadMatrix(spec);
    spec.matrixDim = lower.dim();
    DagStats s = computeStats(buildSpTrsvDag(lower).dag);
    spec.paperNodes = s.numOperations;
    spec.paperLongestPath = s.longestPath;
    return spec;
}

std::vector<std::string>
discoverMatrixFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> found;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".mtx")
            found.push_back(entry.path().string());
    }
    std::sort(found.begin(), found.end());
    return found;
}

Dag
buildWorkloadDag(const WorkloadSpec &spec, double scale)
{
    dpu_assert(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    if (!spec.matrixPath.empty()) {
        // File-backed: the real matrix is the workload; scale would
        // change the structure being measured, so it is ignored.
        dpu_assert(spec.cls == WorkloadClass::SpTrsv,
                   "file-backed workloads are SpTRSV");
        return buildSpTrsvDag(loadWorkloadMatrix(spec)).dag;
    }
    switch (spec.cls) {
      case WorkloadClass::Pc:
      case WorkloadClass::LargePc:
        return buildPcTwin(spec, scale);
      case WorkloadClass::SpTrsv:
        return buildSptrsvTwin(spec, scale);
    }
    dpu_panic("unknown workload class");
}

CompiledProgram
compileWorkload(const WorkloadSpec &spec, double scale,
                const ArchConfig &cfg, const CompileOptions &options,
                ProgramCache *cache, Dag *out_dag)
{
    Dag dag = buildWorkloadDag(spec, scale);
    CompiledProgram prog = cache ? cache->compile(dag, cfg, options)
                                 : compile(dag, cfg, options);
    if (out_dag)
        *out_dag = std::move(dag);
    return prog;
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const auto *suite : {&pcSuite(), &sptrsvSuite(), &largePcSuite()})
        for (const auto &spec : *suite)
            if (spec.name == name)
                return spec;
    dpu_fatal("unknown workload '" + name + "'");
}

} // namespace dpu
