/**
 * @file
 * dpulint — static legality linter for compiled DPU-v2 programs.
 *
 * Loads one or more self-contained program images (the ProgramCache
 * spill format, also written by `dpuc --prog=`), runs the static
 * verifier (compiler/verify.hh) over each, and prints structured
 * diagnostics with disassembly context:
 *
 *     dpulint [options] <prog.dpuprog>...
 *
 *     --disasm       print the full disassembly of each clean program
 *     --max-diags=N  diagnostics printed per program (default 16,
 *                    0 = all)
 *
 * Exit code 0 when every program verifies clean (warnings allowed),
 * 1 when any file is unreadable/corrupt or has error diagnostics,
 * 2 on usage errors (unknown flag, bad value, no input files).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/disasm.hh"
#include "compiler/cache.hh"
#include "compiler/verify.hh"
#include "support/cli.hh"

using namespace dpu;

namespace {

struct Args
{
    std::vector<std::string> paths;
    bool disasm = false;
    uint32_t maxDiags = 16;
};

int
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--disasm") == 0)
            args.disasm = true;
        else if (std::strncmp(a, "--max-diags=", 12) == 0) {
            if (!parseUint32Arg(a + 12, args.maxDiags)) {
                std::fprintf(stderr,
                             "dpulint: invalid value '%s' for "
                             "--max-diags (expected an unsigned "
                             "integer)\n",
                             a + 12);
                return 2;
            }
        } else if (a[0] == '-') {
            std::fprintf(stderr, "dpulint: unknown option '%s'\n", a);
            return 2;
        } else
            args.paths.push_back(a);
    }
    if (args.paths.empty()) {
        std::fprintf(stderr,
                     "usage: dpulint [--disasm --max-diags=N] "
                     "<prog.dpuprog>...\n");
        return 2;
    }
    return 0;
}

/** One diagnostic plus the disassembly of the instruction it anchors
 *  to (when it anchors to one). */
void
printDiagnostic(const ArchConfig &cfg,
                const Program &instrs, const Diagnostic &d)
{
    std::printf("  %s\n", d.format().c_str());
    if (d.instrIndex != kVerifyNoInstr && d.instrIndex < instrs.size())
        std::printf("    | %llu: %s\n",
                    static_cast<unsigned long long>(d.instrIndex),
                    disassemble(cfg, instrs, d.instrIndex).c_str());
}

/** Lint one file; true when it is clean of errors. */
bool
lintFile(const std::string &path, const Args &args)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "dpulint: cannot open '%s'\n",
                     path.c_str());
        return false;
    }
    std::vector<uint8_t> image((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    CompiledProgram prog;
    if (!deserializeProgram(image, prog)) {
        std::printf("%s: corrupt or truncated program image (%zu "
                    "bytes)\n",
                    path.c_str(), image.size());
        return false;
    }

    VerifyReport report = verifyProgram(prog);
    std::printf("%s: %s [%llu instructions, %s]\n", path.c_str(),
                report.summary().c_str(),
                static_cast<unsigned long long>(
                    prog.instructions.size()),
                prog.cfg.label().c_str());
    size_t shown = 0;
    for (const Diagnostic &d : report.diagnostics) {
        if (args.maxDiags && shown++ >= args.maxDiags) {
            std::printf("  ... %zu more\n",
                        report.diagnostics.size() - args.maxDiags);
            break;
        }
        printDiagnostic(prog.cfg, prog.instructions, d);
    }

    bool clean = report.errorCount() == 0;
    if (clean && args.disasm) {
        std::ostringstream os;
        disassembleProgram(prog.cfg, prog.instructions, os);
        std::fputs(os.str().c_str(), stdout);
    }
    return clean;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (int rc = parseArgs(argc, argv, args))
        return rc;
    size_t bad = 0;
    for (const std::string &path : args.paths)
        bad += !lintFile(path, args);
    if (args.paths.size() > 1)
        std::printf("dpulint: %zu of %zu program(s) clean\n",
                    args.paths.size() - bad, args.paths.size());
    return bad ? 1 : 0;
}
