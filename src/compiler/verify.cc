#include "compiler/verify.hh"

#include <algorithm>
#include <sstream>

#include "arch/interconnect.hh"
#include "sim/replay.hh"

namespace dpu {

namespace {

// ------------------------------------------------------------------ //
// IR-level pass.                                                     //
// ------------------------------------------------------------------ //

class IrVerifier
{
  public:
    IrVerifier(const IrProgram &ir, const ArchConfig &cfg,
               const VerifyIrOptions &options, VerifyReport &report)
        : ir(ir), cfg(cfg), opt(options), sink{report},
          peWritable(writableBankMasks(cfg))
    {}

    void
    run()
    {
        written.assign(ir.instances.size(), false);
        freed.assign(ir.instances.size(), false);
        readableAt.assign(ir.instances.size(), 0);

        checkInstanceTable();
        checkIoLayout();
        for (uint64_t t = 0; t < ir.instrs.size(); ++t)
            checkInstr(t, ir.instrs[t]);
        for (size_t id = 0; id < ir.instances.size(); ++id) {
            if (written[id] && !freed[id])
                sink.add(VerifyCode::RegisterLeak, kVerifyNoInstr,
                         "instance #" + std::to_string(id) +
                             " (bank " +
                             std::to_string(ir.instances[id].bank) +
                             ") is written but never freed by a "
                             "last read");
        }
    }

  private:
    void
    checkInstanceTable()
    {
        for (size_t id = 0; id < ir.instances.size(); ++id) {
            if (ir.instances[id].bank >= cfg.banks)
                sink.add(VerifyCode::MalformedInstruction,
                         kVerifyNoInstr,
                         "instance #" + std::to_string(id) +
                             " lives in bank " +
                             std::to_string(ir.instances[id].bank) +
                             " but the machine has " +
                             std::to_string(cfg.banks) + " banks");
        }
    }

    void
    checkIoLayout()
    {
        for (size_t k = 0; k < ir.inputLocation.size(); ++k) {
            auto [row, col] = ir.inputLocation[k];
            if (row >= ir.inputRows || col >= cfg.banks)
                sink.add(VerifyCode::IoLocOutOfBounds, kVerifyNoInstr,
                         "input " + std::to_string(k) + " at (" +
                             std::to_string(row) + ", " +
                             std::to_string(col) +
                             ") outside the input region (" +
                             std::to_string(ir.inputRows) + " rows x " +
                             std::to_string(cfg.banks) + " cols)");
        }
        // Sinks that are Input nodes keep their input-region location
        // (a pass-through), so outputs may land anywhere in the io
        // rows — only past-the-end rows are illegal.
        uint32_t row_end = ir.inputRows + ir.outputRows;
        for (size_t k = 0; k < ir.outputs.size(); ++k) {
            const auto &o = ir.outputs[k];
            if (o.row >= row_end || o.col >= cfg.banks)
                sink.add(VerifyCode::IoLocOutOfBounds, kVerifyNoInstr,
                         "output " + std::to_string(k) + " at (" +
                             std::to_string(o.row) + ", " +
                             std::to_string(o.col) +
                             ") outside the io region (" +
                             std::to_string(row_end) + " rows x " +
                             std::to_string(cfg.banks) + " cols)");
        }
    }

    /** Look up a read/write target; false = unusable (diagnosed). */
    bool
    instanceOk(uint64_t t, InstanceId id)
    {
        if (id == invalidInstance || id >= ir.instances.size()) {
            sink.add(VerifyCode::MalformedInstruction, t,
                     "reference to nonexistent instance #" +
                         std::to_string(id));
            return false;
        }
        return ir.instances[id].bank < cfg.banks;
    }

    void
    checkReads(uint64_t t, const IrInstr &in)
    {
        uint64_t banks_read = 0;
        for (const IrRead &r : in.reads) {
            if (!instanceOk(t, r.inst))
                continue;
            uint32_t bank = ir.instances[r.inst].bank;
            if (banks_read & bankBit(bank))
                sink.add(VerifyCode::BankConflict, t,
                         "two reads of bank " + std::to_string(bank) +
                             " in one instruction (one read port per "
                             "bank)");
            banks_read |= bankBit(bank);

            if (freed[r.inst])
                sink.add(VerifyCode::ReadAfterFree, t,
                         "read of instance #" + std::to_string(r.inst) +
                             " (bank " + std::to_string(bank) +
                             ") after its last-read free");
            else if (!written[r.inst])
                sink.add(VerifyCode::UseBeforeDef, t,
                         "read of instance #" + std::to_string(r.inst) +
                             " (bank " + std::to_string(bank) +
                             ") before any write");
            else if (opt.hazardsResolved && readableAt[r.inst] > t)
                sink.add(VerifyCode::PipelineHazard, t,
                         "read of instance #" + std::to_string(r.inst) +
                             " while its data is in flight until t=" +
                             std::to_string(readableAt[r.inst]));
            if (r.lastRead)
                freed[r.inst] = true;
        }
    }

    void
    checkWrites(uint64_t t, const IrInstr &in)
    {
        uint64_t banks_written = 0;
        for (const IrWrite &w : in.writes) {
            if (!instanceOk(t, w.inst))
                continue;
            uint32_t bank = ir.instances[w.inst].bank;
            if (banks_written & bankBit(bank))
                sink.add(VerifyCode::BankConflict, t,
                         "two writes of bank " + std::to_string(bank) +
                             " in one instruction (one write per bank "
                             "per cycle)");
            banks_written |= bankBit(bank);

            if (written[w.inst])
                sink.add(VerifyCode::DoubleWrite, t,
                         "instance #" + std::to_string(w.inst) +
                             " is written twice (instances are "
                             "single-assignment)");
            written[w.inst] = true;
            readableAt[w.inst] = t + writeLatency(in.kind, cfg);

            if (in.kind == InstrKind::Exec) {
                uint32_t pe = ir.instances[w.inst].writerPe;
                if (pe >= cfg.numPes()) {
                    sink.add(VerifyCode::SelectOutOfBounds, t,
                             "exec write of instance #" +
                                 std::to_string(w.inst) +
                                 " claims writer PE " +
                                 std::to_string(pe) + " of " +
                                 std::to_string(cfg.numPes()));
                } else {
                    if (!(peWritable[pe] & bankBit(bank)))
                        sink.add(VerifyCode::SelectOutOfBounds, t,
                                 "PE " + std::to_string(pe) +
                                     " cannot write bank " +
                                     std::to_string(bank) +
                                     " under the " +
                                     std::string(interconnectName(
                                         cfg.outputNet)) +
                                     " output interconnect");
                }
            }
        }
    }

    void
    checkInstr(uint64_t t, const IrInstr &in)
    {
        switch (in.kind) {
          case InstrKind::Nop:
            break;

          case InstrKind::Load:
            if (in.memRow >= ir.inputRows)
                sink.add(VerifyCode::RowOutOfBounds, t,
                         "load of row " + std::to_string(in.memRow) +
                             " outside the input region of " +
                             std::to_string(ir.inputRows) + " rows");
            break;

          case InstrKind::Store:
          case InstrKind::Store4: {
            uint32_t row_end = ir.inputRows + ir.outputRows;
            if (in.memRow < ir.inputRows || in.memRow >= row_end)
                sink.add(VerifyCode::RowOutOfBounds, t,
                         "store of row " + std::to_string(in.memRow) +
                             " outside the output region (rows [" +
                             std::to_string(ir.inputRows) + ", " +
                             std::to_string(row_end) + "))");
            if (in.kind == InstrKind::Store4 && in.reads.size() > 4)
                sink.add(VerifyCode::MalformedInstruction, t,
                         "store_4 with " +
                             std::to_string(in.reads.size()) +
                             " reads (4 slots)");
            for (const IrRead &r : in.reads)
                if (!r.lastRead)
                    sink.add(VerifyCode::MalformedInstruction, t,
                             "store read of instance #" +
                                 std::to_string(r.inst) +
                                 " does not free its source (stores "
                                 "are final reads)");
            break;
          }

          case InstrKind::Copy4:
            if (in.reads.size() != in.writes.size() ||
                in.reads.size() > 4)
                sink.add(VerifyCode::MalformedInstruction, t,
                         "copy_4 with " +
                             std::to_string(in.reads.size()) +
                             " reads / " +
                             std::to_string(in.writes.size()) +
                             " writes (paired, at most 4)");
            break;

          case InstrKind::Exec:
            if (in.inputSel.size() != cfg.banks) {
                sink.add(VerifyCode::MalformedInstruction, t,
                         "exec with " +
                             std::to_string(in.inputSel.size()) +
                             " crossbar selects for " +
                             std::to_string(cfg.banks) + " ports");
            } else {
                for (uint32_t port = 0; port < cfg.banks; ++port)
                    if (in.inputSel[port] >= cfg.banks)
                        sink.add(VerifyCode::SelectOutOfBounds, t,
                                 "crossbar select " +
                                     std::to_string(in.inputSel[port]) +
                                     " on port " + std::to_string(port) +
                                     " of " + std::to_string(cfg.banks) +
                                     " banks");
            }
            if (in.blockId >= opt.numBlocks)
                sink.add(VerifyCode::BlockOutOfBounds, t,
                         "exec references block " +
                             std::to_string(in.blockId) + " of " +
                             std::to_string(opt.numBlocks));
            break;
        }

        checkReads(t, in);
        checkWrites(t, in);
    }

    const IrProgram &ir;
    const ArchConfig &cfg;
    const VerifyIrOptions &opt;
    detail::CollectFaults sink;
    const std::vector<uint64_t> peWritable; ///< Bank mask per PE.

    std::vector<bool> written;
    std::vector<bool> freed;
    std::vector<uint64_t> readableAt;
};

} // namespace

const char *
verifyCodeName(VerifyCode code)
{
    switch (code) {
      case VerifyCode::UseBeforeDef: return "V001-use-before-def";
      case VerifyCode::ReadAfterFree: return "V002-read-after-free";
      case VerifyCode::BankConflict: return "V003-bank-conflict";
      case VerifyCode::RegFileOverflow: return "V004-regfile-overflow";
      case VerifyCode::RegisterLeak: return "V005-register-leak";
      case VerifyCode::DoubleFree: return "V006-double-free";
      case VerifyCode::DoubleWrite: return "V007-double-write";
      case VerifyCode::RowOutOfBounds: return "V010-row-out-of-bounds";
      case VerifyCode::IoLocOutOfBounds:
        return "V011-io-location-out-of-bounds";
      case VerifyCode::SelectOutOfBounds:
        return "V020-select-out-of-bounds";
      case VerifyCode::BlockOutOfBounds:
        return "V021-block-out-of-bounds";
      case VerifyCode::MalformedInstruction:
        return "V022-malformed-instruction";
      case VerifyCode::PipelineHazard: return "V030-pipeline-hazard";
      case VerifyCode::StatsMismatch: return "V040-stats-mismatch";
    }
    return "V???";
}

std::string
Diagnostic::format() const
{
    std::string where =
        instrIndex == kVerifyNoInstr
            ? std::string("program")
            : "instr " + std::to_string(instrIndex);
    const char *sev =
        severity == VerifySeverity::Error ? "error" : "warning";
    return where + ": " + sev + " " + verifyCodeName(code) + ": " +
           message;
}

size_t
VerifyReport::errorCount() const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        n += d.severity == VerifySeverity::Error;
    return n;
}

std::string
VerifyReport::summary() const
{
    size_t errors = errorCount();
    size_t warnings = diagnostics.size() - errors;
    std::ostringstream os;
    os << errors << " error(s), " << warnings << " warning(s)";
    if (truncated)
        os << " (diagnostics truncated)";
    return os.str();
}

std::string
VerifyReport::toString(size_t maxShown) const
{
    std::ostringstream os;
    os << summary();
    size_t shown = 0;
    for (const Diagnostic &d : diagnostics) {
        if (maxShown && shown++ >= maxShown) {
            os << "\n  ... " << (diagnostics.size() - maxShown)
               << " more";
            break;
        }
        os << "\n  " << d.format();
    }
    return os.str();
}

VerifyError::VerifyError(const std::string &stage, VerifyReport report_in)
    : PanicError("program verification failed after " + stage + ": " +
                 report_in.toString()),
      failedStage(stage), failedReport(std::move(report_in))
{}

VerifyReport
verifyIr(const IrProgram &ir, const ArchConfig &cfg,
         const VerifyIrOptions &options)
{
    VerifyReport report;
    IrVerifier(ir, cfg, options, report).run();
    return report;
}

VerifyReport
verifyProgram(const CompiledProgram &prog)
{
    VerifyReport report;
    detail::replaySchedule(prog, detail::CollectFaults{report});
    return report;
}

void
throwIfVerifyErrors(const VerifyReport &report, const std::string &stage)
{
    if (report.errorCount())
        throw VerifyError(stage, report);
}

} // namespace dpu
