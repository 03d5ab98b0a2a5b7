#include "isa/asm_parser.hh"

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "base/bitfield.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "isa/opcodes.hh"
#include "isa/static_inst.hh"

namespace cwsim
{

namespace
{

constexpr Addr code_base = 0x1000;
constexpr Addr data_base = 0x100000;
/**
 * Effective addresses wrap at 32 bits (exec::effectiveAddr), so the
 * data segment must end at or below 2^32.
 */
constexpr uint64_t max_data_bytes = (uint64_t(1) << 32) - data_base;

struct Token
{
    std::string text;
};

struct Line
{
    int number = 0;
    std::string label;       // empty if none
    std::string op;          // directive or mnemonic, empty if none
    std::vector<std::string> operands;
};

[[noreturn]] void
parseError(int line, const std::string &msg)
{
    fatal("assembly error at line %d: %s", line, msg.c_str());
}

/** Split an operand list on commas and/or whitespace. */
std::vector<std::string>
splitOperands(const std::string &text)
{
    std::string normalized = text;
    for (char &c : normalized) {
        if (c == ',' || c == '\t')
            c = ' ';
    }
    std::vector<std::string> out;
    for (const std::string &piece : split(normalized, ' ')) {
        std::string t = trim(piece);
        if (!t.empty())
            out.push_back(t);
    }
    return out;
}

Line
parseLine(const std::string &raw, int number)
{
    Line line;
    line.number = number;

    std::string text = raw;
    size_t hash = text.find('#');
    if (hash != std::string::npos)
        text = text.substr(0, hash);
    text = trim(text);

    size_t colon = text.find(':');
    if (colon != std::string::npos) {
        line.label = trim(text.substr(0, colon));
        if (line.label.empty())
            parseError(number, "empty label");
        text = trim(text.substr(colon + 1));
    }

    if (text.empty())
        return line;

    size_t space = text.find_first_of(" \t");
    if (space == std::string::npos) {
        line.op = text;
    } else {
        line.op = text.substr(0, space);
        line.operands = splitOperands(trim(text.substr(space + 1)));
    }
    return line;
}

bool
parseReg(const std::string &text, RegId &reg)
{
    if (text.size() < 2)
        return false;
    char kind = text[0];
    if (kind != 'r' && kind != 'f')
        return false;
    for (size_t i = 1; i < text.size(); ++i) {
        if (!isdigit(static_cast<unsigned char>(text[i])))
            return false;
    }
    unsigned long n = 0;
    try {
        n = std::stoul(text.substr(1));
    } catch (const std::out_of_range &) {
        // An absurdly long digit string (e.g. r99999999999999999999)
        // is a malformed operand, not a crash.
        return false;
    }
    if (n >= 32)
        return false;
    unsigned rn = static_cast<unsigned>(n);
    reg = kind == 'r' ? ir(rn) : fr(rn);
    return true;
}

bool
parseInt(const std::string &text, int64_t &value)
{
    if (text.empty())
        return false;
    size_t pos = 0;
    try {
        value = std::stoll(text, &pos, 0); // handles 0x..., negatives
    } catch (...) {
        return false;
    }
    return pos == text.size();
}

/** Look up the opcode table index for a mnemonic, or -1. */
int
opcodeFor(const std::string &mnemonic)
{
    static const std::map<std::string, int> index = [] {
        std::map<std::string, int> m;
        for (unsigned i = 0; i < num_opcodes; ++i)
            m[opName(static_cast<Opcode>(i))] = static_cast<int>(i);
        return m;
    }();
    auto it = index.find(mnemonic);
    return it == index.end() ? -1 : it->second;
}

/** Number of instruction words a source line expands to. */
unsigned
instWords(const Line &line)
{
    // Pseudo-ops li and la always expand to two words so pass 1 can
    // assign addresses without knowing operand values.
    if (line.op == "li" || line.op == "la")
        return 2;
    return 1;
}

/** Parse "imm(reg)" into its parts. */
bool
parseMemOperand(const std::string &text, int64_t &imm, RegId &base)
{
    size_t open = text.find('(');
    size_t close = text.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
        return false;
    }
    std::string imm_text = trim(text.substr(0, open));
    if (imm_text.empty())
        imm_text = "0";
    if (!parseInt(imm_text, imm))
        return false;
    return parseReg(trim(text.substr(open + 1, close - open - 1)),
                    base);
}

class Assembler
{
  public:
    Program
    assemble(const std::string &source)
    {
        std::istringstream in(source);
        std::string raw;
        int number = 0;
        while (std::getline(in, raw))
            lines.push_back(parseLine(raw, ++number));

        firstPass();
        secondPass();

        Program prog;
        prog.setEntry(code_base);
        prog.setStaticInstCount(insts.size());
        std::vector<uint8_t> code(insts.size() * 4);
        for (size_t i = 0; i < insts.size(); ++i) {
            uint32_t word = insts[i].encode();
            std::memcpy(&code[i * 4], &word, 4);
        }
        prog.addSegment(code_base, std::move(code));
        for (auto &[off, bytes] : dataRuns)
            prog.addSegment(data_base + off, std::move(bytes));
        return prog;
    }

  private:
    void
    defineLabel(const Line &line, uint64_t value)
    {
        if (labels.count(line.label))
            parseError(line.number, "label '" + line.label +
                                        "' defined twice");
        labels[line.label] = value;
    }

    uint64_t
    labelValue(const Line &line, const std::string &name) const
    {
        auto it = labels.find(name);
        if (it == labels.end())
            parseError(line.number, "unknown label '" + name + "'");
        return it->second;
    }

    void
    firstPass()
    {
        bool in_data = false;
        uint64_t word_index = 0;
        uint64_t data_off = 0;

        for (const Line &line : lines) {
            // Align before binding a label to a .double so the label
            // names the aligned location.
            if (in_data && line.op == ".double")
                data_off = alignUp(data_off, 8);
            if (!line.label.empty()) {
                defineLabel(line, in_data ? data_base + data_off
                                          : code_base + 4 * word_index);
            }
            if (line.op.empty())
                continue;
            if (line.op[0] == '.') {
                if (line.op == ".data") {
                    in_data = true;
                } else if (line.op == ".text") {
                    in_data = false;
                } else if (line.op == ".space") {
                    int64_t n;
                    if (line.operands.size() != 1 ||
                        !parseInt(line.operands[0], n) || n < 0) {
                        parseError(line.number, "bad .space");
                    }
                    data_off += static_cast<uint64_t>(n);
                } else if (line.op == ".word") {
                    data_off += 4 * line.operands.size();
                } else if (line.op == ".byte") {
                    data_off += line.operands.size();
                } else if (line.op == ".double") {
                    // Already aligned above.
                    data_off += 8 * line.operands.size();
                } else if (line.op == ".align") {
                    int64_t a;
                    if (line.operands.size() != 1 ||
                        !parseInt(line.operands[0], a) ||
                        !isPowerOf2(static_cast<uint64_t>(a))) {
                        parseError(line.number, "bad .align");
                    }
                    data_off = alignUp(data_off,
                                       static_cast<uint64_t>(a));
                } else {
                    parseError(line.number,
                               "unknown directive " + line.op);
                }
                if (data_off > max_data_bytes) {
                    parseError(line.number,
                               line.op + " takes the data segment past "
                                         "2^32");
                }
                continue;
            }
            if (in_data)
                parseError(line.number, "instruction in .data");
            word_index += instWords(line);
        }
    }

    void
    emit(const StaticInst &inst)
    {
        insts.push_back(inst);
    }

    RegId
    reg(const Line &line, const std::string &text) const
    {
        RegId r;
        if (!parseReg(text, r))
            parseError(line.number, "bad register '" + text + "'");
        return r;
    }

    int32_t
    imm16(const Line &line, const std::string &text) const
    {
        int64_t v;
        if (!parseInt(text, v))
            parseError(line.number, "bad immediate '" + text + "'");
        if (v < -32768 || v > 65535)
            parseError(line.number, "immediate out of range");
        if (v > 32767)
            v = static_cast<int16_t>(v); // logical-immediate folding
        return static_cast<int32_t>(v);
    }

    void
    emitLi(RegId rd, uint32_t value)
    {
        emit(StaticInst(Opcode::LUI, rd, reg_zero, reg_invalid,
                        static_cast<int16_t>(value >> 16)));
        emit(StaticInst(Opcode::ORI, rd, rd, reg_invalid,
                        static_cast<int16_t>(value & 0xffff)));
    }

    void
    expect(const Line &line, size_t n) const
    {
        if (line.operands.size() != n) {
            parseError(line.number,
                       strfmt("%s expects %zu operands, got %zu",
                              line.op.c_str(), n,
                              line.operands.size()));
        }
    }

    void
    emitInstruction(const Line &line)
    {
        // Pseudo-ops first.
        if (line.op == "nop") {
            emit(StaticInst(Opcode::ADDI, reg_zero, reg_zero,
                            reg_invalid, 0));
            return;
        }
        if (line.op == "mv") {
            expect(line, 2);
            emit(StaticInst(Opcode::ADDI, reg(line, line.operands[0]),
                            reg(line, line.operands[1]), reg_invalid,
                            0));
            return;
        }
        if (line.op == "li" || line.op == "la") {
            expect(line, 2);
            RegId rd = reg(line, line.operands[0]);
            uint32_t value;
            int64_t v;
            if (parseInt(line.operands[1], v)) {
                value = static_cast<uint32_t>(v);
            } else {
                value = static_cast<uint32_t>(
                    labelValue(line, line.operands[1]));
            }
            emitLi(rd, value);
            return;
        }

        int op_index = opcodeFor(line.op);
        if (op_index < 0)
            parseError(line.number, "unknown mnemonic " + line.op);
        Opcode op = static_cast<Opcode>(op_index);
        const OpInfo &info = opInfo(op);

        auto branch_offset = [&](const std::string &target,
                                 size_t inst_index) {
            uint64_t addr = labelValue(line, target);
            int64_t delta =
                (static_cast<int64_t>(addr) -
                 static_cast<int64_t>(code_base + 4 * inst_index)) /
                    4 -
                1;
            return static_cast<int32_t>(delta);
        };

        bool two_operand_r =
            op == Opcode::CVT_W_D || op == Opcode::CVT_D_W ||
            op == Opcode::FMOV || op == Opcode::FNEG;

        switch (info.format) {
          case InstFormat::R:
            if (two_operand_r) {
                expect(line, 2);
                emit(StaticInst(op, reg(line, line.operands[0]),
                                reg(line, line.operands[1]),
                                reg_invalid, 0));
            } else {
                expect(line, 3);
                emit(StaticInst(op, reg(line, line.operands[0]),
                                reg(line, line.operands[1]),
                                reg(line, line.operands[2]), 0));
            }
            break;
          case InstFormat::I:
            if (info.isLoad) {
                expect(line, 2);
                int64_t off;
                RegId base;
                if (!parseMemOperand(line.operands[1], off, base))
                    parseError(line.number, "bad memory operand");
                emit(StaticInst(op, reg(line, line.operands[0]), base,
                                reg_invalid,
                                static_cast<int32_t>(off)));
            } else if (op == Opcode::LUI) {
                expect(line, 2);
                emit(StaticInst(op, reg(line, line.operands[0]),
                                reg_zero, reg_invalid,
                                imm16(line, line.operands[1])));
            } else {
                expect(line, 3);
                emit(StaticInst(op, reg(line, line.operands[0]),
                                reg(line, line.operands[1]),
                                reg_invalid,
                                imm16(line, line.operands[2])));
            }
            break;
          case InstFormat::S: {
            expect(line, 2);
            int64_t off;
            RegId base;
            if (!parseMemOperand(line.operands[1], off, base))
                parseError(line.number, "bad memory operand");
            emit(StaticInst(op, reg_invalid, base,
                            reg(line, line.operands[0]),
                            static_cast<int32_t>(off)));
            break;
          }
          case InstFormat::B:
            expect(line, 3);
            emit(StaticInst(op, reg_invalid,
                            reg(line, line.operands[0]),
                            reg(line, line.operands[1]),
                            branch_offset(line.operands[2],
                                          insts.size())));
            break;
          case InstFormat::Jf:
            expect(line, 1);
            emit(StaticInst(op, info.isCall ? reg_ra : reg_invalid,
                            reg_invalid, reg_invalid,
                            branch_offset(line.operands[0],
                                          insts.size())));
            break;
          case InstFormat::JRf:
            if (info.isCall) {
                expect(line, 2);
                emit(StaticInst(op, reg(line, line.operands[0]),
                                reg(line, line.operands[1]),
                                reg_invalid, 0));
            } else {
                expect(line, 1);
                emit(StaticInst(op, reg_invalid,
                                reg(line, line.operands[0]),
                                reg_invalid, 0));
            }
            break;
          case InstFormat::N:
            expect(line, 0);
            emit(StaticInst(op, reg_invalid, reg_invalid, reg_invalid,
                            0));
            break;
        }
    }

    void
    dataWrite(uint64_t off, const void *src, size_t len)
    {
        // Offsets only grow; a gap left by .space or .align starts a
        // new run.
        if (dataRuns.empty() ||
            dataRuns.back().first + dataRuns.back().second.size() != off) {
            dataRuns.emplace_back(off, std::vector<uint8_t>{});
        }
        const auto *bytes = static_cast<const uint8_t *>(src);
        std::vector<uint8_t> &run = dataRuns.back().second;
        run.insert(run.end(), bytes, bytes + len);
    }

    void
    secondPass()
    {
        bool in_data = false;
        uint64_t data_off = 0;

        for (const Line &line : lines) {
            if (line.op.empty())
                continue;
            if (line.op[0] == '.') {
                if (line.op == ".data") {
                    in_data = true;
                } else if (line.op == ".text") {
                    in_data = false;
                } else if (line.op == ".space") {
                    int64_t n;
                    parseInt(line.operands[0], n);
                    data_off += static_cast<uint64_t>(n);
                } else if (line.op == ".word") {
                    for (const auto &operand : line.operands) {
                        int64_t v;
                        if (!parseInt(operand, v))
                            parseError(line.number, "bad .word value");
                        uint32_t w = static_cast<uint32_t>(v);
                        dataWrite(data_off, &w, 4);
                        data_off += 4;
                    }
                } else if (line.op == ".byte") {
                    for (const auto &operand : line.operands) {
                        int64_t v;
                        if (!parseInt(operand, v))
                            parseError(line.number, "bad .byte value");
                        uint8_t byte = static_cast<uint8_t>(v);
                        dataWrite(data_off, &byte, 1);
                        data_off += 1;
                    }
                } else if (line.op == ".double") {
                    data_off = alignUp(data_off, 8);
                    for (const auto &operand : line.operands) {
                        double d;
                        if (!parseDouble(operand, d))
                            parseError(line.number,
                                       "bad .double value");
                        dataWrite(data_off, &d, 8);
                        data_off += 8;
                    }
                } else if (line.op == ".align") {
                    int64_t a;
                    parseInt(line.operands[0], a);
                    data_off = alignUp(data_off,
                                       static_cast<uint64_t>(a));
                }
                continue;
            }
            if (!in_data)
                emitInstruction(line);
        }
    }

    std::vector<Line> lines;
    std::map<std::string, uint64_t> labels;
    std::vector<StaticInst> insts;
    /**
     * The bytes .word, .byte and .double write, as runs at data-segment
     * offsets. .space and .align only move the offset: memory reads
     * bytes nothing wrote as zero, so reserving costs nothing.
     */
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> dataRuns;
};

} // anonymous namespace

Program
assembleText(const std::string &source)
{
    Assembler assembler;
    return assembler.assemble(source);
}

Program
assembleFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open assembly file '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return assembleText(buf.str());
}

} // namespace cwsim
