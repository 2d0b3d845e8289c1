#include "src/isa/isa.h"

#include <cassert>
#include <sstream>

namespace casc {

bool IsJFormat(Opcode op) { return op == Opcode::kJal; }

bool IsIFormat(Opcode op) {
  switch (op) {
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kSlti:
    case Opcode::kLui:
    case Opcode::kLd:
    case Opcode::kLw:
    case Opcode::kLh:
    case Opcode::kLb:
    case Opcode::kSd:
    case Opcode::kSw:
    case Opcode::kSh:
    case Opcode::kSb:
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
    case Opcode::kJalr:
    case Opcode::kCsrrd:
    case Opcode::kCsrwr:
    case Opcode::kRpull:
    case Opcode::kRpush:
    case Opcode::kHcall:
      return true;
    default:
      return false;
  }
}

uint32_t Encode(const Instruction& inst) {
  const uint32_t op = static_cast<uint32_t>(inst.op) & 0x3f;
  if (IsJFormat(inst.op)) {
    return (op << 26) | (static_cast<uint32_t>(inst.imm) & 0x03ffffff);
  }
  uint32_t word = (op << 26) | ((inst.rd & 0x1fu) << 21) | ((inst.rs1 & 0x1fu) << 16);
  if (IsIFormat(inst.op)) {
    word |= static_cast<uint32_t>(inst.imm) & 0xffff;
  } else {
    word |= (inst.rs2 & 0x1fu) << 11;
  }
  return word;
}

Instruction Decode(uint32_t word) {
  Instruction inst;
  const uint32_t op = word >> 26;
  inst.op = op < static_cast<uint32_t>(Opcode::kCount) ? static_cast<Opcode>(op) : Opcode::kNop;
  if (IsJFormat(inst.op)) {
    // Sign-extend imm26.
    int32_t imm = static_cast<int32_t>(word << 6) >> 6;
    inst.imm = imm;
    return inst;
  }
  inst.rd = (word >> 21) & 0x1f;
  inst.rs1 = (word >> 16) & 0x1f;
  if (IsIFormat(inst.op)) {
    inst.imm = static_cast<int16_t>(word & 0xffff);
  } else {
    inst.rs2 = (word >> 11) & 0x1f;
  }
  return inst;
}

HbRole OpcodeHbRole(Opcode op) {
  switch (op) {
    case Opcode::kStart:
    case Opcode::kRpush:
      return HbRole::kRelease;
    case Opcode::kStop:
    case Opcode::kRpull:
    case Opcode::kMwait:
      return HbRole::kAcquire;
    case Opcode::kMonitor:
      return HbRole::kArm;
    case Opcode::kAmoadd:
      return HbRole::kAtomic;
    default:
      return HbRole::kNone;
  }
}

const char* HbRoleName(HbRole role) {
  switch (role) {
    case HbRole::kNone: return "none";
    case HbRole::kRelease: return "release";
    case HbRole::kAcquire: return "acquire";
    case HbRole::kArm: return "arm";
    case HbRole::kAtomic: return "atomic";
  }
  return "none";
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kSll: return "sll";
    case Opcode::kSrl: return "srl";
    case Opcode::kSra: return "sra";
    case Opcode::kSlt: return "slt";
    case Opcode::kSltu: return "sltu";
    case Opcode::kAddi: return "addi";
    case Opcode::kAndi: return "andi";
    case Opcode::kOri: return "ori";
    case Opcode::kXori: return "xori";
    case Opcode::kSlli: return "slli";
    case Opcode::kSrli: return "srli";
    case Opcode::kSrai: return "srai";
    case Opcode::kSlti: return "slti";
    case Opcode::kLui: return "lui";
    case Opcode::kLd: return "ld";
    case Opcode::kLw: return "lw";
    case Opcode::kLh: return "lh";
    case Opcode::kLb: return "lb";
    case Opcode::kSd: return "sd";
    case Opcode::kSw: return "sw";
    case Opcode::kSh: return "sh";
    case Opcode::kSb: return "sb";
    case Opcode::kBeq: return "beq";
    case Opcode::kBne: return "bne";
    case Opcode::kBlt: return "blt";
    case Opcode::kBge: return "bge";
    case Opcode::kBltu: return "bltu";
    case Opcode::kBgeu: return "bgeu";
    case Opcode::kJal: return "jal";
    case Opcode::kJalr: return "jalr";
    case Opcode::kCsrrd: return "csrrd";
    case Opcode::kCsrwr: return "csrwr";
    case Opcode::kMonitor: return "monitor";
    case Opcode::kMwait: return "mwait";
    case Opcode::kStart: return "start";
    case Opcode::kStop: return "stop";
    case Opcode::kRpull: return "rpull";
    case Opcode::kRpush: return "rpush";
    case Opcode::kInvtid: return "invtid";
    case Opcode::kAmoadd: return "amoadd";
    case Opcode::kHcall: return "hcall";
    default: return "?";
  }
}

std::string RegisterName(uint32_t index) { return "r" + std::to_string(index & 0x1f); }

const char* CsrName(Csr csr) {
  switch (csr) {
    case Csr::kMode: return "mode";
    case Csr::kEdp: return "edp";
    case Csr::kTdtr: return "tdtr";
    case Csr::kTdtSize: return "tdtsize";
    case Csr::kPrio: return "prio";
    case Csr::kPtid: return "ptid";
    case Csr::kCoreId: return "coreid";
    case Csr::kCycle: return "cycle";
    case Csr::kSelfKey: return "selfkey";
    case Csr::kAuthKey: return "authkey";
    default: return nullptr;
  }
}

std::string RemoteRegName(uint32_t index) {
  if (index < kNumGprs) {
    return RegisterName(index);
  }
  switch (static_cast<RemoteReg>(index)) {
    case RemoteReg::kPc: return "pc";
    case RemoteReg::kMode: return "mode";
    case RemoteReg::kEdp: return "edp";
    case RemoteReg::kTdtr: return "tdtr";
    case RemoteReg::kTdtSize: return "tdtsize";
    case RemoteReg::kPrio: return "prio";
    default: return "";
  }
}

int ParseRegister(const std::string& name) {
  if (name == "zero") {
    return 0;
  }
  if (name == "ra") {
    return 31;
  }
  if (name == "sp") {
    return 30;
  }
  if (name.size() >= 2 && name[0] == 'a' && isdigit(name[1])) {
    const int n = std::stoi(name.substr(1));
    return (n >= 0 && n <= 7) ? 10 + n : -1;
  }
  if (name.size() >= 2 && name[0] == 't' && isdigit(name[1])) {
    const int n = std::stoi(name.substr(1));
    return (n >= 0 && n <= 7) ? 18 + n : -1;
  }
  if (name.size() >= 2 && name[0] == 'r' && isdigit(name[1])) {
    const int n = std::stoi(name.substr(1));
    return (n >= 0 && n <= 31) ? n : -1;
  }
  return -1;
}

std::string Disassemble(const Instruction& inst) {
  std::ostringstream os;
  os << OpcodeName(inst.op);
  auto r = [](uint32_t i) { return RegisterName(i); };
  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kMwait:
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSra:
    case Opcode::kSlt:
    case Opcode::kSltu:
    case Opcode::kAmoadd:
      os << " " << r(inst.rd) << ", " << r(inst.rs1) << ", " << r(inst.rs2);
      break;
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kSlti:
    case Opcode::kJalr:
      os << " " << r(inst.rd) << ", " << r(inst.rs1) << ", " << inst.imm;
      break;
    case Opcode::kLui:
      os << " " << r(inst.rd) << ", " << inst.imm;
      break;
    case Opcode::kLd:
    case Opcode::kLw:
    case Opcode::kLh:
    case Opcode::kLb:
    case Opcode::kSd:
    case Opcode::kSw:
    case Opcode::kSh:
    case Opcode::kSb:
      os << " " << r(inst.rd) << ", " << inst.imm << "(" << r(inst.rs1) << ")";
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
      os << " " << r(inst.rd) << ", " << r(inst.rs1) << ", " << inst.imm;
      break;
    case Opcode::kJal:
      os << " " << inst.imm;
      break;
    case Opcode::kCsrrd:
      os << " " << r(inst.rd) << ", csr" << inst.imm;
      break;
    case Opcode::kCsrwr:
      os << " csr" << inst.imm << ", " << r(inst.rd);
      break;
    case Opcode::kMonitor:
    case Opcode::kStart:
    case Opcode::kStop:
      os << " " << r(inst.rs1);
      break;
    case Opcode::kRpull:
      os << " " << r(inst.rd) << ", " << r(inst.rs1) << ", " << inst.imm;
      break;
    case Opcode::kRpush:
      os << " " << r(inst.rs1) << ", " << inst.imm << ", " << r(inst.rd);
      break;
    case Opcode::kInvtid:
      os << " " << r(inst.rs1) << ", " << r(inst.rs2);
      break;
    case Opcode::kHcall:
      os << " " << inst.imm;
      break;
    default:
      break;
  }
  return os.str();
}

std::string Disassemble(uint32_t word) { return Disassemble(Decode(word)); }

}  // namespace casc
