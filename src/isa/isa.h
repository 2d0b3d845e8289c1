// The CASC instruction set: a small 64-bit RISC ISA extended with the
// hardware-threading instructions proposed in §3.1 of the paper —
// monitor/mwait, start/stop, rpull/rpush, and invtid — plus control-register
// access for the novel control state (exception descriptor pointer, thread
// descriptor table register, priority, mode).
//
// Encoding: fixed 32-bit words.
//   R-format:  [31:26] op | [25:21] rd | [20:16] rs1 | [15:11] rs2 | [10:0] 0
//   I-format:  [31:26] op | [25:21] rd | [20:16] rs1 | [15:0] imm16
//   J-format:  [31:26] op | [25:0] imm26 (sign-extended word offset)
#ifndef SRC_ISA_ISA_H_
#define SRC_ISA_ISA_H_

#include <cstdint>
#include <string>

#include "src/sim/types.h"

namespace casc {

inline constexpr uint32_t kNumGprs = 32;
inline constexpr uint32_t kInstBytes = 4;

enum class Opcode : uint8_t {
  kNop = 0,
  kHalt,
  // ALU register-register.
  kAdd,
  kSub,
  kMul,
  kDiv,  // divide; divisor of zero raises ExceptionType::kDivideByZero
  kAnd,
  kOr,
  kXor,
  kSll,
  kSrl,
  kSra,
  kSlt,
  kSltu,
  // ALU register-immediate.
  kAddi,
  kAndi,
  kOri,
  kXori,
  kSlli,
  kSrli,
  kSrai,
  kSlti,
  kLui,  // rd = imm16 << 16 (zero-extended)
  // Loads: rd = mem[rs1 + imm]; zero-extended.
  kLd,
  kLw,
  kLh,
  kLb,
  // Stores: mem[rs1 + imm] = rd (rd field holds the source register).
  kSd,
  kSw,
  kSh,
  kSb,
  // Branches: compare rd-field vs rs1-field, target = pc + 4 + imm*4.
  kBeq,
  kBne,
  kBlt,   // signed
  kBge,   // signed
  kBltu,  // unsigned
  kBgeu,  // unsigned
  kJal,   // J-format: r31 = pc + 4; pc += 4 + imm26*4
  kJalr,  // I-format: rd = pc + 4; pc = rs1 + imm
  // Control registers.
  kCsrrd,  // rd = csr[imm]
  kCsrwr,  // csr[imm] = rd-field register (privileged for most CSRs)
  // --- The paper's extensions (§3.1) ------------------------------------
  kMonitor,  // arm a watch on the address in rs1 (any privilege level)
  kMwait,    // block until a watched line is written (or return if pending)
  kStart,    // enable the ptid mapped to vtid in rs1
  kStop,     // disable the ptid mapped to vtid in rs1
  kRpull,    // rd = remote register imm of (disabled) vtid in rs1
  kRpush,    // remote register imm of (disabled) vtid in rs1 = rd-field reg
  kInvtid,   // invalidate cached translation of entry rs2 in vtid rs1's TDT
  // Atomic fetch-add: rd = mem[rs1]; mem[rs1] += rs2 (8 bytes).
  kAmoadd,
  // Host escape for tests/instrumentation (not part of the proposed ISA).
  kHcall,  // I-format: host callback with code imm; args in r10..r17
  kCount,
};

// Control-register numbers (the novel ones are from §3.1).
enum class Csr : uint16_t {
  kMode = 0,    // 0 = user, 1 = supervisor
  kEdp = 1,     // exception descriptor pointer (where faults are written)
  kTdtr = 2,    // thread descriptor table base address
  kTdtSize = 3, // number of TDT entries
  kPrio = 4,    // hardware scheduling priority (weight)
  kPtid = 5,    // read-only: own physical thread id
  kCoreId = 6,  // read-only: owning core
  kCycle = 7,   // read-only: current tick
  // Secret-key security model (§3.2 alternative to the TDT): a thread's own
  // key, and the key it presents when managing other threads. Both are
  // writable from user mode ("each thread would set its own key and share it
  // ... using existing software mechanisms"). Reads return 0: keys are
  // write-only so a thread cannot exfiltrate a key it was handed in-register.
  kSelfKey = 8,
  kAuthKey = 9,
  kCount,
};

// Remote-register index space for rpull/rpush: GPRs then control state.
// §3.1: "remote-reg can be the program counter or various control registers
// including ... the exception descriptor pointer ... [and] a thread-
// descriptor-table register".
enum class RemoteReg : uint16_t {
  // 0..31: GPRs.
  kPc = 32,
  kMode = 33,
  kEdp = 34,
  kTdtr = 35,
  kTdtSize = 36,
  kPrio = 37,
  kCount,
};

struct Instruction {
  Opcode op = Opcode::kNop;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int32_t imm = 0;  // sign-extended imm16 or imm26 depending on format

  bool operator==(const Instruction&) const = default;
};

uint32_t Encode(const Instruction& inst);
Instruction Decode(uint32_t word);

// True if the opcode uses the J format (imm26).
bool IsJFormat(Opcode op);
// True if the opcode carries an imm16 (I format).
bool IsIFormat(Opcode op);

// Role an opcode plays in the happens-before model of casc-race (§3.1
// synchronization: start/stop, rpull/rpush, monitor/mwait). Both analyzer
// tiers key their edge construction off this table so they cannot drift.
enum class HbRole : uint8_t {
  kNone = 0,
  kRelease,  // start, rpush: publishes the issuer's prior work to the target
  kAcquire,  // stop, rpull, mwait: pulls the remote side's prior work in
  kArm,      // monitor: arms the watch a later acquire consumes
  kAtomic,   // amoadd: an indivisible read-modify-write
};
HbRole OpcodeHbRole(Opcode op);
const char* HbRoleName(HbRole role);

const char* OpcodeName(Opcode op);
// Assembler-accepted CSR name ("mode", "edp", ...), or nullptr if out of range.
const char* CsrName(Csr csr);
// Assembler-accepted remote-register name for rpull/rpush ("r7", "pc", ...).
// Returns an empty string if out of range.
std::string RemoteRegName(uint32_t index);
std::string Disassemble(const Instruction& inst);
std::string Disassemble(uint32_t word);

// Register name ("r7") or alias resolution ("a0" -> 10). Returns -1 if unknown.
int ParseRegister(const std::string& name);
std::string RegisterName(uint32_t index);

}  // namespace casc

#endif  // SRC_ISA_ISA_H_
