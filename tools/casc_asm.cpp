// casc-asm: assembler / disassembler for the CASC ISA.
//
//   casc-asm assemble prog.casm [--base=0x1000] [--out=prog.bin] [--list] [--lint]
//   casc-asm disasm prog.bin [--base=0x1000]
//
// `--list` prints an address / encoding / disassembly listing with symbols.
// `--lint` runs the static analyzer over the assembled image and fails the
// assembly (exit 1) if it reports any errors. A flag the mode does not take
// is a usage error (exit 2).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "src/analysis/lint.h"
#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/sim/config.h"

using namespace casc;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: casc-asm assemble <file.casm> [--base=0x1000] [--out=file.bin] [--list] [--lint]\n"
               "       casc-asm disasm <file.bin> [--base=0x1000]\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

void PrintListing(const Program& program) {
  // Invert the symbol table for annotation.
  std::multimap<Addr, std::string> by_addr;
  for (const auto& [name, addr] : program.symbols) {
    by_addr.insert({addr, name});
  }
  for (size_t off = 0; off + 4 <= program.bytes.size(); off += 4) {
    const Addr addr = program.base + off;
    auto range = by_addr.equal_range(addr);
    for (auto it = range.first; it != range.second; ++it) {
      std::printf("%s:\n", it->second.c_str());
    }
    uint32_t word = 0;
    std::memcpy(&word, &program.bytes[off], 4);
    std::printf("  %08llx:  %08x  %s\n", (unsigned long long)addr, word,
                Disassemble(word).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string mode = argv[1];
  const std::string path = argv[2];
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc - 2, argv + 2, &err) ||
      (mode == "assemble" && !cfg.CheckKnownKeys({"base", "out", "list", "lint"}, &err)) ||
      (mode == "disasm" && !cfg.CheckKnownKeys({"base"}, &err))) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return Usage();
  }
  const Addr base = cfg.GetUint("base", 0x1000);

  if (mode == "assemble") {
    std::string source;
    if (!ReadFile(path, &source)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    const AssembleResult result = Assembler::Assemble(source, base);
    if (!result.ok) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), result.error.c_str());
      return 1;
    }
    std::printf("assembled %zu bytes at 0x%llx, %zu symbols\n", result.program.bytes.size(),
                (unsigned long long)base, result.program.symbols.size());
    if (cfg.GetBool("list", false)) {
      PrintListing(result.program);
    }
    if (cfg.GetBool("lint", false)) {
      const analysis::LintResult lint = analysis::Lint(result.program);
      analysis::PrintDiagnostics(lint, std::cerr);
      if (!lint.ok()) {
        return 1;
      }
    }
    const std::string out = cfg.GetString("out");
    if (!out.empty()) {
      std::ofstream of(out, std::ios::binary);
      of.write(reinterpret_cast<const char*>(result.program.bytes.data()),
               static_cast<std::streamsize>(result.program.bytes.size()));
      std::printf("wrote %s\n", out.c_str());
    }
    return 0;
  }

  if (mode == "disasm") {
    std::string bytes;
    if (!ReadFile(path, &bytes)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    for (size_t off = 0; off + 4 <= bytes.size(); off += 4) {
      uint32_t word = 0;
      std::memcpy(&word, bytes.data() + off, 4);
      std::printf("%08llx:  %08x  %s\n", (unsigned long long)(base + off), word,
                  Disassemble(word).c_str());
    }
    return 0;
  }
  return Usage();
}
