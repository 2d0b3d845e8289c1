#include "calibrate.h"

#include <array>
#include <random>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr int kHandlers = 512;
constexpr size_t kHandlerCalls = 16384;
constexpr uint32_t kWideSteps = 50000;

volatile uint64_t g_sink;

// One of kHandlers distinct functions, each with its own code and branch.
template <int N>
__attribute__((noinline)) uint64_t Handler(uint64_t x) {
  x = x * (2 * N + 1) + (x >> (N % 13 + 1));
  if ((x & (uint64_t{1} << (N % 7))) != 0) {
    x ^= N * 0x9E37ull;
  } else {
    x += N;
  }
  return x;
}

template <int... N>
constexpr std::array<uint64_t (*)(uint64_t), sizeof...(N)> HandlerTable(
    std::integer_sequence<int, N...>) {
  return {&Handler<N>...};
}

// Indirect calls through a table of kHandlers functions in a seeded order: a
// code footprint and an indirect-branch load like an interpreter's handlers.
uint64_t RunHandlers() {
  static constexpr auto kTable = HandlerTable(std::make_integer_sequence<int, kHandlers>{});
  static const std::vector<uint16_t> calls = [] {
    std::mt19937_64 gen(0xCA11B8A7E);
    std::vector<uint16_t> c(kHandlerCalls);
    for (uint16_t& i : c) {
      i = static_cast<uint16_t>(gen() % kHandlers);
    }
    return c;
  }();
  uint64_t x = 1;
  for (uint16_t c : calls) {
    x = kTable[c](x);
  }
  return x;
}

// Eight independent chains of one-cycle integer operations: as many
// instructions per cycle as the core issues, which a busy neighbour on the
// same physical core takes away.
uint64_t RunWide() {
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (uint32_t i = 0; i < kWideSteps; i++) {
    a += i;
    b ^= a;
    c += b >> 1;
    d ^= i << 2;
    e += d;
    f ^= e >> 3;
    g += f;
    h ^= g + i;
  }
  return a + b + c + d + e + f + g + h;
}

}  // namespace

double CalibrationPass() {
  const auto t0 = std::chrono::steady_clock::now();
  // Keeps the result live, so the compiler cannot drop the work.
  g_sink = RunHandlers() + RunWide();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void SpeedClock::Start() {
  raw_s_ = scaled_s_ = 0;
  last_pass_s_ = CalibrationPass();
  seg_start_ = Clock::now();
}

void SpeedClock::Cut() {
  const double seg = Seconds(Clock::now() - seg_start_);
  const double pass = CalibrationPass();
  raw_s_ += seg;
  scaled_s_ += seg * kReferencePassS / ((last_pass_s_ + pass) / 2);
  last_pass_s_ = pass;
  seg_start_ = Clock::now();
}

}  // namespace perfbench
