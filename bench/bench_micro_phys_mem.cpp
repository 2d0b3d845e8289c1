// PhysicalMemory layer microbench (google-benchmark): the host cost of one
// word access through ReadUint/WriteUint, the functional store every
// simulated fetch, load and store reaches.
//
//   ReadMemoHit       8-byte reads walking one resident page: every read
//                     hits the one-entry page memo.
//   ReadMemoMiss      8-byte reads rotating over 64 resident pages, so each
//                     read misses the memo and finds its page in the hash
//                     chain.
//   ReadFirstTouch    8-byte reads of pages never written: the chain walk
//                     finds nothing and the read returns 0 (no page is
//                     materialized).
//   WriteSamePage     8-byte writes walking one resident page. WriteUint
//                     does not consult the memo: every write walks the
//                     bucket chain, finds the page and refreshes the memo.
//   WriteRotatePages  8-byte writes rotating over 64 resident pages.
//   WriteFirstTouch   8-byte writes that each land on a page never touched
//                     before: the write allocates and zeroes a 4 KiB page.
//                     After 4096 pages the PhysicalMemory is replaced
//                     outside the timed region, so the footprint stays at
//                     16 MiB. Freeing that much returns it to the OS, so
//                     the next pages fault in afresh, as they do in a new
//                     simulator process.
//
// Each benchmark iteration is one access; items/s is accesses/s. Addresses derive from the benchmark argument so the
// compiler cannot fold them.
//
//   build/bench/bench_micro_phys_mem                            # full run
//   build/bench/bench_micro_phys_mem --benchmark_min_time=0.01  # smoke
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "src/mem/phys_mem.h"

namespace casc {
namespace {

constexpr Addr kPage = PhysicalMemory::kPageSize;
constexpr uint64_t kRotatePages = 64;
constexpr uint64_t kFirstTouchPages = 4096;

// Writes one word into each of `pages` consecutive pages starting at `base`,
// so they are resident before the timed loop.
void Populate(PhysicalMemory& mem, Addr base, uint64_t pages) {
  for (uint64_t p = 0; p < pages; p++) {
    mem.Write64(base + p * kPage, p + 1);
  }
}

void BM_ReadMemoHit(benchmark::State& state) {
  const Addr base = static_cast<Addr>(state.range(0)) * kPage;
  PhysicalMemory mem;
  Populate(mem, base, 1);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.ReadUint(base + off, 8));
    off = (off + 8) & (kPage - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ReadMemoMiss(benchmark::State& state) {
  const Addr base = static_cast<Addr>(state.range(0)) * kPage;
  PhysicalMemory mem;
  Populate(mem, base, kRotatePages);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.ReadUint(base + (i % kRotatePages) * kPage + 8, 8));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ReadFirstTouch(benchmark::State& state) {
  const Addr base = static_cast<Addr>(state.range(0)) * kPage;
  PhysicalMemory mem;
  Populate(mem, base, 1);  // one resident page, never read below
  uint64_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.ReadUint(base + i * kPage, 8));
    i = (i + 1) & ((1u << 20) - 1);
    i += (i == 0);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_WriteSamePage(benchmark::State& state) {
  const Addr base = static_cast<Addr>(state.range(0)) * kPage;
  PhysicalMemory mem;
  Populate(mem, base, 1);
  uint64_t off = 0;
  for (auto _ : state) {
    mem.WriteUint(base + off, off, 8);
    benchmark::ClobberMemory();
    off = (off + 8) & (kPage - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_WriteRotatePages(benchmark::State& state) {
  const Addr base = static_cast<Addr>(state.range(0)) * kPage;
  PhysicalMemory mem;
  Populate(mem, base, kRotatePages);
  uint64_t i = 0;
  for (auto _ : state) {
    mem.WriteUint(base + (i % kRotatePages) * kPage + 8, i, 8);
    benchmark::ClobberMemory();
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_WriteFirstTouch(benchmark::State& state) {
  const Addr base = static_cast<Addr>(state.range(0)) * kPage;
  auto mem = std::make_unique<PhysicalMemory>();
  uint64_t page = 0;
  for (auto _ : state) {
    if (page == kFirstTouchPages) {
      state.PauseTiming();
      mem.reset();
      mem = std::make_unique<PhysicalMemory>();
      page = 0;
      state.ResumeTiming();
    }
    mem->WriteUint(base + page * kPage, page, 8);
    benchmark::ClobberMemory();
    page++;
  }
  state.SetItemsProcessed(state.iterations());
}

// The argument is the index of the first page accessed.
BENCHMARK(BM_ReadMemoHit)->Arg(16);
BENCHMARK(BM_ReadMemoMiss)->Arg(16);
BENCHMARK(BM_ReadFirstTouch)->Arg(16);
BENCHMARK(BM_WriteSamePage)->Arg(16);
BENCHMARK(BM_WriteRotatePages)->Arg(16);
BENCHMARK(BM_WriteFirstTouch)->Arg(16);

}  // namespace
}  // namespace casc

BENCHMARK_MAIN();
