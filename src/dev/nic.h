// A descriptor-ring NIC with DMA, modeled after a simplified e1000/virtio
// datapath. On receive it DMAs the frame into the next posted buffer, marks
// the descriptor done, and bumps an in-memory RX tail counter — the exact
// "wait on the RX queue tail until packet arrival" notification target from
// §2/§3.1. For the baseline it can additionally raise a legacy IRQ.
//
// Multi-queue RX (RSS): with `num_rx_queues > 1`, frames are steered by a
// hash of their first 8 bytes (or explicitly via InjectFrameToQueue) onto
// independent rings, each with its own monitorable tail counter — one
// blocked hardware thread per queue, no dispatcher, no "busy polling
// multiple memory locations" [57].
#ifndef SRC_DEV_NIC_H_
#define SRC_DEV_NIC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/dev/irq.h"
#include "src/mem/memory_system.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"

namespace casc {

struct NicConfig {
  Addr mmio_base = 0xf0000000;
  Tick rx_dma_latency = 300;  // wire -> memory, ~100 ns at 3 GHz
  Tick tx_latency = 300;      // doorbell -> on the wire
  uint32_t irq_vector = 0x30;
  uint32_t max_frame_bytes = 2048;
  uint32_t num_rx_queues = 1;
  // Sharded placement (DESIGN.md §4i): the shard that owns this NIC's
  // ring state and delivery events. On a sharded machine the NIC's MMIO
  // registers must be programmed from this core; frames from other shards
  // arrive through the cross-shard mailbox. Ignored on legacy machines.
  CoreId home_core = 0;
};

// Descriptor layout (16 bytes):
//   [0..7]  buffer physical address
//   [8..11] length
//   [12..15] flags (bit 0 = DONE)
struct NicDescriptor {
  Addr buf = 0;
  uint32_t len = 0;
  uint32_t flags = 0;

  static constexpr uint32_t kBytes = 16;
  static constexpr uint32_t kFlagDone = 1;
};

// MMIO register offsets. The block below addresses RX queue 0 and TX; RX
// queues q >= 1 live at kNicRegSpan + (q-1) * kNicRxQueueSpan with layout
// {+0 RxBase, +8 RxSize, +0x10 RxTailAddr, +0x18 RxHead}.
enum NicReg : Addr {
  kNicRxBase = 0x00,
  kNicRxSize = 0x08,
  kNicRxTailAddr = 0x10,  // memory address of the RX tail counter
  kNicRxHead = 0x18,      // software's consumed index (flow control)
  kNicTxBase = 0x20,
  kNicTxSize = 0x28,
  kNicTxHeadAddr = 0x30,  // memory address of the TX completion counter
  kNicTxDoorbell = 0x38,  // software's TX producer index
  kNicIrqEnable = 0x40,
  kNicRegSpan = 0x48,
};
inline constexpr Addr kNicRxQueueSpan = 0x20;

class Nic : public MmioDevice {
 public:
  // Invoked for every transmitted frame (fabric hookup / test capture).
  using TxHandler = std::function<void(const std::vector<uint8_t>& frame)>;

  Nic(Simulation& sim, MemorySystem& mem, const NicConfig& config, IrqSink* irq_sink = nullptr);

  // Host/fabric side: a frame arrives from the wire (RSS-steered).
  void InjectFrame(std::vector<uint8_t> frame);
  // Explicit queue steering (flow pinning).
  void InjectFrameToQueue(uint32_t queue, std::vector<uint8_t> frame);

  void SetTxHandler(TxHandler handler) { tx_handler_ = std::move(handler); }

  // Host-side observer invoked after each received frame lands in memory
  // (benches use it to timestamp responses at a client NIC).
  using RxObserver = std::function<void(const std::vector<uint8_t>& frame)>;
  void SetRxObserver(RxObserver observer) { rx_observer_ = std::move(observer); }

  // Fault-injection hook: maps the posted buffer address just before the RX
  // payload DMA. Returning a different address models a corrupted descriptor
  // / DMA to a bad or unmapped page (the tail counter still advances — the
  // consumer sees a frame slot whose payload never landed). Identity when
  // unset.
  using RxBufHook = std::function<Addr(uint32_t queue, Addr buf)>;
  void SetRxBufHook(RxBufHook hook) { rx_buf_hook_ = std::move(hook); }

  // MmioDevice:
  uint64_t MmioRead(Addr offset, size_t len) override;
  void MmioWrite(Addr offset, size_t len, uint64_t value) override;

  const NicConfig& config() const { return config_; }
  // The shard owning this NIC (0 on legacy machines) and its event queue;
  // the fabric targets these when delivering frames across shards.
  uint32_t home_shard() const { return home_shard_; }
  EventQueue& home_queue() { return *eq_; }
  uint64_t rx_frames() const { return rx_frames_; }
  uint64_t rx_dropped() const { return rx_dropped_; }
  uint64_t tx_frames() const { return tx_frames_; }
  uint64_t rx_produced() const { return rx_produced_total_; }
  uint64_t rx_produced_on(uint32_t queue) const { return rx_queues_[queue].produced; }

 private:
  struct RxQueue {
    Addr base = 0;
    uint64_t size = 0;
    Addr tail_addr = 0;
    uint64_t produced = 0;  // frames delivered to memory
    uint64_t head = 0;      // frames consumed by software
    std::deque<std::vector<uint8_t>> pending;
  };

  void DeliverRx();
  void CompleteTx();
  Addr TxDescAddr(uint64_t index) const {
    return tx_base_ + (index % tx_size_) * NicDescriptor::kBytes;
  }
  NicDescriptor ReadDesc(Addr addr) const;
  void WriteDesc(Addr addr, const NicDescriptor& desc);
  uint32_t SteerQueue(const std::vector<uint8_t>& frame) const;

  Simulation& sim_;
  MemorySystem& mem_;
  NicConfig config_;
  uint32_t home_shard_;
  EventQueue* eq_;  // the home shard's queue, bound once at construction
  IrqSink* irq_sink_;
  TxHandler tx_handler_;
  RxObserver rx_observer_;
  RxBufHook rx_buf_hook_;

  // RX state, one entry per queue.
  std::vector<RxQueue> rx_queues_;
  uint64_t rx_produced_total_ = 0;
  LambdaEvent<std::function<void()>> rx_event_;

  // TX state (single queue).
  Addr tx_base_ = 0;
  uint64_t tx_size_ = 0;
  Addr tx_head_addr_ = 0;
  uint64_t tx_doorbell_ = 0;  // software producer index
  uint64_t tx_completed_ = 0;
  LambdaEvent<std::function<void()>> tx_event_;

  bool irq_enable_ = false;
  uint64_t rx_frames_ = 0;
  uint64_t rx_dropped_ = 0;
  uint64_t tx_frames_ = 0;
};

}  // namespace casc

#endif  // SRC_DEV_NIC_H_
