// A point-to-point network fabric connecting NICs within one simulation —
// the substrate for the distributed-programming experiments (E9). Frames
// carry a 16-byte fabric header (dst node, src node); the fabric routes by
// dst and redelivers after a configurable wire latency + serialization time.
#ifndef SRC_DEV_FABRIC_H_
#define SRC_DEV_FABRIC_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "src/dev/nic.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"

namespace casc {

struct FabricHeader {
  uint64_t dst = 0;
  uint64_t src = 0;

  static constexpr size_t kBytes = 16;

  void WriteTo(std::vector<uint8_t>* frame) const {
    if (frame->size() < kBytes) {
      frame->resize(kBytes);
    }
    std::memcpy(frame->data(), &dst, 8);
    std::memcpy(frame->data() + 8, &src, 8);
  }
  static FabricHeader ReadFrom(const std::vector<uint8_t>& frame) {
    FabricHeader h;
    if (frame.size() >= kBytes) {
      std::memcpy(&h.dst, frame.data(), 8);
      std::memcpy(&h.src, frame.data() + 8, 8);
    }
    return h;
  }
};

struct FabricConfig {
  Tick wire_latency = 6000;      // ~2 us one-way at 3 GHz
  uint32_t bytes_per_cycle = 4;  // ~100 Gb/s serialization at 3 GHz
  // Failure injection: probability a routed frame is silently lost in
  // transit (tests / chaos experiments). 0 = lossless.
  double loss_rate = 0.0;
};

class Fabric {
 public:
  Fabric(Simulation& sim, const FabricConfig& config) : sim_(sim), config_(config) {}

  // Attaches a NIC as node `node_id` and installs its TX handler.
  void Attach(uint64_t node_id, Nic* nic);

  // Host-side transmit entry point (load generators): routes `frame` as if
  // node `src_node` had sent it, with the same fabric latency.
  void InjectFrom(uint64_t src_node, const std::vector<uint8_t>& frame) {
    Route(src_node, frame);
  }

  uint64_t frames_routed() const { return frames_routed_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_lost() const { return frames_lost_; }

  // Chaos-engine link-fault hook, consulted once per routable frame (after
  // dst lookup, before the loss roll). Return < 0 to drop the frame in
  // transit (counted in frames_lost), 0 to leave it alone, or > 0 extra
  // ticks of wire delay. Runs on whichever shard transmitted.
  using LinkFaultHook = std::function<int64_t(uint64_t src, uint64_t dst)>;
  void SetLinkFaultHook(LinkFaultHook fn) { link_fault_hook_ = std::move(fn); }
  // Observes every frame the fabric commits to deliver (at route time, on
  // the transmitting shard). The chaos engine closes a link-fault's recovery
  // window on the next delivered frame.
  using DeliveryObserver = std::function<void(uint64_t src, uint64_t dst)>;
  void SetDeliveryObserver(DeliveryObserver fn) { delivery_observer_ = std::move(fn); }

 private:
  void Route(uint64_t src_node, const std::vector<uint8_t>& frame);

  Simulation& sim_;
  FabricConfig config_;
  std::vector<std::pair<uint64_t, Nic*>> nodes_;
  LinkFaultHook link_fault_hook_;
  DeliveryObserver delivery_observer_;
  uint64_t frames_routed_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_lost_ = 0;
};

}  // namespace casc

#endif  // SRC_DEV_FABRIC_H_
