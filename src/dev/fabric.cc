#include "src/dev/fabric.h"

namespace casc {

void Fabric::Attach(uint64_t node_id, Nic* nic) {
  nodes_.push_back({node_id, nic});
  nic->SetTxHandler(
      [this, node_id](const std::vector<uint8_t>& frame) { Route(node_id, frame); });
}

void Fabric::Route(uint64_t src_node, const std::vector<uint8_t>& frame) {
  const FabricHeader header = FabricHeader::ReadFrom(frame);
  Nic* dst = nullptr;
  for (const auto& [id, nic] : nodes_) {
    if (id == header.dst) {
      dst = nic;
      break;
    }
  }
  if (dst == nullptr || header.dst == src_node) {
    frames_dropped_++;
    return;
  }
  Tick fault_delay = 0;
  if (link_fault_hook_) {
    const int64_t verdict = link_fault_hook_(src_node, header.dst);
    if (verdict < 0) {
      frames_lost_++;
      return;
    }
    fault_delay = static_cast<Tick>(verdict);
  }
  if (config_.loss_rate > 0 && sim_.rng().NextBool(config_.loss_rate)) {
    frames_lost_++;
    return;
  }
  frames_routed_++;
  if (delivery_observer_) {
    delivery_observer_(src_node, header.dst);
  }
  const Tick serialize =
      config_.bytes_per_cycle > 0 ? frame.size() / config_.bytes_per_cycle : 0;
  Tick delay = config_.wire_latency + serialize + fault_delay;
  std::vector<uint8_t> copy = frame;
  // Delivery must run on the destination NIC's shard. Mid-window with a
  // remote destination that means a mailbox message (clamped to at least one
  // hop so it lands beyond the window); otherwise schedule straight into the
  // destination's home queue.
  ShardRouter* router = sim_.router();
  if (router != nullptr && router->Executing() && dst->home_shard() != shard::current) {
    if (delay < router->hop()) {
      delay = router->hop();
    }
    router->Post(dst->home_shard(), sim_.now() + delay,
                 [dst, copy = std::move(copy)]() mutable { dst->InjectFrame(std::move(copy)); });
    return;
  }
  dst->home_queue().ScheduleFnAfter(delay, [dst, copy = std::move(copy)]() mutable {
    dst->InjectFrame(std::move(copy));
  });
}

}  // namespace casc
