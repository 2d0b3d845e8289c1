#include "src/chaos/chaos_engine.h"

#include <string>

namespace casc {

ChaosEngine::ChaosEngine(Machine& machine, uint64_t seed) : machine_(machine), rng_(seed) {
  StatsRegistry& stats = machine_.sim().stats();
  for (uint32_t i = 0; i < kNumFaultClasses; i++) {
    const std::string name = FaultClassName(static_cast<FaultClass>(i));
    stat_injected_[i] = stats.Intern("chaos.injected." + name);
    stat_detected_[i] = stats.Intern("chaos.detected." + name);
    stat_recovered_[i] = stats.Intern("chaos.recovered." + name);
    stat_detect_cycles_[i] = stats.InternHist("chaos.detect_cycles." + name);
    stat_recovery_cycles_[i] = stats.InternHist("chaos.recovery_cycles." + name);
  }
  stat_halts_ = stats.Intern("chaos.halts");
}

void ChaosEngine::AddCampaign(const CampaignConfig& config) {
  campaigns_.push_back(Campaign{config, 0});
}

bool ChaosEngine::TargetsMatch(const Campaign& c, Ptid ptid) const {
  if (c.config.targets.empty()) {
    return true;
  }
  for (Ptid t : c.config.targets) {
    if (t == ptid) {
      return true;
    }
  }
  return false;
}

bool ChaosEngine::ShouldFire(Campaign& c, Tick now) {
  if (c.config.max_faults != 0 && c.fired >= c.config.max_faults) {
    return false;
  }
  if (!c.config.schedule.Fire(now, rng_)) {
    return false;
  }
  c.fired++;
  return true;
}

ChaosEngine::FaultRecord& ChaosEngine::Inject(FaultClass cls, Ptid ptid, Tick now) {
  FaultRecord r;
  r.id = records_.size() + 1;
  r.cls = cls;
  r.ptid = ptid;
  r.injected_at = now;
  records_.push_back(r);
  counts_[Idx(cls)].injected++;
  stat_injected_[Idx(cls)]++;
  Mark(ptid, "inject", cls);
  return records_.back();
}

void ChaosEngine::Mark(Ptid ptid, const char* what, FaultClass cls) {
  if (tracer_ != nullptr) {
    tracer_->RecordMark(machine_.sim().now(), ptid,
                        std::string("chaos:") + what + ":" + FaultClassName(cls));
  }
}

ChaosEngine::FaultRecord* ChaosEngine::FirstUndetected(FaultClass cls) {
  for (FaultRecord& r : records_) {
    if (r.cls == cls && r.detected_at == 0) {
      return &r;
    }
  }
  return nullptr;
}

ChaosEngine::FaultRecord* ChaosEngine::FirstUnrecovered(FaultClass cls) {
  for (FaultRecord& r : records_) {
    if (r.cls == cls && r.recovered_at == 0) {
      return &r;
    }
  }
  return nullptr;
}

void ChaosEngine::SetDetected(FaultRecord& r, Tick now) {
  r.detected_at = now;
  counts_[Idx(r.cls)].detected++;
  stat_detected_[Idx(r.cls)]++;
  stat_detect_cycles_[Idx(r.cls)].Record(now - r.injected_at);
  Mark(r.ptid, "detect", r.cls);
}

void ChaosEngine::SetRecovered(FaultRecord& r, Tick now) {
  if (r.detected_at == 0) {
    // Recovery implies detection; charge both to the same instant.
    SetDetected(r, now);
  }
  r.recovered_at = now;
  counts_[Idx(r.cls)].recovered++;
  stat_recovered_[Idx(r.cls)]++;
  stat_recovery_cycles_[Idx(r.cls)].Record(now - r.injected_at);
  Mark(r.ptid, "recover", r.cls);
}

void ChaosEngine::NoteDetected(FaultClass cls, Tick now) {
  FaultRecord* r = FirstUndetected(cls);
  if (r != nullptr) {
    SetDetected(*r, now);
  }
}

void ChaosEngine::NoteRecovered(FaultClass cls, Tick now) {
  // Only records already past detection recover; an undetected loss being
  // "recovered" would invert the latency the engine is measuring.
  for (FaultRecord& r : records_) {
    if (r.cls == cls && r.detected_at != 0 && r.recovered_at == 0) {
      SetRecovered(r, now);
      return;
    }
  }
}

void ChaosEngine::FinishRun() {
  if (!machine_.halted()) {
    return;
  }
  for (FaultRecord& r : records_) {
    if (r.recovered_at == 0) {
      r.halted = true;
    }
  }
  stat_halts_++;
}

uint64_t ChaosEngine::total_injected() const {
  uint64_t total = 0;
  for (const ClassCounts& c : counts_) {
    total += c.injected;
  }
  return total;
}

void ChaosEngine::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  bool want_nic = false;
  bool want_block = false;
  bool want_msix = false;
  bool want_fabric = false;
  bool want_threads = false;
  for (const Campaign& c : campaigns_) {
    switch (c.config.fault) {
      case FaultClass::kNicDmaBadAddr: want_nic = true; break;
      case FaultClass::kBlockTimeout: want_block = true; break;
      case FaultClass::kMsixDoorbellDrop: want_msix = true; break;
      case FaultClass::kFabricLinkFault: want_fabric = true; break;
      case FaultClass::kContextPoison:
      case FaultClass::kEdpUnwritable:
      case FaultClass::kHandlerCrash:
      case FaultClass::kMigrationCrash:
      case FaultClass::kRemoteStartRace: want_threads = true; break;
    }
  }
  if (want_nic && nic_ != nullptr) {
    InstallNicHooks();
  }
  if (want_block && block_ != nullptr) {
    InstallBlockHooks();
  }
  if (want_msix && msix_ != nullptr) {
    InstallMsixHooks();
  }
  if (want_fabric && fabric_ != nullptr) {
    InstallFabricHooks();
  }
  if (want_threads) {
    InstallThreadHooks();
  }
}

void ChaosEngine::InstallNicHooks() {
  // The "bad address": a DMA hole the fabric rejects. The payload write
  // vanishes while the descriptor and tail-counter updates still land — the
  // consumer sees a frame slot whose payload never arrived.
  machine_.mem().AddUnwritableRange(kDmaHoleBase, kDmaHoleSize);
  nic_->SetRxBufHook([this](uint32_t, Addr buf) -> Addr {
    const Tick now = machine_.sim().now();
    for (Campaign& c : campaigns_) {
      if (c.config.fault == FaultClass::kNicDmaBadAddr && ShouldFire(c, now)) {
        Inject(FaultClass::kNicDmaBadAddr, 0, now);
        return kDmaHoleBase;
      }
    }
    return buf;
  });
}

void ChaosEngine::InstallBlockHooks() {
  block_->SetCompletionFaultHook([this](const BlockCommand&, uint64_t) {
    const Tick now = machine_.sim().now();
    for (Campaign& c : campaigns_) {
      if (c.config.fault == FaultClass::kBlockTimeout && ShouldFire(c, now)) {
        Inject(FaultClass::kBlockTimeout, 0, now);
        return true;
      }
    }
    return false;
  });
  // A doorbell ring while a swallowed completion is outstanding is the
  // driver's deadline expiring and resubmitting: detection.
  block_->SetDoorbellObserver([this](uint64_t) {
    FaultRecord* r = FirstUndetected(FaultClass::kBlockTimeout);
    if (r != nullptr) {
      SetDetected(*r, machine_.sim().now());
    }
  });
  // The retried command completing is recovery.
  block_->SetCompletionObserver([this](uint64_t) {
    NoteRecovered(FaultClass::kBlockTimeout, machine_.sim().now());
  });
}

void ChaosEngine::InstallMsixHooks() {
  msix_->SetDropHook([this](uint32_t) {
    const Tick now = machine_.sim().now();
    for (Campaign& c : campaigns_) {
      if (c.config.fault == FaultClass::kMsixDoorbellDrop && ShouldFire(c, now)) {
        Inject(FaultClass::kMsixDoorbellDrop, 0, now);
        return true;
      }
    }
    return false;
  });
  // The next delivery that lands closes the loss window: whatever work the
  // dropped doorbell announced is reachable again through the fresh counter
  // value. Detection is normally noted earlier by the consumer's watchdog
  // (NoteDetected); if it never was, charge both here.
  msix_->SetDeliveryObserver([this](uint32_t, uint64_t) {
    FaultRecord* r = FirstUnrecovered(FaultClass::kMsixDoorbellDrop);
    if (r != nullptr) {
      SetRecovered(*r, machine_.sim().now());
    }
  });
}

void ChaosEngine::InstallFabricHooks() {
  // --- fabric-link-fault: drop or delay a frame in transit -----------------
  // The victim ptid is 0 (links have no thread); record matching stays
  // unambiguous because at most one link fault is outstanding per campaign
  // budget and recovery is keyed on route order, which is deterministic per
  // transmitting shard.
  fabric_->SetLinkFaultHook([this](uint64_t, uint64_t) -> int64_t {
    const Tick now = machine_.sim().now();
    for (Campaign& c : campaigns_) {
      if (c.config.fault != FaultClass::kFabricLinkFault || !ShouldFire(c, now)) {
        continue;
      }
      Inject(FaultClass::kFabricLinkFault, 0, now);
      // Drop and delay are the two physical flavors of a flaky link; the
      // engine's private RNG picks so workload RNG streams never move.
      if (rng_.NextBool(0.5)) {
        return -1;
      }
      return static_cast<int64_t>(c.config.link_delay);
    }
    return 0;
  });
  // The next frame the fabric commits to deliver closes the loss window:
  // sequence numbers advance past the gap (detection is normally noted
  // earlier by the consumer's gap check via NoteDetected; if it never was,
  // recovery charges both). Same-tick self-matches are skipped so a delayed
  // frame does not "recover" the very fault that delayed it.
  fabric_->SetDeliveryObserver([this](uint64_t, uint64_t) {
    const Tick now = machine_.sim().now();
    for (FaultRecord& r : records_) {
      if (r.cls == FaultClass::kFabricLinkFault && r.recovered_at == 0 &&
          r.injected_at < now) {
        SetRecovered(r, now);
        return;
      }
    }
  });
}

void ChaosEngine::InstallThreadHooks() {
  ThreadSystem& ts = machine_.threads();
  // --- migration-crash: kill the migration engine mid-rpull/rpush ---------
  ts.SetMigrationFaultHook([this](Ptid issuer, Ptid, bool) {
    const Tick now = machine_.sim().now();
    for (Campaign& c : campaigns_) {
      if (c.config.fault == FaultClass::kMigrationCrash && TargetsMatch(c, issuer) &&
          ShouldFire(c, now)) {
        // The issuer is the victim: it raises kMigrationAbort when we return
        // true (the target stays disabled and untouched).
        Inject(FaultClass::kMigrationCrash, issuer, now);
        return true;
      }
    }
    return false;
  });
  // --- remote-start-race: revoke a cross-core start shortly after issue ---
  ts.SetRemoteStartObserver([this](Ptid, Ptid target) {
    const Tick now = machine_.sim().now();
    for (Campaign& c : campaigns_) {
      if (c.config.fault != FaultClass::kRemoteStartRace || !TargetsMatch(c, target)) {
        continue;
      }
      if (!ShouldFire(c, now)) {
        continue;
      }
      Inject(FaultClass::kRemoteStartRace, target, now);
      machine_.sim().queue().ScheduleFnAfter(c.config.collision_delay, [this, target] {
        ThreadSystem& sys = machine_.threads();
        if (sys.halted()) {
          return;
        }
        // The collision lands now: that is the architecturally visible
        // detection point (the worker everyone believes is running is gone).
        const Tick at = machine_.sim().now();
        for (FaultRecord& r : records_) {
          if (r.cls == FaultClass::kRemoteStartRace && r.ptid == target &&
              r.detected_at == 0) {
            SetDetected(r, at);
            break;
          }
        }
        sys.HostStop(target);
      });
      return;
    }
  });
  // --- context poison: corrupt a context image mid-restore ----------------
  ts.SetRestoreFaultHook([this](Ptid ptid) {
    const Tick now = machine_.sim().now();
    for (Campaign& c : campaigns_) {
      if (c.config.fault == FaultClass::kContextPoison && TargetsMatch(c, ptid) &&
          ShouldFire(c, now)) {
        Inject(FaultClass::kContextPoison, ptid, now);
        return true;
      }
    }
    return false;
  });
  ts.AddExceptionObserver([this](Ptid ptid, ExceptionType type, Addr, uint32_t depth) {
    const Tick now = machine_.sim().now();
    // Poison detected: the hardware raised kContextPoison on the victim.
    if (type == ExceptionType::kContextPoison) {
      for (FaultRecord& r : records_) {
        if (r.cls == FaultClass::kContextPoison && r.ptid == ptid && r.detected_at == 0) {
          SetDetected(r, now);
          break;
        }
      }
    }
    // Migration crash detected: the issuer raised kMigrationAbort.
    if (type == ExceptionType::kMigrationAbort) {
      for (FaultRecord& r : records_) {
        if (r.cls == FaultClass::kMigrationCrash && r.ptid == ptid && r.detected_at == 0) {
          SetDetected(r, now);
          break;
        }
      }
    }
    // --- edp-unwritable -------------------------------------------------
    if (depth == 0) {
      // A fresh fault: decide whether its descriptor write will land on an
      // unwritable page. The observer runs at raise time, before the
      // descriptor write is scheduled, so closing the page here is "the EDP
      // pointed at a bad page all along" as far as the hardware can tell.
      for (Campaign& c : campaigns_) {
        if (c.config.fault != FaultClass::kEdpUnwritable || !TargetsMatch(c, ptid)) {
          continue;
        }
        const Addr edp = machine_.threads().thread(ptid).arch().edp;
        if (edp == 0 || edp_hole_ != 0 || !ShouldFire(c, now)) {
          continue;
        }
        machine_.mem().AddUnwritableRange(edp, ExceptionDescriptor::kBytes);
        edp_hole_ = edp;
        Inject(FaultClass::kEdpUnwritable, ptid, now);
      }
    } else {
      // Escalation observed: the undeliverable descriptor was noticed and
      // the fault is climbing the chain. Detection — and the page can
      // reopen so later faults of the (restarted) victim deliver normally.
      FaultRecord* r = FirstUndetected(FaultClass::kEdpUnwritable);
      if (r != nullptr) {
        SetDetected(*r, now);
        if (edp_hole_ != 0) {
          machine_.mem().RemoveUnwritableRange(edp_hole_, ExceptionDescriptor::kBytes);
          edp_hole_ = 0;
        }
      }
    }
  });
  ts.AddDeliveryObserver([this](const ExceptionDescriptor& d, Addr, uint32_t depth) {
    const Tick now = machine_.sim().now();
    // An escalated descriptor landing means a live handler now knows about
    // the sunk fault: the chain absorbed it.
    if (depth > 0) {
      NoteRecovered(FaultClass::kEdpUnwritable, now);
    }
    // A crashed handler's own descriptor landing at its parent = detection.
    for (FaultRecord& r : records_) {
      if (r.cls == FaultClass::kHandlerCrash && r.ptid == d.ptid && r.detected_at == 0) {
        SetDetected(r, now);
        break;
      }
    }
  });
  ts.AddWakeObserver([this](Ptid ptid, TraceCause cause) {
    const Tick now = machine_.sim().now();
    // Recovery for thread-victim classes: the victim is runnable again.
    for (FaultRecord& r : records_) {
      if ((r.cls == FaultClass::kContextPoison || r.cls == FaultClass::kHandlerCrash ||
           r.cls == FaultClass::kMigrationCrash || r.cls == FaultClass::kRemoteStartRace) &&
          r.ptid == ptid && r.detected_at != 0 && r.recovered_at == 0) {
        SetRecovered(r, now);
      }
    }
    // --- handler crash: fault a handler shortly after a monitor wake ------
    // (i.e. while it is servicing the descriptor that woke it).
    if (cause != TraceCause::kMonitorWake) {
      return;
    }
    for (Campaign& c : campaigns_) {
      if (c.config.fault != FaultClass::kHandlerCrash || !TargetsMatch(c, ptid)) {
        continue;
      }
      if (!ShouldFire(c, now)) {
        continue;
      }
      const Tick delay = c.config.crash_delay;
      machine_.sim().queue().ScheduleFnAfter(delay, [this, ptid] {
        ThreadSystem& sys = machine_.threads();
        if (sys.halted() || sys.thread(ptid).state() == ThreadState::kDisabled) {
          return;
        }
        Inject(FaultClass::kHandlerCrash, ptid, machine_.sim().now());
        sys.RaiseException(ptid, ExceptionType::kIllegalInstruction, 0, /*errcode=*/0xc4a05);
      });
    }
  });
}

}  // namespace casc
