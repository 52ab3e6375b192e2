// Fluid-flow network implementations.
//
// Shared machinery (FluidNetwork): flow lifecycle, latency staging, progress
// advancement, and a single rescheduled next-completion event — so the event
// queue never accumulates stale per-flow completions. Subclasses only decide
// how capacity is split among concurrent flows (Reallocate).
//
// Flows live in an id-ordered slot vector (intrusive free list, no per-flow
// heap traffic after warm-up) and every resource keeps the slot list of the
// flows crossing it. Arrivals and departures mark their resources dirty, and
// the default solvers recompute only the flows reachable from the dirty set:
// for fair-share that is exactly the flows on a dirty resource (their rate
// formula reads nothing else), for water-filling it is the connected
// component of the flow/resource sharing graph (rate changes cascade no
// further). The original from-scratch solvers are kept as a reference oracle
// behind NetworkConfig::exact_reallocate / SetExactReallocate — the
// incremental/exact property test drives both arms in lockstep.
//
// Resources are indexed as: [0, N) egress NICs, [N, 2N) ingress NICs,
// [2N, 3N) node-local paths, 3N the optional core fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/pool_alloc.h"
#include "sim/simulation.h"

namespace memfs::net {

class FluidNetwork : public Network {
 public:
  FluidNetwork(sim::Simulation& sim, NetworkConfig config);
  ~FluidNetwork() override;

  sim::VoidFuture Transfer(NodeId src, NodeId dst,
                           std::uint64_t bytes) override;

  const NetworkConfig& config() const override { return config_; }
  std::uint64_t bytes_sent(NodeId node) const override {
    return sent_[node];
  }
  std::uint64_t bytes_received(NodeId node) const override {
    return received_[node];
  }
  std::uint64_t total_bytes() const override { return total_bytes_; }
  std::size_t active_flows() const override { return active_count_; }

  // Fault injection: per-link loss and latency spikes (see network.h).
  void SetLinkFault(NodeId src, NodeId dst, LinkFault fault) override;
  void ClearLinkFault(NodeId src, NodeId dst) override;
  bool DropMessage(NodeId src, NodeId dst) override;
  std::uint64_t dropped_messages() const override { return dropped_; }
  // Reseeds the loss-decision stream (defaults to a fixed seed; chaos
  // harnesses reseed per experiment for decorrelated runs).
  void SeedFaultRng(std::uint64_t seed) { fault_rng_ = Rng(seed); }

  // Switches between the incremental solver and the exact reference oracle
  // at runtime (tests flip this mid-run; both arms maintain the same flow
  // bookkeeping, so flipping is always safe).
  void SetExactReallocate(bool exact) { exact_ = exact; }
  bool exact_reallocate() const { return exact_; }

  // Diagnostic snapshot of the in-progress flows, sorted by id (stable
  // across solver arms; the property test compares these).
  struct FlowInfo {
    std::uint64_t id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    double remaining = 0.0;
    double rate = 0.0;
  };
  std::vector<FlowInfo> SnapshotFlows() const;

 protected:
  using ResourceId = std::uint32_t;
  using SlotId = std::uint32_t;
  static constexpr SlotId kNoSlot = 0xffffffffu;
  // A flow crosses at most egress + ingress + fabric.
  static constexpr std::uint32_t kMaxResources = 3;

  enum class FlowState : std::uint8_t { kFree, kStaged, kActive };

  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    FlowState state = FlowState::kFree;
    std::uint8_t nres = 0;
    ResourceId res[kMaxResources] = {0, 0, 0};
    // Index of this slot inside res_flows_[res[i]] (swap-remove fix-up).
    std::uint32_t pos[kMaxResources] = {0, 0, 0};
    double bytes = 0.0;      // transfer size, read once at activation
    std::uint64_t id = 0;    // 0 when the slot is free
    std::uint64_t visit = 0; // solver traversal stamp
    // Index of this slot in active_slots_ (swap-remove fix-up).
    std::uint32_t active_pos = 0;
    SlotId next_free = kNoSlot;
    sim::VoidPromise promise;
  };

  ResourceId EgressOf(NodeId n) const { return n; }
  ResourceId IngressOf(NodeId n) const { return config_.nodes + n; }
  ResourceId LocalOf(NodeId n) const { return 2 * config_.nodes + n; }
  ResourceId Fabric() const { return 3 * config_.nodes; }

  // Recomputes `rate` for the flows affected by the dirty resource set (or
  // for every flow, in exact-oracle mode). Invoked after each flow
  // arrival/completion with progress already advanced to the current time.
  virtual void Reallocate() = 0;

  double ResourceCapacity(ResourceId r) const { return capacity_[r]; }
  std::uint32_t ResourceFlowCount(ResourceId r) const { return counts_[r]; }

  // Resources whose flow membership changed since the last Reallocate
  // (deduplicated, in mark order).
  const std::vector<ResourceId>& DirtyResources() const { return dirty_; }
  bool exact_solver() const { return exact_; }

  // Slot storage, resource membership lists, and traversal stamps — the
  // solver implementations walk these directly.
  std::vector<Flow> flows_;
  std::vector<std::vector<SlotId>> res_flows_;
  std::uint64_t visit_cur_ = 0;

  // While a flow is active, its remaining bytes and current rate live in
  // active_rr_[flow.active_pos] — a packed array the per-event scans
  // (progress, due collection, next-completion minimum) stream through at
  // four entries per cache line instead of dereferencing whole Flow records.
  // Solvers read and write rates through rate_of()/set_rate().
  struct ActiveRR {
    double remaining = 0.0;  // bytes
    double rate = 0.0;       // bytes per second
  };
  double rate_of(const Flow& flow) const {
    return active_rr_[flow.active_pos].rate;
  }
  void set_rate(const Flow& flow, double rate) {
    active_rr_[flow.active_pos].rate = rate;
  }

  sim::Simulation& sim_;
  const NetworkConfig config_;

 private:
  void Activate(SlotId slot, std::uint64_t id);
  void AdvanceProgress();
  void FinishDueFlows();
  void ScheduleNextCompletion();
  void RunReallocate();
  SlotId AllocSlot();
  void FreeSlot(SlotId slot);
  void MarkDirty(ResourceId r);
  void LinkFlow(SlotId slot);
  void UnlinkFlow(SlotId slot);

  static std::uint64_t LinkKey(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  std::vector<double> capacity_;       // per resource, bytes/sec
  std::vector<std::uint32_t> counts_;  // active flows per resource
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> received_;
  // Dense list of the active slots, in no particular order (swap-remove),
  // with active_rr_ kept index-aligned. The hot per-event scans walk these
  // instead of the whole slot vector, whose high-water mark can dwarf the
  // live count after a burst. All three scans are order-independent (the
  // multi-completion fulfillment order is pinned separately by
  // completion_order_), so the scramble is digest-safe.
  std::vector<SlotId> active_slots_;
  std::vector<ActiveRR> active_rr_;

 private:
  std::vector<ResourceId> dirty_;       // deduplicated via dirty_stamp_
  std::vector<std::uint64_t> dirty_stamp_;
  std::uint64_t dirty_cur_ = 1;
  // Scratch for FinishDueFlows (reused).
  std::vector<std::pair<std::uint64_t, SlotId>> due_scratch_;
  // Mirrors the historical id-keyed flow map purely to order simultaneous
  // completions: the pinned event digests bake in the old container's
  // iteration order, and an unordered_map with the same key sequence
  // reproduces it node-for-node. Consulted only when ≥2 flows finish in one
  // event (see FinishDueFlows); everything else walks the dense slot vector.
  // Its nodes (one insert + erase per flow) recycle through the sim pool;
  // node addresses never feed the iteration order, which depends only on the
  // keys, their hashes and the insert/erase sequence.
  std::unordered_map<
      std::uint64_t, SlotId, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      sim::detail::PoolAllocator<std::pair<const std::uint64_t, SlotId>>>
      completion_order_;
  SlotId free_head_ = kNoSlot;
  std::size_t active_count_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t next_flow_id_ = 1;
  std::uint64_t completion_generation_ = 0;
  sim::SimTime last_advance_ = 0;
  bool exact_ = false;

  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  Rng fault_rng_{0x4661756c747321ull};
  std::uint64_t dropped_ = 0;
};

// Each resource divides its capacity evenly among its flows; a flow's rate is
// the minimum share across its resources. Unclaimed capacity of flows that
// bottleneck elsewhere is not redistributed.
//
// The incremental arm recomputes exactly the flows on a dirty resource: a
// flow's rate reads only its own resources' capacity/count, so every other
// flow's min() would be recomputed from bit-identical inputs. Incremental and
// exact are therefore bitwise-equal here (the pinned digests rely on this).
class FairShareNetwork final : public FluidNetwork {
 public:
  using FluidNetwork::FluidNetwork;

 protected:
  void Reallocate() override;

 private:
  void ReallocateExact();
  void RecomputeFlow(Flow& flow);
};

// Exact max-min fairness: iteratively saturates the most-contended resource
// and redistributes the rest (progressive filling / water-filling).
//
// The incremental arm re-solves the connected component(s) of the
// flow/resource graph reachable from the dirty resources; disjoint
// components share no capacity, so their rates are independent up to the
// freeze threshold (≤ 1e-9 B/s of cross-component coupling — far below the
// property-test tolerance).
class WaterfillNetwork final : public FluidNetwork {
 public:
  using FluidNetwork::FluidNetwork;

 protected:
  void Reallocate() override;

 private:
  void ReallocateExact();
  // Progressive filling restricted to `flow_slots` (assumed to be the union
  // of whole components: every active flow on every resource any of them
  // crosses is in the list).
  void SolveComponent(const std::vector<SlotId>& flow_slots);

  // Scratch reused across solves (indexed by ResourceId, stamped).
  std::vector<double> residual_;
  std::vector<std::uint32_t> unfixed_;
  std::vector<std::uint64_t> res_stamp_;
  std::uint64_t res_cur_ = 0;
  std::vector<ResourceId> comp_res_;
  std::vector<SlotId> comp_flows_;
  std::vector<ResourceId> bfs_stack_;
};

}  // namespace memfs::net
