// gcs::core -- DcsaColumns: Algorithm 2 as struct-of-arrays.
//
// The node store.  Node state lives in flat columns (one offset, one
// fast-mode flag per node); per-edge estimate state lives in a single
// slot arena carved into per-node segments, CSR-style: node u's peers
// occupy slots [head_[u], head_[u] + count_[u]) of the parallel columns
// {peer, hw_up, has_estimate, value, hw_recv} (plus weight under a
// weighted rule).  Segments grow by relocation to the arena tail
// (amortized doubling) and the arena compacts when abandoned holes pile
// up past a quarter of it, so a million-node churn run costs a handful
// of contiguous allocations instead of a million std::map instances.
//
// Peer lookup is a linear scan of the segment: DCSA degree is bounded
// in every scaling workload (ring backbones plus volatile edges), and
// for single-digit degrees the scan beats any hash on both time and
// memory.  Segment order is insertion order, NOT peer order -- valid
// because the min/max folds and on_message's single-slot update are
// iteration-order independent, so trajectories stay byte-identical to
// the per-node oracle automatons in tests/oracle/ (the lockstep matrix
// in tests/test_store_oracle.cpp proves it for every rule).
//
// The arithmetic is copied expression-for-expression from the oracle
// automaton (tests/oracle/dcsa_node.hpp): est_low = value + kappa *
// (hw_now - hw_recv); target/cap folds use the same
// comparison-and-select forms.  Change one only with the other.
#ifndef GCS_CORE_DCSA_COLUMNS_HPP
#define GCS_CORE_DCSA_COLUMNS_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "core/bfunc.hpp"
#include "core/node_store.hpp"
#include "core/params.hpp"

namespace gcs::core {

// The rule a DcsaColumns store applies, fixed for the store's lifetime.
// The default-constructed-from-params rule is Algorithm 2 as published;
// the ablation variants each change one part of it:
//   * tolerance -- the blocking function B (bench_ablation scales its G
//     headroom down to break Lemma 6.10);
//   * jump = false -- no catch-up: clocks free-run at hardware rate
//     ("nojump", the frontier's do-nothing anchor);
//   * block = false -- catch-up without the blocking cap ("noblock");
//   * weight -- the weighted-graph extension from the paper's
//     conclusion: weight(self, peer) in (0, 1] is read once per edge_up,
//     and a matured edge of weight w tolerates w * B.floor() instead of
//     B.floor().  Only the steady floor scales, so B(0) > G(n) and
//     Lemma 6.10 survive.  Empty = unweighted.
// Messages are received and aged under every rule, so message cost is
// the same for all of them.
struct DcsaRule {
  explicit DcsaRule(const SyncParams& params) : tolerance(params) {}

  BFunction tolerance;
  bool jump = true;
  bool block = true;
  std::function<double(NodeId, NodeId)> weight;
};

class DcsaColumns : public NodeStore {
 public:
  DcsaColumns(const SyncParams& params, std::size_t n)
      : DcsaColumns(params, n, DcsaRule(params)) {}
  DcsaColumns(const SyncParams& params, std::size_t n, DcsaRule rule);

  std::size_t size() const override { return offset_.size(); }
  void start(const NodeContext& ctx) override;
  void edge_up(const NodeContext& ctx, NodeId peer) override;
  void edge_down(const NodeContext& ctx, NodeId peer) override;
  void on_deliveries(const StoreDelivery* batch, std::size_t count,
                     DeliverySink& sink) override;
  void advance(const double* hw_now, double* logical,
               std::size_t count) const override;
  double logical_clock(NodeId u, double hw_now) const override {
    return hw_now + offset_[u];
  }
  bool fast_mode(NodeId u) const override { return fast_[u] != 0; }
  std::size_t arena_bytes() const override;

  // True iff `peer`'s tolerance cap on u currently binds strictly below
  // u's unconstrained jump target: the peer is holding u back.  Read
  // from the estimates alone, whatever the rule does with the cap.
  bool is_blocked_by(NodeId u, NodeId peer, double hw_now) const;

  const BFunction& tolerance_fn() const { return rule_.tolerance; }
  // Live peer-slot count across all segments (tests/diagnostics).
  std::size_t live_slots() const { return live_slots_; }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInitialCap = 4;

  // The rule, resolved once so the hot loops carry no per-slot branch.
  enum class Mode { kPlain, kWeighted, kNoBlock, kNoJump };

  // Absolute slot of (u, peer), or kNpos.
  std::uint32_t find_slot(NodeId u, NodeId peer) const;
  // Ensure u's segment has room for one more slot (relocate/grow).
  void reserve_slot(NodeId u);
  void maybe_compact();
  bool weighted() const { return mode_ == Mode::kWeighted; }

  double estimate_low(std::uint32_t s, double hw_now) const {
    return slot_value_[s] + kappa_ * (hw_now - slot_hw_recv_[s]);
  }
  // Edge tolerance of slot s at u's hardware reading hw_now.
  template <bool kWeighted>
  double tolerance(std::uint32_t s, double hw_now) const {
    const double base = rule_.tolerance(hw_now - slot_hw_up_[s]);
    if constexpr (kWeighted) {
      const double floor = rule_.tolerance.floor();
      return slot_weight_[s] * floor + (base - floor);
    } else {
      return base;
    }
  }
  // Max of `logical` and u's peer estimates (the catch-up rule).
  double unconstrained_target(NodeId u, double hw_now, double logical) const;
  // on_message + step for one record; returns the jump applied.
  template <Mode M>
  double apply_delivery(const StoreDelivery& d);
  template <Mode M>
  void apply_batch(const StoreDelivery* batch, std::size_t count,
                   DeliverySink& sink);

  DcsaRule rule_;
  Mode mode_;
  double kappa_;

  // Per-node columns.
  std::vector<double> offset_;
  std::vector<std::uint8_t> fast_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> cap_;

  // The peer-slot arena (parallel columns; slot_weight_ stays empty
  // unless the rule is weighted).
  std::vector<NodeId> slot_peer_;
  std::vector<double> slot_hw_up_;
  std::vector<std::uint8_t> slot_has_est_;
  std::vector<double> slot_value_;
  std::vector<double> slot_hw_recv_;
  std::vector<double> slot_weight_;

  std::size_t live_slots_ = 0;  // sum of count_
  std::size_t hole_slots_ = 0;  // abandoned by relocation
};

}  // namespace gcs::core

#endif  // GCS_CORE_DCSA_COLUMNS_HPP
