#include "core/dcsa_columns.hpp"

#include <utility>

namespace gcs::core {

// A rule that never jumps or never caps has no use for weights, so only
// a jumping, blocking rule with a weight function runs weighted.
DcsaColumns::DcsaColumns(const SyncParams& params, std::size_t n,
                         DcsaRule rule)
    : rule_(std::move(rule)),
      mode_(!rule_.jump    ? Mode::kNoJump
            : !rule_.block ? Mode::kNoBlock
            : rule_.weight ? Mode::kWeighted
                           : Mode::kPlain),
      kappa_((1.0 - params.rho) / (1.0 + params.rho)) {
  offset_.assign(n, 0.0);
  fast_.assign(n, 0);
  head_.assign(n, 0);
  count_.assign(n, 0);
  cap_.assign(n, 0);
}

void DcsaColumns::start(const NodeContext& ctx) {
  offset_[ctx.self] = -ctx.hw_now;  // logical clock starts at 0
  fast_[ctx.self] = 0;
}

std::uint32_t DcsaColumns::find_slot(NodeId u, NodeId peer) const {
  const std::uint32_t head = head_[u];
  const std::uint32_t end = head + count_[u];
  for (std::uint32_t s = head; s < end; ++s) {
    if (slot_peer_[s] == peer) return s;
  }
  return kNpos;
}

void DcsaColumns::reserve_slot(NodeId u) {
  if (count_[u] < cap_[u]) return;
  // Relocate the segment to the arena tail with double the capacity; the
  // old region becomes a hole that compaction reclaims.
  const std::uint32_t old_head = head_[u];
  const std::uint32_t old_count = count_[u];
  const std::uint32_t new_cap = cap_[u] ? cap_[u] * 2 : kInitialCap;
  const std::uint32_t new_head = static_cast<std::uint32_t>(slot_peer_.size());
  slot_peer_.resize(new_head + new_cap);
  slot_hw_up_.resize(new_head + new_cap);
  slot_has_est_.resize(new_head + new_cap);
  slot_value_.resize(new_head + new_cap);
  slot_hw_recv_.resize(new_head + new_cap);
  if (weighted()) slot_weight_.resize(new_head + new_cap);
  for (std::uint32_t i = 0; i < old_count; ++i) {
    slot_peer_[new_head + i] = slot_peer_[old_head + i];
    slot_hw_up_[new_head + i] = slot_hw_up_[old_head + i];
    slot_has_est_[new_head + i] = slot_has_est_[old_head + i];
    slot_value_[new_head + i] = slot_value_[old_head + i];
    slot_hw_recv_[new_head + i] = slot_hw_recv_[old_head + i];
    if (weighted()) slot_weight_[new_head + i] = slot_weight_[old_head + i];
  }
  hole_slots_ += cap_[u];
  head_[u] = new_head;
  cap_[u] = new_cap;
  maybe_compact();
}

void DcsaColumns::maybe_compact() {
  // Rebuild only when abandoned holes are worth reclaiming: at least a
  // quarter of the arena, and big enough in absolute terms to pay for
  // the rebuild.  The fraction must be < 1/2: doubling growth leaves a
  // relocated segment's full history (4+8+...+c/2 = c-4 holes) against
  // 2c-4 allocated slots, so holes approach but NEVER reach half the
  // arena -- a half threshold is unreachable dead code (a test pins
  // this by asserting compaction actually fires under churn).  Caps are
  // kept (they encode degree history), so a compaction never triggers
  // an immediate regrow.  Runs only from edge_up -- the simulator's
  // global context -- so no delivery can be scanning the arena
  // concurrently.
  if (hole_slots_ < 4096 || hole_slots_ * 4 < slot_peer_.size()) return;
  std::size_t packed = 0;
  for (std::size_t u = 0; u < cap_.size(); ++u) packed += cap_[u];
  std::vector<NodeId> peer(packed);
  std::vector<double> hw_up(packed);
  std::vector<std::uint8_t> has_est(packed);
  std::vector<double> value(packed);
  std::vector<double> hw_recv(packed);
  std::vector<double> weight(weighted() ? packed : 0);
  std::uint32_t next = 0;
  for (std::size_t u = 0; u < cap_.size(); ++u) {
    const std::uint32_t old_head = head_[u];
    for (std::uint32_t i = 0; i < count_[u]; ++i) {
      peer[next + i] = slot_peer_[old_head + i];
      hw_up[next + i] = slot_hw_up_[old_head + i];
      has_est[next + i] = slot_has_est_[old_head + i];
      value[next + i] = slot_value_[old_head + i];
      hw_recv[next + i] = slot_hw_recv_[old_head + i];
      if (weighted()) weight[next + i] = slot_weight_[old_head + i];
    }
    head_[u] = next;
    next += cap_[u];
  }
  slot_peer_ = std::move(peer);
  slot_hw_up_ = std::move(hw_up);
  slot_has_est_ = std::move(has_est);
  slot_value_ = std::move(value);
  slot_hw_recv_ = std::move(hw_recv);
  slot_weight_ = std::move(weight);
  hole_slots_ = 0;
}

void DcsaColumns::edge_up(const NodeContext& ctx, NodeId peer) {
  const NodeId u = ctx.self;
  std::uint32_t s = find_slot(u, peer);
  if (s == kNpos) {
    reserve_slot(u);
    s = head_[u] + count_[u];
    ++count_[u];
    ++live_slots_;
    slot_peer_[s] = peer;
  }
  // Fresh edge state, exactly like the oracle's peers_[peer] = {hw, ...}.
  slot_hw_up_[s] = ctx.hw_now;
  slot_has_est_[s] = 0;
  slot_value_[s] = 0.0;
  slot_hw_recv_[s] = 0.0;
  if (weighted()) slot_weight_[s] = rule_.weight(u, peer);
}

void DcsaColumns::edge_down(const NodeContext& ctx, NodeId peer) {
  const NodeId u = ctx.self;
  const std::uint32_t s = find_slot(u, peer);
  if (s == kNpos) return;
  // Swap-remove within the segment; segment order is free (see header).
  const std::uint32_t last = head_[u] + count_[u] - 1;
  if (s != last) {
    slot_peer_[s] = slot_peer_[last];
    slot_hw_up_[s] = slot_hw_up_[last];
    slot_has_est_[s] = slot_has_est_[last];
    slot_value_[s] = slot_value_[last];
    slot_hw_recv_[s] = slot_hw_recv_[last];
    if (weighted()) slot_weight_[s] = slot_weight_[last];
  }
  --count_[u];
  --live_slots_;
}

double DcsaColumns::unconstrained_target(NodeId u, double hw_now,
                                         double logical) const {
  const std::uint32_t head = head_[u];
  const std::uint32_t end = head + count_[u];
  double target = logical;
  for (std::uint32_t i = head; i < end; ++i) {
    if (!slot_has_est_[i]) continue;
    const double est = estimate_low(i, hw_now);
    target = target > est ? target : est;
  }
  return target;
}

bool DcsaColumns::is_blocked_by(NodeId u, NodeId peer, double hw_now) const {
  const std::uint32_t s = find_slot(u, peer);
  if (s == kNpos || !slot_has_est_[s]) return false;
  const double target =
      unconstrained_target(u, hw_now, logical_clock(u, hw_now));
  const double allowed = weighted() ? tolerance<true>(s, hw_now)
                                    : tolerance<false>(s, hw_now);
  return estimate_low(s, hw_now) + allowed < target;
}

template <DcsaColumns::Mode M>
double DcsaColumns::apply_delivery(const StoreDelivery& d) {
  const NodeId u = d.to;
  const double hw_now = d.hw_now;
  // --- on_message: keep the strongest lower bound (the oracle verbatim).
  const std::uint32_t s = find_slot(u, d.from);
  if (s != kNpos) {
    if (!(slot_has_est_[s] && estimate_low(s, hw_now) >= d.value)) {
      slot_value_[s] = d.value;
      slot_hw_recv_[s] = hw_now;
      slot_has_est_[s] = 1;
    }
  }
  // --- step: the jump rule over the segment.  Same per-slot arithmetic
  // and the same compare-and-select forms as the oracle's step(); the
  // folds are order-independent, so segment order vs. map order cannot
  // matter.
  if constexpr (M == Mode::kNoJump) {
    fast_[u] = 0;
    return 0.0;
  } else {
    const double logical = hw_now + offset_[u];
    const double target = unconstrained_target(u, hw_now, logical);
    fast_[u] = target > logical ? 1 : 0;
    double cap = target;
    if constexpr (M != Mode::kNoBlock) {
      const std::uint32_t head = head_[u];
      const std::uint32_t end = head + count_[u];
      for (std::uint32_t i = head; i < end; ++i) {
        if (!slot_has_est_[i]) continue;  // covered by B(0) > G(n)
        const double allowed = estimate_low(i, hw_now) +
                               tolerance<M == Mode::kWeighted>(i, hw_now);
        cap = cap < allowed ? cap : allowed;
      }
    }
    if (cap > logical) {
      offset_[u] += cap - logical;
      return cap - logical;
    }
    return 0.0;
  }
}

template <DcsaColumns::Mode M>
void DcsaColumns::apply_batch(const StoreDelivery* batch, std::size_t count,
                              DeliverySink& sink) {
  for (std::size_t i = 0; i < count; ++i) {
    const StoreDelivery& d = batch[i];
    sink.before(d);
    sink.after(d, apply_delivery<M>(d));
  }
}

void DcsaColumns::on_deliveries(const StoreDelivery* batch, std::size_t count,
                                DeliverySink& sink) {
  switch (mode_) {
    case Mode::kPlain:
      return apply_batch<Mode::kPlain>(batch, count, sink);
    case Mode::kWeighted:
      return apply_batch<Mode::kWeighted>(batch, count, sink);
    case Mode::kNoBlock:
      return apply_batch<Mode::kNoBlock>(batch, count, sink);
    case Mode::kNoJump:
      return apply_batch<Mode::kNoJump>(batch, count, sink);
  }
}

void DcsaColumns::advance(const double* hw_now, double* logical,
                          std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    logical[i] = hw_now[i] + offset_[i];
  }
}

std::size_t DcsaColumns::arena_bytes() const {
  const std::size_t per_node =
      sizeof(double) + sizeof(std::uint8_t) + 3 * sizeof(std::uint32_t);
  const std::size_t per_slot = sizeof(NodeId) + sizeof(std::uint8_t) +
                               (weighted() ? 4 : 3) * sizeof(double);
  return offset_.size() * per_node + slot_peer_.size() * per_slot;
}

}  // namespace gcs::core
