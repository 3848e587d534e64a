// gcs::oracle -- AutomatonStore: per-node oracle automatons behind the
// core::NodeStore interface.
//
// Call order replicates a per-node simulator exactly: for each record,
// sink.before, the receiver's on_message, its step, sink.after.  Handed
// to NetworkSimulation through its NodeStore constructor, it runs the
// readable automatons in lockstep with core::DcsaColumns, and the
// lockstep matrix (tests/test_store_oracle.cpp) holds the columns to
// this store's bytes.  It keeps no flat arena, so arena_bytes is 0.
#ifndef GCS_ORACLE_AUTOMATON_STORE_HPP
#define GCS_ORACLE_AUTOMATON_STORE_HPP

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/node_store.hpp"
#include "oracle/node_automaton.hpp"

namespace gcs::oracle {

class AutomatonStore : public core::NodeStore {
 public:
  explicit AutomatonStore(std::vector<std::unique_ptr<NodeAutomaton>> nodes)
      : nodes_(std::move(nodes)) {}

  std::size_t size() const override { return nodes_.size(); }
  void start(const NodeContext& ctx) override { nodes_[ctx.self]->start(ctx); }
  void edge_up(const NodeContext& ctx, NodeId peer) override {
    nodes_[ctx.self]->on_edge_up(ctx, peer);
  }
  void edge_down(const NodeContext& ctx, NodeId peer) override {
    nodes_[ctx.self]->on_edge_down(ctx, peer);
  }
  void on_deliveries(const core::StoreDelivery* batch, std::size_t count,
                     core::DeliverySink& sink) override {
    for (std::size_t i = 0; i < count; ++i) {
      const core::StoreDelivery& d = batch[i];
      sink.before(d);
      NodeAutomaton& a = *nodes_[d.to];
      const NodeContext ctx{d.to, d.hw_now, d.now};
      a.on_message(ctx, d.from, d.value);
      sink.after(d, a.step(ctx));
    }
  }
  void advance(const double* hw_now, double* logical,
               std::size_t count) const override {
    for (std::size_t i = 0; i < count; ++i) {
      logical[i] = nodes_[i]->logical_clock(hw_now[i]);
    }
  }
  double logical_clock(NodeId u, double hw_now) const override {
    return nodes_[u]->logical_clock(hw_now);
  }
  bool fast_mode(NodeId u) const override { return nodes_[u]->fast_mode(); }
  std::size_t arena_bytes() const override { return 0; }

  // The automaton behind node u, for tests that poke protocol internals
  // (DcsaNode::is_blocked_by).
  NodeAutomaton& node(NodeId u) { return *nodes_[u]; }

 private:
  std::vector<std::unique_ptr<NodeAutomaton>> nodes_;
};

// One automaton per node from `factory(id)`, ready for the simulator's
// NodeStore constructor.
template <class Factory>
std::unique_ptr<AutomatonStore> automaton_store(std::size_t n,
                                                Factory factory) {
  std::vector<std::unique_ptr<NodeAutomaton>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(factory(static_cast<NodeId>(i)));
    if (!nodes.back()) {
      throw std::invalid_argument("automaton_store: null automaton");
    }
  }
  return std::make_unique<AutomatonStore>(std::move(nodes));
}

}  // namespace gcs::oracle

#endif  // GCS_ORACLE_AUTOMATON_STORE_HPP
