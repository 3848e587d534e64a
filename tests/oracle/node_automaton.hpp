// gcs::oracle -- the per-node protocol-automaton interface.
//
// A NodeAutomaton is Algorithm 2 written the way the paper states it:
// one object per node, one virtual call per input.  The simulator only
// drives the batch-oriented core::NodeStore; AutomatonStore
// (automaton_store.hpp) adapts a vector of these onto that interface so
// the readable per-node form runs in lockstep with core::DcsaColumns and
// pins its arithmetic bit for bit.
//
// Every callback receives one core::NodeContext: the node's own id, the
// reading of ITS OWN hardware clock (automata never see real time,
// exactly as in the paper's model), and the simulation instant that
// produced the reading (observability only -- a conforming automaton
// must not branch on it).  The simulator calls step() after every input
// event; the automaton returns the (non-negative) amount it jumped its
// logical clock forward, which the simulator uses for statistics and
// conformance checking.
#ifndef GCS_ORACLE_NODE_AUTOMATON_HPP
#define GCS_ORACLE_NODE_AUTOMATON_HPP

#include "core/node_store.hpp"

namespace gcs::oracle {

using core::NodeContext;
using core::NodeId;

class NodeAutomaton {
 public:
  virtual ~NodeAutomaton() = default;

  // Called once before any other callback; ctx.hw_now is the node's
  // initial hardware-clock reading (normally 0).
  virtual void start(const NodeContext& ctx) = 0;

  virtual void on_edge_up(const NodeContext& ctx, NodeId peer) = 0;
  virtual void on_edge_down(const NodeContext& ctx, NodeId peer) = 0;

  // A neighbour's logical clock value, sampled at its send time.
  virtual void on_message(const NodeContext& ctx, NodeId from,
                          double logical_value) = 0;

  // Runs the jump rule; returns the jump applied (0 if none).
  virtual double step(const NodeContext& ctx) = 0;

  // The node's logical clock as a function of its hardware clock.
  virtual double logical_clock(double hw_now) const = 0;

  // True while the node wants to advance beyond its hardware rate
  // (Algorithm 2's fast mode).
  virtual bool fast_mode() const = 0;
};

}  // namespace gcs::oracle

#endif  // GCS_ORACLE_NODE_AUTOMATON_HPP
