// gcs::core -- NodeStore: the batch-oriented node-state interface the
// simulator drives directly.
//
// NetworkSimulation's hot path no longer calls one virtual per node per
// event.  It hands the store whole delivery batches (on_deliveries) and
// whole-population clock reads (advance); the store applies the DCSA
// input/step rules record by record, calling back through a DeliverySink
// around each record so the simulator can emit traces, statistics, and
// conformance checks at EXACTLY the points the per-node path emitted
// them.  Trajectory bytes are the contract: a store must apply records
// in batch order, and the per-record arithmetic must match the per-node
// oracle's (tests/oracle/dcsa_node.hpp).
//
// The production implementation is DcsaColumns (dcsa_columns.hpp): flat
// struct-of-arrays state running Algorithm 2 or one of its ablation
// rules.  NetworkSimulation takes any store through its NodeStore
// constructor, which is how tests and benches drive the per-node oracle
// store in lockstep with the columns.
#ifndef GCS_CORE_NODE_STORE_HPP
#define GCS_CORE_NODE_STORE_HPP

#include <cstddef>

#include "net/topology.hpp"

namespace gcs::core {

using NodeId = net::NodeId;

// The unified callback argument: who is being driven, what its hardware
// clock reads, and when (simulation time) the reading was taken.  Node
// state never sees real time, exactly as in the paper's model: `now` is
// for observability only, and a conforming store must not branch on it.
struct NodeContext {
  NodeId self = 0;
  double hw_now = 0.0;  // the node's own hardware-clock reading
  double now = 0.0;     // simulation time of the reading (diagnostic)
};

// One message record in a delivery batch.  The simulator resolves the
// receiver's hardware clock before handing the batch over, so stores
// never touch clocks.
struct StoreDelivery {
  NodeId from = 0;
  NodeId to = 0;
  double value = 0.0;   // sender's logical clock, sampled at send time
  double hw_now = 0.0;  // receiver's hardware clock at delivery
  double now = 0.0;     // simulation time of delivery
};

// Order-preserving hooks around each record of a batch: before() fires
// ahead of the record's on_message (where the kDeliver trace goes),
// after() fires once its step() ran, carrying the jump applied (where
// jump statistics and conformance checks go).
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void before(const StoreDelivery& d) = 0;
  virtual void after(const StoreDelivery& d, double jump) = 0;
};

class NodeStore {
 public:
  virtual ~NodeStore() = default;

  virtual std::size_t size() const = 0;

  // Lifecycle + topology inputs (always delivered through the
  // simulator's barrier/global context, never concurrently).
  virtual void start(const NodeContext& ctx) = 0;
  virtual void edge_up(const NodeContext& ctx, NodeId peer) = 0;
  virtual void edge_down(const NodeContext& ctx, NodeId peer) = 0;

  // Apply `count` delivery records IN ORDER: for each record, call
  // sink.before(d), run the receiver's on_message + step, then call
  // sink.after(d, jump).  Records for distinct receivers may be driven
  // concurrently by different shards, but never two records for the
  // same receiver.
  virtual void on_deliveries(const StoreDelivery* batch, std::size_t count,
                             DeliverySink& sink) = 0;

  // Whole-population logical-clock read: logical[i] = L_i(hw_now[i]) for
  // all `count == size()` nodes.  Pure -- state between inputs is a
  // clock free-running at hardware rate, so advancing it is a read.
  virtual void advance(const double* hw_now, double* logical,
                       std::size_t count) const = 0;

  virtual double logical_clock(NodeId u, double hw_now) const = 0;
  virtual bool fast_mode(NodeId u) const = 0;

  // Bytes of node/peer state held in the store's flat arenas (0 for a
  // store whose state hides behind per-node heap objects); surfaces in
  // RunStats::arena_bytes so memory regressions are diffable.
  virtual std::size_t arena_bytes() const = 0;
};

}  // namespace gcs::core

#endif  // GCS_CORE_NODE_STORE_HPP
