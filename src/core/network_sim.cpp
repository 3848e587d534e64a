#include "core/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dcsa_columns.hpp"

namespace gcs::core {

namespace {

// splitmix64-style mix for the per-node delay RNG streams (sharded
// mode): same recipe the campaign layer uses for per-cell seeds, so
// stream quality matches what the repo already relies on.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t node) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (node + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

// The DeliverySink pair: stats, traces, and conformance checks land at
// exactly the points the old per-node delivery path emitted them, so
// the store refactor cannot move a byte in any artifact.

struct NetworkSimulation::ClassicSink : DeliverySink {
  explicit ClassicSink(NetworkSimulation* s) : sim(s) {}
  NetworkSimulation* sim;

  void before(const StoreDelivery& d) override {
    ++sim->stats_.messages_delivered;
    if (sim->trace_) {
      sim->recorder_->on_trace({obs::TraceEvent::Kind::kDeliver, d.now, d.from,
                                d.to, d.value, 0.0, false});
    }
  }

  void after(const StoreDelivery& d, double jump) override {
    if (jump > 0.0) {
      ++sim->stats_.jumps;
      sim->stats_.total_jump += jump;
      if (sim->trace_) {
        sim->recorder_->on_trace({obs::TraceEvent::Kind::kJump, d.now, d.to,
                                  d.from, jump, 0.0, false});
      }
    }
    if (sim->options_.check_conformance) {
      sim->check_edge_conformance(net::Edge(d.from, d.to));
      const double logical = sim->store_->logical_clock(d.to, d.hw_now);
      if (logical < sim->last_logical_[d.to] - sim->options_.conformance_slack) {
        ++sim->stats_.conformance_monotonicity_failures;
      }
      sim->last_logical_[d.to] = logical;
    }
  }
};

struct NetworkSimulation::ShardedSink : DeliverySink {
  explicit ShardedSink(NetworkSimulation* s) : sim(s) {}
  NetworkSimulation* sim;

  void before(const StoreDelivery& d) override {
    const std::size_t ctx = sim->shard_of_[d.to];
    ++sim->shard_counters_[ctx].messages_delivered;
    if (sim->trace_) {
      sim->push_trace(ctx, d.to, {obs::TraceEvent::Kind::kDeliver, d.now,
                                  d.from, d.to, d.value, 0.0, false});
    }
  }

  void after(const StoreDelivery& d, double jump) override {
    const std::size_t ctx = sim->shard_of_[d.to];
    if (jump > 0.0) {
      ++sim->shard_counters_[ctx].jumps;
      sim->node_jump_[d.to] += jump;
      if (sim->trace_) {
        sim->push_trace(ctx, d.to, {obs::TraceEvent::Kind::kJump, d.now, d.to,
                                    d.from, jump, 0.0, false});
      }
    }
    if (sim->options_.check_conformance) {
      // Envelope conformance compares BOTH endpoints' clocks, which a
      // shard may not read mid-window; sharded runs audit the envelope
      // through the harness sampler at barriers instead, so the per-
      // delivery check is skipped for EVERY shard count (keeping the
      // counters K-invariant).  Monotonicity is target-local and stays on.
      const double logical = sim->store_->logical_clock(d.to, d.hw_now);
      if (logical < sim->last_logical_[d.to] - sim->options_.conformance_slack) {
        ++sim->shard_counters_[ctx].monotonicity_failures;
      }
      sim->last_logical_[d.to] = logical;
    }
  }
};

NetworkSimulation::NetworkSimulation(const SyncParams& params,
                                     net::DynamicGraph graph,
                                     net::LinkModel link,
                                     std::vector<clk::RateSchedule> schedules,
                                     SimOptions options)
    : NetworkSimulation(params, std::move(graph), std::move(link),
                        std::move(schedules), nullptr, options) {}

NetworkSimulation::NetworkSimulation(const SyncParams& params,
                                     net::DynamicGraph graph,
                                     net::LinkModel link,
                                     std::vector<clk::RateSchedule> schedules,
                                     std::unique_ptr<NodeStore> store,
                                     SimOptions options)
    : params_(params),
      bfunc_(params),
      link_(std::move(link)),
      options_(options),
      recorder_(options.recorder),
      trace_(options.recorder != nullptr && options.recorder->wants_trace()),
      rng_(options.seed),
      audit_sweep_(graph.initial_edges(), graph.events(),
                   params.T + params.D),
      engine_(options.engine_policy) {
  const std::size_t n = graph.n();
  if (schedules.size() != n) {
    throw std::invalid_argument(
        "NetworkSimulation: one RateSchedule per node required");
  }
  if (!link_.prop.sample) {
    throw std::invalid_argument("NetworkSimulation: delay model has no sampler");
  }
  clocks_.reserve(n);
  for (auto& s : schedules) clocks_.emplace_back(std::move(s));
  store_ = store ? std::move(store)
                 : std::make_unique<DcsaColumns>(params_, n);
  if (store_->size() != n) {
    throw std::invalid_argument(
        "NetworkSimulation: node store size disagrees with the graph");
  }
  for (std::size_t i = 0; i < n; ++i) {
    store_->start(NodeContext{static_cast<NodeId>(i),
                              clocks_[i].value_at(0.0), 0.0});
  }
  adjacency_.assign(n, {});
  last_logical_.assign(n, 0.0);

  if (options_.shards > 0) {
    if (options_.shards > 256) {
      throw std::invalid_argument(
          "NetworkSimulation: shards capped at 256 (one thread per shard)");
    }
    if (!(link_.prop.floor > 0.0)) {
      throw std::invalid_argument(
          "NetworkSimulation: sharded mode needs a delay model with a "
          "positive floor (the conservative lookahead window); use a "
          "constant delay or a uniform one with lo > 0");
    }
    if (link_.prop.floor > link_.prop.bound) {
      throw std::invalid_argument(
          "NetworkSimulation: delay floor exceeds its bound");
    }
    const std::size_t k = std::min<std::size_t>(options_.shards, n);
    // The lookahead window is the PROPAGATION floor even with a traffic
    // pipeline configured: queueing only adds delay on top of the
    // propagation draw, so total >= prop >= floor and the barrier-merge
    // contract holds under any load (see the class comment).
    sharded_ = std::make_unique<sim::ShardedEngine>(k, link_.prop.floor,
                                                    options_.engine_policy);
    shard_of_.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
      // Contiguous blocks, a function of (u, k, n) only -- never of the
      // run -- so the partition is reproducible from the config alone.
      shard_of_[u] = static_cast<std::uint32_t>(u * k / n);
    }
    node_rngs_.reserve(n);
    for (std::size_t u = 0; u < n; ++u) {
      node_rngs_.emplace_back(mix_seed(options_.seed, u));
    }
    node_msg_index_.assign(n, 0);
    shard_counters_.assign(k + 1, ShardCounters{});
    node_jump_.assign(n, 0.0);
    node_sync_delay_.assign(n, 0.0);
    if (trace_) {
      trace_bufs_.resize(k + 1);
      node_trace_seq_.assign(n, 0);
    }
  }

  edges_.reserve(graph.initial_edges().size() * 2 + 16);
  for (const net::Edge& e : graph.initial_edges()) add_edge(e, 0.0, true);
  for (const net::TopologyEvent& ev : graph.events()) {
    if (sharded_) {
      sharded_->at_global(ev.at, [this, ev] { apply_event(ev); });
    } else {
      engine_.at(ev.at, [this, ev] { apply_event(ev); });
    }
  }

  // Broadcast phases are staggered across the first delta_h so that
  // same-timestamp broadcast storms don't depend on node order.
  next_broadcast_hw_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    next_broadcast_hw_[i] =
        params_.delta_h * (static_cast<double>(i + 1) / static_cast<double>(n));
    schedule_broadcast(static_cast<NodeId>(i));
  }
}

void NetworkSimulation::run_until(sim::Time t) {
  if (sharded_) {
    sharded_->run_until(t);
    flush_sharded_trace();
    if (sharded_->clamped_count() > 0) {
      stats_.first_clamped_time = sharded_->first_clamped_time();
      stats_.first_clamped_seq = sharded_->first_clamped_seq();
    }
  } else {
    engine_.run_until(t);
    if (engine_.clamped_count() > 0) {
      stats_.first_clamped_time = engine_.first_clamped_time();
      stats_.first_clamped_seq = engine_.first_clamped_seq();
    }
  }
  // Audit the paper's standing assumption over the (T+D)-windows newly
  // completed by this call; the sweep's delta cursor makes repeated
  // incremental run_until calls cost one schedule pass in total, and
  // the set-range is_connected avoids materializing each union.
  while (audit_sweep_.next(now())) {
    ++stats_.connectivity_windows_checked;
    if (!net::is_connected(store_->size(), audit_sweep_.window_union())) {
      ++stats_.connectivity_windows_disconnected;
    }
  }
}

sim::PeriodicId NetworkSimulation::schedule_periodic(
    sim::Time start, sim::Duration period, std::function<void(sim::Time)> fn) {
  // Samplers may read any node's state, so in sharded mode they are
  // globals: they fire at barriers with every shard parked.
  if (sharded_) return sharded_->every_global(start, period, std::move(fn));
  return engine_.every(start, period, std::move(fn));
}

void NetworkSimulation::cancel_periodic(sim::PeriodicId id) {
  if (sharded_) {
    sharded_->cancel_every_global(id);
    return;
  }
  engine_.cancel_every(id);
}

double NetworkSimulation::logical_clock(NodeId u) const {
  return store_->logical_clock(u, clocks_[u].value_at(now()));
}

double NetworkSimulation::hardware_clock(NodeId u) const {
  return clocks_[u].value_at(now());
}

double NetworkSimulation::skew(NodeId u, NodeId v) const {
  return logical_clock(u) - logical_clock(v);
}

void NetworkSimulation::sample_clocks(std::vector<double>& hw,
                                      std::vector<double>& logical) const {
  const std::size_t n = store_->size();
  hw.resize(n);
  logical.resize(n);
  const sim::Time t = now();
  for (std::size_t i = 0; i < n; ++i) hw[i] = clocks_[i].value_at(t);
  store_->advance(hw.data(), logical.data(), n);
}

std::vector<net::Edge> NetworkSimulation::current_edges() const {
  std::vector<net::Edge> out;
  out.reserve(edges_.size());
  for (const auto& [key, state] : edges_) {
    (void)state;
    out.emplace_back(static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xFFFFFFFFu));
  }
  std::sort(out.begin(), out.end());  // hash order is not deterministic
  return out;
}

double NetworkSimulation::edge_age(const net::Edge& e) const {
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end()) return -1.0;
  return now() - it->second.up_time;
}

double NetworkSimulation::max_queue_backlog() const {
  const net::TrafficModel& m = link_.traffic;
  if (!m.pipeline_active() || m.bandwidth <= 0.0) return 0.0;
  const sim::Time t = now();
  double worst = 0.0;  // residual busy time; max commutes, hash order ok
  for (const auto& [key, state] : edges_) {
    (void)key;
    worst = std::max(worst, state.dir[0].busy_until - t);
    worst = std::max(worst, state.dir[1].busy_until - t);
  }
  return std::max(0.0, worst) * m.bandwidth;
}

void NetworkSimulation::apply_event(const net::TopologyEvent& ev) {
  ++stats_.topology_events_applied;
  const sim::Time t = now();
  if (trace_) {
    const obs::TraceEvent record{obs::TraceEvent::Kind::kTopology, t,
                                 ev.edge.u, ev.edge.v, 0.0, 0.0, ev.add};
    if (sharded_) {
      trace_bufs_[sharded_->global_ctx()].push_back(
          PendingTrace{record, 0, global_trace_seq_++, true});
    } else {
      recorder_->on_trace(record);
    }
  }
  if (ev.add) {
    add_edge(ev.edge, t, false);
  } else {
    remove_edge(ev.edge, t);
  }
}

void NetworkSimulation::add_edge(const net::Edge& e, sim::Time t,
                                 bool initial) {
  if (edges_.count(edge_key(e))) return;  // redundant add
  edges_[edge_key(e)] = EdgeState{t, ++next_incarnation_, {}};
  adjacency_[e.u].push_back(e.v);
  adjacency_[e.v].push_back(e.u);
  const double hw_u = clocks_[e.u].value_at(t);
  const double hw_v = clocks_[e.v].value_at(t);
  store_->edge_up(NodeContext{e.u, hw_u, t}, e.v);
  store_->edge_up(NodeContext{e.v, hw_v, t}, e.u);
  if (!initial) {
    // Discovery exchange: both endpoints immediately send their clocks on
    // the new edge, so it carries an estimate within one delay bound.
    if (sharded_) {
      // Topology deltas run in the global context (shards parked), so
      // reading either endpoint's clock here is safe for any partition.
      const std::size_t ctx = sharded_->global_ctx();
      send_sharded(ctx, e.u, e.v, store_->logical_clock(e.u, hw_u), t);
      send_sharded(ctx, e.v, e.u, store_->logical_clock(e.v, hw_v), t);
    } else {
      send(e.u, e.v, store_->logical_clock(e.u, hw_u), t);
      send(e.v, e.u, store_->logical_clock(e.v, hw_v), t);
      flush_outbox();
    }
  }
  // Background flows ride every edge incarnation, initial ones included;
  // they stop by themselves when this incarnation dies.
  start_flows(e, edges_[edge_key(e)].incarnation, t);
}

void NetworkSimulation::remove_edge(const net::Edge& e, sim::Time t) {
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end()) return;  // redundant remove
  edges_.erase(it);
  auto drop = [](std::vector<NodeId>& v, NodeId x) {
    v.erase(std::remove(v.begin(), v.end(), x), v.end());
  };
  drop(adjacency_[e.u], e.v);
  drop(adjacency_[e.v], e.u);
  store_->edge_down(NodeContext{e.u, clocks_[e.u].value_at(t), t}, e.v);
  store_->edge_down(NodeContext{e.v, clocks_[e.v].value_at(t), t}, e.u);
}

void NetworkSimulation::schedule_broadcast(NodeId u) {
  const sim::Time when = clocks_[u].time_when(next_broadcast_hw_[u]);
  if (sharded_) {
    sharded_->at(shard_of_[u], when, [this, u] { broadcast(u); });
    return;
  }
  engine_.at(when, [this, u] { broadcast(u); });
}

void NetworkSimulation::broadcast(NodeId u) {
  if (sharded_) {
    // Runs on u's shard: u's clock, node state, and RNG are owner-local;
    // adjacency_ and edges_ only ever change at barriers, so reading
    // them mid-window is race-free.
    const sim::Time t = sharded_->shard_now(shard_of_[u]);
    const double value = store_->logical_clock(u, clocks_[u].value_at(t));
    for (NodeId v : adjacency_[u]) send_sharded(shard_of_[u], u, v, value, t);
    next_broadcast_hw_[u] += params_.delta_h;
    schedule_broadcast(u);
    return;
  }
  const sim::Time t = engine_.now();
  const double value = store_->logical_clock(u, clocks_[u].value_at(t));
  for (NodeId v : adjacency_[u]) send(u, v, value, t);
  flush_outbox();
  next_broadcast_hw_[u] += params_.delta_h;
  schedule_broadcast(u);
}

void NetworkSimulation::send(NodeId from, NodeId to, double value,
                             sim::Time t) {
  const net::Edge e(from, to);
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end()) return;
  const std::uint64_t incarnation = it->second.incarnation;
  double d = link_.prop.sample(e, rng_);
  d = std::clamp(d, 1e-12, link_.prop.bound);  // the model promises delay <= T
  // Through the link pipeline: queue wait + transmission time on top of
  // the propagation draw (bit-exactly d when no finite bandwidth is
  // configured).  Sync messages are never queue-dropped -- their
  // latency saturates at the bound instead, preserving the delay <= T
  // assumption the proofs rest on.
  d = sync_link_delay(it->second, from, to, t, d, stats_.ecn_marks,
                      stats_.peak_queue_bytes);
  stats_.sync_delay_sum += d;
  stats_.sync_delay_max = std::max(stats_.sync_delay_max, d);
  ++stats_.messages_sent;
  if (trace_) {
    recorder_->on_trace(
        {obs::TraceEvent::Kind::kSend, t, from, to, value, t + d, false});
  }
  if (!options_.batched_delivery) {
    ++stats_.delivery_events;
    engine_.at(t + d, [this, from, to, value, incarnation] {
      deliver(from, to, value, incarnation);
    });
    return;
  }
  // Stage for the flush; delays are sampled per receiver in send order
  // either way, so the two modes draw identical randomness.
  outbox_.emplace_back(t + d, Delivery{from, to, value, incarnation});
}

void NetworkSimulation::flush_outbox() {
  if (outbox_.empty()) return;
  // Group by exact delivery instant.  The sort is stable so same-instant
  // messages keep their send order -- that, plus the fact that distinct
  // instants are ordered by time regardless of seq, is what makes
  // batched delivery trajectory-identical to per-receiver mode.
  std::stable_sort(
      outbox_.begin(), outbox_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < outbox_.size();) {
    std::size_t j = i + 1;
    while (j < outbox_.size() && outbox_[j].first == outbox_[i].first) ++j;
    ++stats_.delivery_events;
    if (j == i + 1) {
      // Uncoalesced instant (the common case under continuous delay
      // distributions): skip the batch vector, schedule the delivery
      // directly -- same cost as per-receiver mode.
      const Delivery d = outbox_[i].second;
      engine_.at(outbox_[i].first,
                 [this, d] { deliver(d.from, d.to, d.value, d.incarnation); });
    } else {
      std::vector<Delivery> batch;
      batch.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) batch.push_back(outbox_[k].second);
      engine_.at(outbox_[i].first, [this, batch = std::move(batch)] {
        deliver_batch(batch);
      });
    }
    i = j;
  }
  outbox_.clear();
}

void NetworkSimulation::deliver(NodeId from, NodeId to, double value,
                                std::uint64_t incarnation) {
  const net::Edge e(from, to);
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end() || it->second.incarnation != incarnation) {
    ++stats_.messages_dropped;
    if (trace_) {
      recorder_->on_trace({obs::TraceEvent::Kind::kDrop, engine_.now(), from,
                           to, value, 0.0, false});
    }
    return;
  }
  const sim::Time t = engine_.now();
  const StoreDelivery d{from, to, value, clocks_[to].value_at(t), t};
  ClassicSink sink(this);
  store_->on_deliveries(&d, 1, sink);
}

void NetworkSimulation::deliver_batch(const std::vector<Delivery>& batch) {
  const sim::Time t = engine_.now();
  ClassicSink sink(this);
  scratch_.clear();
  const auto flush = [&] {
    if (scratch_.empty()) return;
    store_->on_deliveries(scratch_.data(), scratch_.size(), sink);
    scratch_.clear();
  };
  for (const Delivery& m : batch) {
    const auto it = edges_.find(edge_key(net::Edge(m.from, m.to)));
    if (it == edges_.end() || it->second.incarnation != m.incarnation) {
      // Emit the drop at its original position in the batch: flush the
      // accepted run so far, then count/trace the drop.
      flush();
      ++stats_.messages_dropped;
      if (trace_) {
        recorder_->on_trace({obs::TraceEvent::Kind::kDrop, t, m.from, m.to,
                             m.value, 0.0, false});
      }
      continue;
    }
    scratch_.push_back(
        StoreDelivery{m.from, m.to, m.value, clocks_[m.to].value_at(t), t});
  }
  flush();
}

void NetworkSimulation::send_sharded(std::size_t ctx, NodeId from, NodeId to,
                                     double value, sim::Time t) {
  const net::Edge e(from, to);
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end()) return;
  const std::uint64_t incarnation = it->second.incarnation;
  double d = link_.prop.sample(e, node_rngs_[from]);
  // The clamp enforces BOTH halves of the delay contract: <= bound (the
  // algorithm's assumption) and >= floor (the lookahead the barrier
  // windows rest on), so a misbehaving sampler cannot smuggle an event
  // into the current window.
  d = std::clamp(d, link_.prop.floor, link_.prop.bound);
  ShardCounters& counters = shard_counters_[ctx];
  // The pipeline only ADDS delay above the propagation draw (and the
  // result clamps to [d, bound]), so the lookahead contract above
  // survives any traffic model.  Direction state is written from the
  // sender's context only (this shard, or the coordinator at barriers),
  // so no lock is needed.
  d = sync_link_delay(it->second, from, to, t, d, counters.ecn_marks,
                      counters.peak_queue_bytes);
  node_sync_delay_[from] += d;
  counters.sync_delay_max = std::max(counters.sync_delay_max, d);
  ++counters.messages_sent;
  ++counters.delivery_events;  // sharded mode: one event per message
  if (trace_) {
    push_trace(ctx, from,
               {obs::TraceEvent::Kind::kSend, t, from, to, value, t + d, false});
  }
  sharded_->post(ctx, shard_of_[to], t + d,
                 sim::PostKey{t, from, node_msg_index_[from]++},
                 [this, from, to, value, incarnation] {
                   deliver_sharded(from, to, value, incarnation);
                 });
}

void NetworkSimulation::deliver_sharded(NodeId from, NodeId to, double value,
                                        std::uint64_t incarnation) {
  const std::size_t ctx = shard_of_[to];
  const sim::Time t = sharded_->shard_now(ctx);
  const net::Edge e(from, to);
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end() || it->second.incarnation != incarnation) {
    ++shard_counters_[ctx].messages_dropped;
    if (trace_) {
      push_trace(ctx, to,
                 {obs::TraceEvent::Kind::kDrop, t, from, to, value, 0.0, false});
    }
    return;
  }
  const StoreDelivery d{from, to, value, clocks_[to].value_at(t), t};
  ShardedSink sink(this);
  store_->on_deliveries(&d, 1, sink);
}

double NetworkSimulation::sync_link_delay(EdgeState& state, NodeId from,
                                          NodeId to, sim::Time t, double d_prop,
                                          std::uint64_t& ecn_marks,
                                          std::uint64_t& peak_queue_bytes) {
  const net::TrafficModel& m = link_.traffic;
  // The early return IS the ideal-link degeneration: with no finite
  // bandwidth the propagation draw passes through untouched, so "off"
  // and infinite-bandwidth "idle" produce identical bytes (the
  // link-equivalence matrix holds this door shut).
  if (!m.pipeline_active() || m.bandwidth <= 0.0) return d_prop;
  net::LinkDecision dec = net::link_offer(m, state.dir[dir_index(from, to)], t,
                                          m.sync_bytes, /*droppable=*/false);
  if (dec.marked) ++ecn_marks;
  peak_queue_bytes = std::max(
      peak_queue_bytes, static_cast<std::uint64_t>(dec.backlog_bytes));
  return std::min(dec.wait + dec.tx + d_prop, link_.prop.bound);
}

void NetworkSimulation::start_flows(const net::Edge& e,
                                    std::uint64_t incarnation, sim::Time t) {
  if (!link_.traffic.has_flows()) return;
  const double period = link_.traffic.flow_period();
  const std::uint64_t key = edge_key(e);
  const NodeId ends[2][2] = {{e.u, e.v}, {e.v, e.u}};
  for (int i = 0; i < 2; ++i) {
    const NodeId from = ends[i][0];
    const NodeId to = ends[i][1];
    // Stable per-direction phase in (0, 1) periods: staggers flow starts
    // across links without drawing randomness.
    const sim::Time first =
        t + period * net::flow_phase(2 * key + static_cast<std::uint64_t>(i));
    auto fn = [this, from, to, incarnation] { flow_emit(from, to, incarnation); };
    if (sharded_) {
      // add_edge runs at barriers (or in the constructor) with every
      // shard parked, exactly the context ShardedEngine::at allows.
      sharded_->at(shard_of_[from], first, std::move(fn));
    } else {
      engine_.at(first, std::move(fn));
    }
  }
}

void NetworkSimulation::flow_emit(NodeId from, NodeId to,
                                  std::uint64_t incarnation) {
  const net::Edge e(from, to);
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end() || it->second.incarnation != incarnation) {
    return;  // the edge (incarnation) died; the flow dies with it
  }
  const sim::Time t =
      sharded_ ? sharded_->shard_now(shard_of_[from]) : engine_.now();
  const net::LinkDecision dec =
      net::link_offer(link_.traffic, it->second.dir[dir_index(from, to)], t,
                      link_.traffic.flow_bytes(), link_.traffic.flow_droppable());
  if (sharded_) {
    ShardCounters& c = shard_counters_[shard_of_[from]];
    ++c.traffic_packets;
    if (dec.dropped) ++c.traffic_dropped;
    if (dec.marked) ++c.ecn_marks;
    c.peak_queue_bytes = std::max(
        c.peak_queue_bytes, static_cast<std::uint64_t>(dec.backlog_bytes));
  } else {
    ++stats_.traffic_packets;
    if (dec.dropped) ++stats_.traffic_dropped;
    if (dec.marked) ++stats_.ecn_marks;
    stats_.peak_queue_bytes = std::max(
        stats_.peak_queue_bytes, static_cast<std::uint64_t>(dec.backlog_bytes));
  }
  const sim::Time next = t + link_.traffic.flow_period();
  auto fn = [this, from, to, incarnation] { flow_emit(from, to, incarnation); };
  if (sharded_) {
    sharded_->at(shard_of_[from], next, std::move(fn));
  } else {
    engine_.at(next, std::move(fn));
  }
}

void NetworkSimulation::push_trace(std::size_t ctx, NodeId node,
                                   const obs::TraceEvent& ev) {
  trace_bufs_[ctx].push_back(
      PendingTrace{ev, node, node_trace_seq_[node]++, false});
}

void NetworkSimulation::flush_sharded_trace() {
  if (!trace_) return;
  std::size_t total = 0;
  for (const std::vector<PendingTrace>& buf : trace_bufs_) total += buf.size();
  if (total == 0) return;
  std::vector<PendingTrace> merged;
  merged.reserve(total);
  for (std::vector<PendingTrace>& buf : trace_bufs_) {
    merged.insert(merged.end(), buf.begin(), buf.end());
    buf.clear();
  }
  // The canonical emission order (see PendingTrace): this reproduces the
  // sequence a single-threaded sharded run interleaves naturally --
  // same-time records order globals first, then by node, then by that
  // node's own emission order -- so the recorder sees identical streams
  // for every shard count.
  std::sort(merged.begin(), merged.end(),
            [](const PendingTrace& a, const PendingTrace& b) {
              if (a.ev.t != b.ev.t) return a.ev.t < b.ev.t;
              if (a.global != b.global) return a.global;
              if (a.node != b.node) return a.node < b.node;
              return a.seq < b.seq;
            });
  for (const PendingTrace& p : merged) recorder_->on_trace(p.ev);
}

const RunStats& NetworkSimulation::stats() const {
  if (sharded_) compose_run_stats();
  stats_.arena_bytes = store_->arena_bytes();
  return stats_;
}

void NetworkSimulation::compose_run_stats() const {
  stats_.messages_sent = 0;
  stats_.messages_delivered = 0;
  stats_.messages_dropped = 0;
  stats_.delivery_events = 0;
  stats_.jumps = 0;
  stats_.conformance_monotonicity_failures = 0;
  stats_.traffic_packets = 0;
  stats_.traffic_dropped = 0;
  stats_.ecn_marks = 0;
  stats_.peak_queue_bytes = 0;
  stats_.sync_delay_max = 0.0;
  for (const ShardCounters& c : shard_counters_) {
    stats_.messages_sent += c.messages_sent;
    stats_.messages_delivered += c.messages_delivered;
    stats_.messages_dropped += c.messages_dropped;
    stats_.delivery_events += c.delivery_events;
    stats_.jumps += c.jumps;
    stats_.conformance_monotonicity_failures += c.monotonicity_failures;
    stats_.traffic_packets += c.traffic_packets;
    stats_.traffic_dropped += c.traffic_dropped;
    stats_.ecn_marks += c.ecn_marks;
    // max folds commute, so these two stay K-invariant without any
    // per-node bookkeeping.
    stats_.peak_queue_bytes = std::max(stats_.peak_queue_bytes,
                                       c.peak_queue_bytes);
    stats_.sync_delay_max = std::max(stats_.sync_delay_max, c.sync_delay_max);
  }
  stats_.total_jump = 0.0;
  for (const double jump : node_jump_) stats_.total_jump += jump;
  // Like total_jump: per-sender sums folded in node order keep the float
  // addition order -- and the serialized double -- shard-count-invariant.
  stats_.sync_delay_sum = 0.0;
  for (const double d : node_sync_delay_) stats_.sync_delay_sum += d;
  // Per-delivery envelope checks are barrier-audited in sharded mode
  // (see ShardedSink::after); these stay zero for every shard count.
  stats_.conformance_checks = 0;
  stats_.conformance_envelope_failures = 0;
}

void NetworkSimulation::check_edge_conformance(const net::Edge& e) {
  auto it = edges_.find(edge_key(e));
  if (it == edges_.end()) return;
  ++stats_.conformance_checks;
  // The node-side B runs on hardware ages, which an outside observer
  // cannot see exactly; the slowest admissible clock gives the youngest
  // age and hence the loosest envelope any conforming node could be
  // holding, so checking against it never reports a false violation.
  const double age_hw = (1.0 - params_.rho) * (engine_.now() - it->second.up_time);
  const double allowed = bfunc_(age_hw) + options_.conformance_slack;
  const double observed = std::abs(skew(e.u, e.v));
  const bool violated = observed > allowed;
  if (violated) {
    ++stats_.conformance_envelope_failures;
  }
  if (trace_) {
    recorder_->on_trace({obs::TraceEvent::Kind::kConformance, engine_.now(),
                         e.u, e.v, observed, allowed, violated});
  }
}

}  // namespace gcs::core
