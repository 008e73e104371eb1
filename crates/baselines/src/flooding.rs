//! The flooding / full-information baseline.

use std::collections::BTreeSet;

use selfsim_env::{AgentId, Environment};
use selfsim_runtime::{DeliveryDecision, Driver, ExecutionMode, Message, Tick};
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::aggregate;

/// A flooding aggregator: every agent keeps the set of `(agent, value)`
/// pairs it has heard of (initially just its own) and, every round,
/// re-broadcasts its whole knowledge to every neighbour it can currently
/// reach.  The run converges when *every* agent has heard from every other
/// agent, at which point each agent can compute the aggregate locally.
///
/// Flooding is robust to churn (knowledge spreads through whatever links
/// exist) but pays for it in message volume: each agent repeatedly sends its
/// entire knowledge set.  Experiment E7 compares its message cost against
/// the self-similar algorithms under identical environments.
pub struct FloodingAggregator {
    values: Vec<i64>,
    max_rounds: usize,
}

impl FloodingAggregator {
    /// Creates the baseline for the given initial values.
    pub fn new(values: Vec<i64>, max_rounds: usize) -> Self {
        FloodingAggregator { values, max_rounds }
    }

    /// Runs the baseline under `environment` in `mode`, aggregating with
    /// `fold` and emitting trace events into `events` (a disabled log costs
    /// one branch per would-be event).  Returns the metrics and the
    /// aggregate (if every agent heard from everyone within the budget).
    ///
    /// `Sync` and `Event` run rounds: every round, both endpoints of each
    /// usable edge send each other their whole knowledge set.  `Async` runs
    /// the message-passing model: every tick, each usable edge gossips
    /// with probability `interaction_rate` — both endpoints send a snapshot
    /// of their whole knowledge set, which is lost with probability
    /// `drop_rate` or arrives after a uniform `1..=max_latency` latency;
    /// the [`DeliveryRule`](selfsim_runtime::DeliveryRule) decides what
    /// happens when the pair can no longer communicate at the due tick
    /// (the same rule the self-similar async runtime applies, so
    /// cross-runtime comparisons stay apples-to-apples).
    pub fn run<E: Environment + ?Sized>(
        &self,
        environment: &mut E,
        seed: u64,
        mode: ExecutionMode,
        fold: impl FnMut(i64, i64) -> i64,
        events: &mut EventLog,
    ) -> (RunMetrics, Option<i64>) {
        struct Gossip {
            message: Message,
            payload: BTreeSet<usize>,
        }
        let n = self.values.len();
        let mut metrics = RunMetrics::new("flooding-baseline", environment.name(), n);
        // knowledge[a] = set of agent indices whose value agent a knows.
        let mut knowledge: Vec<BTreeSet<usize>> = (0..n).map(|i| BTreeSet::from([i])).collect();
        let mut pending: Vec<Gossip> = Vec::new();

        let body = |Tick {
                        tick,
                        rng,
                        connectivity,
                        topology,
                        metrics,
                        events,
                        ..
                    }: Tick<'_>| {
            match mode {
                ExecutionMode::Sync { .. } | ExecutionMode::Event { .. } => {
                    let before = knowledge.clone();
                    for edge in connectivity.usable_edges(topology) {
                        let (a, b) = (edge.lo().index(), edge.hi().index());
                        // Each endpoint sends its whole knowledge set to the
                        // other; message cost is proportional to the entries
                        // sent.
                        metrics.messages += before[a].len() + before[b].len();
                        metrics.group_steps += 1;
                        let merged: BTreeSet<usize> =
                            before[a].union(&before[b]).copied().collect();
                        let changed = merged != knowledge[a] || merged != knowledge[b];
                        if changed {
                            metrics.effective_group_steps += 1;
                        }
                        events.emit(|| TraceEvent::GroupStep {
                            tick: tick as u64,
                            size: 2,
                            changed,
                        });
                        knowledge[a].extend(merged.iter().copied());
                        knowledge[b].extend(merged.iter().copied());
                    }
                }
                ExecutionMode::Async(knobs) => {
                    // Messages are stamped with zero-based time.
                    let now = tick - 1;
                    for edge in connectivity.usable_edges(topology) {
                        if !knobs.initiates(rng) {
                            continue;
                        }
                        for (from, to) in [
                            (edge.lo().index(), edge.hi().index()),
                            (edge.hi().index(), edge.lo().index()),
                        ] {
                            // Message cost is in knowledge entries sent;
                            // drops are tracked in the same unit so the two
                            // stay comparable.
                            metrics.messages += knowledge[from].len();
                            match knobs.send(rng, now, from, to, events) {
                                Some(message) => pending.push(Gossip {
                                    message,
                                    payload: knowledge[from].clone(),
                                }),
                                None => metrics.messages_dropped += knowledge[from].len(),
                            }
                        }
                    }

                    // In-place drain (order-preserving): no per-tick
                    // reallocation of the undelivered queue.  Re-queued
                    // gossip moves to the back of the queue, which is still
                    // seed-deterministic.
                    let due: Vec<Gossip> = pending
                        .extract_if(.., |g| g.message.deliver_at <= now)
                        .collect();
                    for mut gossip in due {
                        let Message { from, to, .. } = gossip.message;
                        let usable_now =
                            connectivity.can_communicate(AgentId(from), AgentId(to), topology);
                        // The edge was usable at send time by construction.
                        match knobs.settle(
                            &mut gossip.message,
                            now,
                            usable_now,
                            true,
                            metrics,
                            events,
                        ) {
                            DeliveryDecision::Discard => continue,
                            DeliveryDecision::Requeue => {
                                pending.push(gossip);
                                continue;
                            }
                            DeliveryDecision::Deliver => {}
                        }
                        metrics.group_steps += 1;
                        let before = knowledge[to].len();
                        knowledge[to].extend(gossip.payload.iter().copied());
                        let changed = knowledge[to].len() > before;
                        if changed {
                            metrics.effective_group_steps += 1;
                        }
                        events.emit(|| TraceEvent::GroupStep {
                            tick: tick as u64,
                            size: 2,
                            changed,
                        });
                    }
                }
            }
            knowledge.iter().all(|k| k.len() == n)
        };
        let driver = Driver {
            seed,
            budget: self.max_rounds,
            cooldown: 0,
        };
        driver.run(environment, &mut metrics, events, body);
        let result = metrics.converged().then(|| aggregate(&self.values, fold));
        (metrics, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_env::{AdversarialEnv, PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology};
    use selfsim_runtime::{AsyncKnobs, DeliveryRule};

    fn asynchronous(
        interaction_rate: f64,
        max_latency: usize,
        drop_rate: f64,
        delivery: DeliveryRule,
    ) -> ExecutionMode {
        AsyncKnobs::new(interaction_rate, max_latency, drop_rate, delivery)
            .map(ExecutionMode::Async)
            .expect("valid knobs")
    }

    /// Runs `baseline` in `mode`, aggregating with `min`, without an event
    /// log.
    fn run_min(
        baseline: &FloodingAggregator,
        env: &mut dyn Environment,
        seed: u64,
        mode: ExecutionMode,
    ) -> (RunMetrics, Option<i64>) {
        baseline.run(env, seed, mode, i64::min, &mut EventLog::disabled())
    }

    #[test]
    fn flooding_converges_in_diameter_rounds_on_a_static_line() {
        let topo = Topology::line(5);
        let mut env = StaticEnv::new(topo);
        let baseline = FloodingAggregator::new(vec![9, 4, 7, 1, 5], 100);
        let (metrics, result) = run_min(&baseline, &mut env, 1, ExecutionMode::sync());
        assert_eq!(result, Some(1));
        // Knowledge spreads one hop per round: the line of 5 has diameter 4.
        assert_eq!(metrics.rounds_to_convergence, Some(4));
    }

    #[test]
    fn flooding_survives_churn() {
        let topo = Topology::ring(6);
        let mut env = RandomChurnEnv::new(topo, 0.4, 1.0);
        let baseline = FloodingAggregator::new(vec![6, 5, 4, 3, 2, 1], 2_000);
        let (metrics, result) = run_min(&baseline, &mut env, 7, ExecutionMode::sync());
        assert_eq!(result, Some(1));
        assert!(metrics.converged());
    }

    #[test]
    fn flooding_converges_under_the_adversary_unlike_the_snapshot() {
        let topo = Topology::complete(4);
        let mut env = AdversarialEnv::new(topo, 0);
        let baseline = FloodingAggregator::new(vec![4, 3, 2, 1], 500);
        let (metrics, result) = run_min(&baseline, &mut env, 3, ExecutionMode::sync());
        assert_eq!(result, Some(1));
        assert!(metrics.converged());
    }

    #[test]
    fn flooding_messages_grow_with_knowledge_size() {
        let topo = Topology::complete(6);
        let mut env = StaticEnv::new(topo.clone());
        let flooding = FloodingAggregator::new(vec![1, 2, 3, 4, 5, 6], 100);
        let (metrics, _) = run_min(&flooding, &mut env, 5, ExecutionMode::sync());
        // Full flooding on a complete graph: at least one entry per edge per
        // round, typically far more.
        assert!(metrics.messages > topo.edge_count());
    }

    #[test]
    fn async_flooding_converges_on_a_static_line() {
        let topo = Topology::line(5);
        let mut env = StaticEnv::new(topo);
        let baseline = FloodingAggregator::new(vec![9, 4, 7, 1, 5], 2_000);
        let (metrics, result) = run_min(
            &baseline,
            &mut env,
            1,
            asynchronous(1.0, 1, 0.0, DeliveryRule::default()),
        );
        assert_eq!(result, Some(1));
        assert!(metrics.converged());
        assert_eq!(metrics.messages_dropped, 0, "drop_rate 0 drops nothing");
    }

    #[test]
    fn async_flooding_survives_drops_and_latency() {
        let topo = Topology::ring(6);
        let mut env = RandomChurnEnv::new(topo, 0.5, 1.0);
        let baseline = FloodingAggregator::new(vec![6, 5, 4, 3, 2, 1], 20_000);
        let (metrics, result) = run_min(
            &baseline,
            &mut env,
            7,
            asynchronous(0.5, 3, 0.3, DeliveryRule::default()),
        );
        assert_eq!(result, Some(1));
        assert!(metrics.converged());
        assert!(metrics.messages_dropped > 0);
        assert!(metrics.messages_dropped <= metrics.messages);
    }

    #[test]
    fn async_flooding_is_seed_deterministic_under_every_rule() {
        for rule in DeliveryRule::all() {
            let run = || {
                let mut env = RandomChurnEnv::new(Topology::ring(5), 0.6, 1.0);
                run_min(
                    &FloodingAggregator::new(vec![5, 4, 3, 2, 1], 10_000),
                    &mut env,
                    13,
                    asynchronous(0.5, 2, 0.2, rule),
                )
            };
            let (a_metrics, a_result) = run();
            let (b_metrics, b_result) = run();
            assert_eq!(a_metrics, b_metrics, "{}", rule.label());
            assert_eq!(a_result, b_result, "{}", rule.label());
        }
    }

    #[test]
    fn delivery_rule_decides_the_periodic_partition_stall() {
        // Single-tick merges, latency 3: every cross-block gossip is due
        // in a partitioned phase.  The historical rule discards them all,
        // so knowledge never crosses blocks; valid-at-send and a
        // window-aware grace both restore convergence from the same seed.
        let run = |rule: DeliveryRule| {
            let mut env = PeriodicPartitionEnv::new(Topology::complete(6), 2, 8);
            run_min(
                &FloodingAggregator::new(vec![6, 5, 4, 3, 2, 1], 2_000),
                &mut env,
                3,
                asynchronous(0.5, 3, 0.0, rule),
            )
        };
        let (stalled, no_result) = run(DeliveryRule::ValidAtDelivery);
        assert_eq!(no_result, None);
        assert!(!stalled.converged(), "short merge windows must stall");
        for rule in [DeliveryRule::ValidAtSend, DeliveryRule::any_overlap()] {
            let (metrics, result) = run(rule);
            assert_eq!(result, Some(1), "{}", rule.label());
            assert!(metrics.converged(), "{}", rule.label());
        }
    }

    #[test]
    fn impossible_environment_exhausts_budget() {
        let topo = Topology::line(3);
        let mut env = RandomChurnEnv::new(topo, 0.0, 0.0);
        let baseline = FloodingAggregator::new(vec![3, 2, 1], 50);
        let (metrics, result) = run_min(&baseline, &mut env, 9, ExecutionMode::sync());
        assert_eq!(result, None);
        assert!(!metrics.converged());
        assert_eq!(metrics.rounds_executed, 50);
    }
}
