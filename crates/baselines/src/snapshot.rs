//! The repeated-global-snapshot baseline.

use selfsim_env::Environment;
use selfsim_runtime::{DeliveryDecision, Driver, ExecutionMode, Message, Tick};
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::aggregate;

/// A coordinator-based aggregator: agent 0 repeatedly attempts to take a
/// global snapshot of all values.  A snapshot attempt in a given round
/// succeeds only if the coordinator can reach every agent through currently
/// enabled edges and enabled agents (i.e. the whole system is in one group
/// containing everyone).
///
/// This models the "repeated global snapshots" strategy of §5 at the level
/// of abstraction of this reproduction: it is exactly as powerful as the
/// environment allows a centralised protocol to be, and it fails to make
/// *any* progress in rounds where the system is partitioned — which is the
/// behaviour the self-similar algorithms are designed to avoid.
pub struct SnapshotAggregator {
    values: Vec<i64>,
    max_rounds: usize,
}

impl SnapshotAggregator {
    /// Creates the baseline for the given initial values.
    pub fn new(values: Vec<i64>, max_rounds: usize) -> Self {
        SnapshotAggregator { values, max_rounds }
    }

    /// Runs the baseline under `environment` in `mode`, aggregating with
    /// `fold` (e.g. `min`, `+`) and emitting trace events into `events` (a
    /// disabled log costs one branch per would-be event).  Returns the
    /// metrics and the aggregate (if a snapshot ever succeeded).
    ///
    /// `Sync` and `Event` run rounds: every round the coordinator sends one
    /// request per remote agent, and the round succeeds when it reaches
    /// them all.  `Async` runs the message-passing model: every tick the
    /// coordinator launches, with probability `interaction_rate`, a
    /// snapshot attempt of one probe per remote agent.  Each probe is lost
    /// with probability `drop_rate` or delivered after a uniform
    /// `1..=max_latency` latency.  The snapshot's connectivity condition is
    /// full (multi-hop) reachability of every agent from the coordinator;
    /// the [`DeliveryRule`](selfsim_runtime::DeliveryRule) decides *when*
    /// that condition must hold — at the probe's delivery tick (the
    /// historical `ValidAtDelivery`), at its send tick (`ValidAtSend`), or
    /// at any tick of the probe's grace window (`AnyOverlap`, re-queueing
    /// blocked probes).  An attempt succeeds when all of its probes
    /// succeed; an attempt with no remote agent succeeds at its launch
    /// tick.
    pub fn run<E: Environment + ?Sized>(
        &self,
        environment: &mut E,
        seed: u64,
        mode: ExecutionMode,
        fold: impl FnMut(i64, i64) -> i64,
        events: &mut EventLog,
    ) -> (RunMetrics, Option<i64>) {
        struct Probe {
            message: Message,
            reachable_at_send: bool,
            attempt: usize,
        }
        let n = self.values.len();
        let mut metrics = RunMetrics::new("snapshot-baseline", environment.name(), n);
        // outstanding probes / already-failed flag, per launched attempt.
        let mut attempts: Vec<(usize, bool)> = Vec::new();
        let mut pending: Vec<Probe> = Vec::new();

        let body = |Tick {
                        tick,
                        rng,
                        connectivity,
                        metrics,
                        events,
                        ..
                    }: Tick<'_>| {
            // The coordinator reaches every agent exactly when one group
            // holds all `n` of them.
            let reached = connectivity.group_count() == 1 && connectivity.group(0).len() == n;
            let ExecutionMode::Async(knobs) = mode else {
                // A round: one request per agent per attempt, whether or
                // not it succeeds — the coordinator cannot know in advance
                // that the system is partitioned.
                metrics.messages += n.saturating_sub(1);
                metrics.group_steps += 1;
                metrics.effective_group_steps += usize::from(reached);
                events.emit(|| TraceEvent::GroupStep {
                    tick: tick as u64,
                    size: n,
                    changed: reached,
                });
                return reached;
            };
            // Messages are stamped with zero-based time.
            let now = tick - 1;

            if knobs.initiates(rng) && n > 0 {
                metrics.group_steps += 1;
                metrics.messages += n - 1;
                if n == 1 {
                    // No remote agent to probe: the snapshot is complete.
                    metrics.effective_group_steps += 1;
                    return true;
                }
                let attempt = attempts.len();
                attempts.push((n - 1, false));
                // One probe per remote agent, each with its own latency; a
                // single loss already kills the attempt, so the rest of a
                // dead attempt's probes are counted but never tracked.
                for target in 1..n {
                    if attempts[attempt].1 {
                        break;
                    }
                    match knobs.send(rng, now, 0, target, events) {
                        Some(message) => pending.push(Probe {
                            message,
                            reachable_at_send: reached,
                            attempt,
                        }),
                        None => {
                            metrics.messages_dropped += 1;
                            attempts[attempt].1 = true; // probe lost: attempt dead
                        }
                    }
                }
            }

            // In-place drain (order-preserving): no per-tick reallocation
            // of the undelivered queue.
            let due: Vec<Probe> = pending
                .extract_if(.., |p| p.message.deliver_at <= now)
                .collect();
            for mut probe in due {
                let (outstanding, failed) = &mut attempts[probe.attempt];
                if *failed {
                    continue;
                }
                match knobs.settle(
                    &mut probe.message,
                    now,
                    reached,
                    probe.reachable_at_send,
                    metrics,
                    events,
                ) {
                    DeliveryDecision::Discard => {
                        *failed = true;
                        continue;
                    }
                    DeliveryDecision::Requeue => {
                        pending.push(probe);
                        continue;
                    }
                    DeliveryDecision::Deliver => {}
                }
                *outstanding -= 1;
                if *outstanding == 0 && !*failed {
                    metrics.effective_group_steps += 1;
                    return true;
                }
            }
            false
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
    use selfsim_env::{AdversarialEnv, PeriodicPartitionEnv, StaticEnv, Topology};
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
        baseline: &SnapshotAggregator,
        env: &mut dyn Environment,
        seed: u64,
        mode: ExecutionMode,
    ) -> (RunMetrics, Option<i64>) {
        baseline.run(env, seed, mode, i64::min, &mut EventLog::disabled())
    }

    #[test]
    fn snapshot_succeeds_immediately_on_a_static_network() {
        let topo = Topology::complete(5);
        let mut env = StaticEnv::new(topo);
        let baseline = SnapshotAggregator::new(vec![9, 4, 7, 1, 5], 100);
        let (metrics, result) = run_min(&baseline, &mut env, 1, ExecutionMode::sync());
        assert_eq!(result, Some(1));
        assert_eq!(metrics.rounds_to_convergence, Some(1));
        assert_eq!(metrics.messages, 4);
    }

    #[test]
    fn snapshot_waits_for_a_merge_round_under_partitions() {
        let topo = Topology::complete(6);
        let mut env = PeriodicPartitionEnv::new(topo, 2, 5);
        let baseline = SnapshotAggregator::new(vec![6, 5, 4, 3, 2, 1], 100);
        let (metrics, result) = run_min(&baseline, &mut env, 2, ExecutionMode::sync());
        assert_eq!(result, Some(1));
        // The partition only merges every 5th round.
        assert_eq!(metrics.rounds_to_convergence, Some(5));
    }

    #[test]
    fn snapshot_never_succeeds_under_the_single_edge_adversary() {
        let topo = Topology::complete(4);
        let mut env = AdversarialEnv::new(topo, 0);
        let baseline = SnapshotAggregator::new(vec![4, 3, 2, 1], 200);
        let (metrics, result) = run_min(&baseline, &mut env, 3, ExecutionMode::sync());
        // The adversary never enables more than one edge at a time, so a
        // global snapshot is impossible — yet the self-similar algorithm
        // converges under the same environment (see the runtime tests).
        assert_eq!(result, None);
        assert!(!metrics.converged());
        assert_eq!(metrics.rounds_executed, 200);
    }

    #[test]
    fn async_snapshot_succeeds_on_a_static_network() {
        let topo = Topology::complete(5);
        let mut env = StaticEnv::new(topo);
        let baseline = SnapshotAggregator::new(vec![9, 4, 7, 1, 5], 500);
        let (metrics, result) = run_min(
            &baseline,
            &mut env,
            1,
            asynchronous(1.0, 2, 0.0, DeliveryRule::default()),
        );
        assert_eq!(result, Some(1));
        assert!(metrics.converged());
        assert!(metrics.messages >= 4);
        assert_eq!(metrics.messages_dropped, 0, "drop_rate 0 drops nothing");
    }

    #[test]
    fn async_snapshot_never_succeeds_under_the_single_edge_adversary() {
        // One edge at a time: full reachability never holds at *any* tick,
        // so every delivery rule agrees the snapshot is impossible.
        for rule in DeliveryRule::all() {
            let topo = Topology::complete(4);
            let mut env = AdversarialEnv::new(topo, 0);
            let baseline = SnapshotAggregator::new(vec![4, 3, 2, 1], 300);
            let (metrics, result) =
                run_min(&baseline, &mut env, 3, asynchronous(1.0, 2, 0.0, rule));
            assert_eq!(result, None, "{}", rule.label());
            assert!(!metrics.converged(), "{}", rule.label());
            assert_eq!(metrics.rounds_executed, 300, "{}", rule.label());
        }
    }

    #[test]
    fn async_snapshot_is_seed_deterministic_under_every_rule() {
        for rule in DeliveryRule::all() {
            let run = || {
                let mut env = PeriodicPartitionEnv::new(Topology::complete(6), 2, 5);
                run_min(
                    &SnapshotAggregator::new(vec![6, 5, 4, 3, 2, 1], 500),
                    &mut env,
                    11,
                    asynchronous(0.7, 3, 0.1, rule),
                )
            };
            let (a_metrics, a_result) = run();
            let (b_metrics, b_result) = run();
            assert_eq!(a_metrics, b_metrics, "{}", rule.label());
            assert_eq!(a_result, b_result, "{}", rule.label());
        }
    }

    #[test]
    fn send_time_and_window_rules_rescue_the_partitioned_snapshot() {
        // Merges are single ticks and probe latency is at least one tick,
        // so under the historical rule a probe sent at a merge tick is
        // always judged in a partitioned phase: the attempt dies.  Judging
        // at send time (or within a grace window spanning the period)
        // restores the snapshot.
        let run = |rule: DeliveryRule| {
            let mut env = PeriodicPartitionEnv::new(Topology::complete(6), 2, 8);
            run_min(
                &SnapshotAggregator::new(vec![6, 5, 4, 3, 2, 1], 200),
                &mut env,
                2,
                asynchronous(1.0, 3, 0.0, rule),
            )
        };
        let (stalled, none) = run(DeliveryRule::ValidAtDelivery);
        assert_eq!(none, None);
        assert!(!stalled.converged());
        for rule in [DeliveryRule::ValidAtSend, DeliveryRule::any_overlap()] {
            let (metrics, result) = run(rule);
            assert_eq!(result, Some(1), "{}", rule.label());
            assert!(metrics.converged(), "{}", rule.label());
        }
    }

    #[test]
    fn a_lone_agent_snapshots_at_the_first_launch_in_every_mode() {
        for mode in [
            ExecutionMode::sync(),
            asynchronous(0.5, 3, 0.0, DeliveryRule::default()),
        ] {
            let mut env = StaticEnv::new(Topology::line(1));
            let baseline = SnapshotAggregator::new(vec![7], 50);
            let (metrics, result) = run_min(&baseline, &mut env, 1, mode);
            assert_eq!(result, Some(7), "{mode:?}");
            assert!(metrics.converged(), "{mode:?}");
            assert_eq!(metrics.messages, 0, "{mode:?}: no remote agent to ask");
            assert_eq!(metrics.effective_group_steps, 1, "{mode:?}");
        }
    }

    #[test]
    fn snapshot_computes_other_aggregates() {
        let topo = Topology::complete(3);
        let mut env = StaticEnv::new(topo);
        let baseline = SnapshotAggregator::new(vec![1, 2, 3], 10);
        let (_, sum) = baseline.run(
            &mut env,
            4,
            ExecutionMode::sync(),
            |a, b| a + b,
            &mut EventLog::disabled(),
        );
        assert_eq!(sum, Some(6));
    }
}
