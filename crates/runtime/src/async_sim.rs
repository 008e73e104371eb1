//! The discrete-event, message-passing body behind
//! [`ExecutionMode::Async`](crate::ExecutionMode::Async).
//!
//! At every virtual-time tick the environment produces a new state; each
//! currently usable edge initiates, with probability `interaction_rate`, a
//! *rendezvous request* that is delivered after a random latency (or
//! dropped with probability `drop_rate`).  When a request comes due, the
//! configured [`DeliveryRule`](crate::DeliveryRule) decides whether the two
//! endpoints execute one two-agent step of `R` on their *current* states —
//! the historical default demands the edge be usable at the delivery tick,
//! `ValidAtSend` honours the send-time agreement unconditionally, and
//! `AnyOverlap` re-queues the request until the edge comes back up (or a
//! grace window closes).
//!
//! This realises the observation at the end of §4.5 that relation `R` "can
//! be easily implemented by asynchronous message passing": every delivered
//! message triggers a small-group optimisation step; nothing requires
//! global rounds.  Because each interaction is still a step of `R`, the
//! conservation law and the descent of `h` are preserved verbatim.
//!
//! It is a body of the [`Driver`], which advances the environment every
//! tick.  New rendezvous requests are drawn over the usable edges of the
//! driver's connectivity in ascending edge order, and a request that comes
//! due asks it whether its two endpoints can still communicate; no full
//! environment state is built unless an observer asks a tick for one
//! ([`Round::env_state`]).

use std::collections::BTreeMap;

use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{AgentId, Environment};
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::{AsyncKnobs, DeliveryDecision, Driver, Message, Round, SimulationReport, Tick};

/// Runs `system` under `environment` on `driver` with the messages `knobs`
/// describe until convergence or the tick budget is exhausted, emitting
/// into `events` (the full message lifecycle included) and handing every
/// executed tick to `observe`.
pub(crate) fn run_messages<S, E>(
    knobs: AsyncKnobs,
    driver: Driver,
    system: &SelfSimilarSystem<S>,
    environment: &mut E,
    events: &mut EventLog,
    mut observe: impl FnMut(&Round<'_, S>),
) -> SimulationReport<S>
where
    S: Ord + Clone + std::fmt::Debug,
    E: Environment + ?Sized,
{
    let mut state = system.initial_state().clone();
    let mut metrics = RunMetrics::new(
        system.name(),
        format!("async/{}", environment.name()),
        system.agent_count(),
    );
    // Incremental multiset view of `state`; see `run_rounds`.
    // `state` is still `S(0)` here, so the cached initial multiset is
    // exactly the view to start from.
    let mut global = system.initial_multiset().clone();
    let mut scratch = StepScratch::new();
    metrics
        .objective_trajectory
        .push(system.objective_of(&global));

    // Pending rendezvous requests by due tick, then send order: the
    // earliest due pops first, ties broken deterministically.
    let mut pending: BTreeMap<(usize, usize), Message> = BTreeMap::new();
    let mut sequence = 0usize;

    let body = |Tick {
                    tick,
                    rng,
                    connectivity,
                    topology,
                    metrics,
                    events,
                    ..
                }: Tick<'_>| {
        // Messages are stamped with zero-based time.
        let now = tick - 1;
        // New rendezvous requests from currently usable edges, in
        // ascending edge order.
        for edge in connectivity.usable_edges(topology) {
            if !knobs.initiates(rng) {
                continue;
            }
            metrics.messages += 1;
            let (from, to) = (edge.lo().index(), edge.hi().index());
            let Some(message) = knobs.send(rng, now, from, to, events) else {
                metrics.messages_dropped += 1;
                continue; // lost in flight
            };
            pending.insert((message.deliver_at, sequence), message);
            sequence += 1;
        }

        // Deliveries due at this tick.  The edge was usable at send
        // time by construction, so `usable_at_send` is always true
        // here; the rule decides on the current state of the edge.
        while pending
            .first_key_value()
            .is_some_and(|(&(due, _), _)| due <= now)
        {
            let ((_, sent), mut message) = pending.pop_first().expect("peeked");
            let (initiator, responder) = (AgentId(message.from), AgentId(message.to));
            let usable_now = connectivity.can_communicate(initiator, responder, topology);
            match knobs.settle(&mut message, now, usable_now, true, metrics, events) {
                DeliveryDecision::Discard => continue,
                DeliveryDecision::Requeue => {
                    // Same send order: the retry keeps its place in
                    // the deterministic tie-break order.
                    pending.insert((message.deliver_at, sent), message);
                    continue;
                }
                DeliveryDecision::Deliver => {}
            }
            metrics.group_steps += 1;
            let group = [initiator, responder];
            let changed = system
                .apply_group_step_with(
                    &mut state,
                    &group,
                    &mut *rng,
                    &mut scratch,
                    Some(&mut global),
                )
                .multiset_changed;
            if changed {
                metrics.effective_group_steps += 1;
            }
            events.emit(|| TraceEvent::GroupStep {
                tick: tick as u64,
                size: group.len(),
                changed,
            });
        }

        observe(&Round {
            tick,
            states: &global,
            connectivity,
            topology,
        });
        metrics
            .objective_trajectory
            .push(system.objective_of(&global));
        system.is_converged_multiset(&global)
    };
    driver.run(environment, &mut metrics, events, body);
    SimulationReport {
        metrics,
        final_state: state,
    }
}

#[cfg(test)]
mod tests {
    use crate::{AsyncKnobs, DeliveryRule, ExecutionMode};
    use selfsim_algorithms::minimum;
    use selfsim_env::{RandomChurnEnv, StaticEnv, Topology};
    use selfsim_trace::EventLog;

    /// A tick budget every converging run below stays well within.
    const TICKS: usize = 50_000;

    #[test]
    fn minimum_converges_asynchronously() {
        let topo = Topology::ring(6);
        let sys = minimum::system(&[9, 2, 7, 5, 8, 4], topo.clone());
        let mut env = StaticEnv::new(topo);
        let report = ExecutionMode::asynchronous().run(&sys, &mut env, 5, TICKS);
        assert!(report.converged());
        assert_eq!(report.final_state, vec![2; 6]);
        assert!(report.metrics.objective_is_monotone(1e-9));
    }

    #[test]
    fn message_drops_slow_convergence_but_do_not_break_it() {
        let topo = Topology::ring(6);
        let sys = minimum::system(&[9, 2, 7, 5, 8, 4], topo.clone());
        let run = |drop_rate: f64| {
            let mut env = StaticEnv::new(Topology::ring(6));
            let knobs =
                AsyncKnobs::new(0.5, 3, drop_rate, DeliveryRule::default()).expect("valid knobs");
            ExecutionMode::Async(knobs).run(&sys, &mut env, 2, TICKS)
        };
        let clean = run(0.0);
        let lossy = run(0.8);
        assert!(clean.converged());
        assert!(lossy.converged());
        assert!(
            lossy.rounds_to_convergence().expect("lossy run converged")
                >= clean.rounds_to_convergence().expect("clean run converged"),
            "losing 80% of messages should not speed things up"
        );
        // Losses are visible in the metrics, not conflated with sends.
        assert_eq!(
            clean.metrics.messages_dropped, 0,
            "drop_rate 0 drops nothing"
        );
        assert!(lossy.metrics.messages_dropped > 0);
        assert!(lossy.metrics.messages_dropped <= lossy.metrics.messages);
    }

    #[test]
    fn async_under_churn_still_converges_and_conserves() {
        let topo = Topology::complete(5);
        let sys = minimum::system(&[5, 4, 3, 2, 11], topo.clone());
        let mut env = RandomChurnEnv::new(topo, 0.3, 0.8);
        let mut ticks = 0;
        let report = ExecutionMode::asynchronous().run_with(
            &sys,
            &mut env,
            9,
            TICKS,
            &mut EventLog::disabled(),
            |tick| {
                ticks += 1;
                // Conservation law holds after every tick.
                assert_eq!(sys.function().apply(tick.states), sys.target());
            },
        );
        assert!(report.converged());
        assert_eq!(ticks, report.metrics.rounds_executed);
    }

    #[test]
    fn impossible_environment_exhausts_budget() {
        let topo = Topology::line(3);
        let sys = minimum::system(&[3, 2, 1], topo.clone());
        let mut env = RandomChurnEnv::new(topo, 0.0, 0.0);
        let report = ExecutionMode::asynchronous().run(&sys, &mut env, 0, 100);
        assert!(!report.converged());
        assert_eq!(report.metrics.rounds_executed, 100);
    }

    #[test]
    fn determinism_with_same_seed() {
        let topo = Topology::ring(5);
        let sys = minimum::system(&[7, 3, 9, 1, 5], topo.clone());
        let run = || {
            let mut env = RandomChurnEnv::new(Topology::ring(5), 0.6, 1.0);
            ExecutionMode::asynchronous().run(&sys, &mut env, 4, TICKS)
        };
        let a = run();
        let b = run();
        assert_eq!(a.rounds_to_convergence(), b.rounds_to_convergence());
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }
}
