//! The event-driven face of the round loop.
//!
//! [`EventSimulator`] runs exactly the loop [`SyncSimulator`] runs (see the
//! `round` module) and so measures exactly what it measures.  It differs
//! only in the record columns it fills: the environment name carries an
//! `event/` prefix, and the two event columns report the work of the round
//! loop as events.  Per round there is one environment event, one event per
//! group actually stepped (groups elided as fixpoints cost none) and one
//! round-boundary event, so after convergence an idle system costs two
//! events per cooldown round, independent of `n`.

use selfsim_core::SelfSimilarSystem;
use selfsim_env::Environment;

use crate::round::run_rounds;
use crate::{SimulationReport, SyncConfig};

/// Configuration of an [`EventSimulator`] run: the same knobs as a
/// [`SyncSimulator`](crate::SyncSimulator) run.
pub type EventConfig = SyncConfig;

/// The event-driven realisation of the paper's transition system.
///
/// It runs the [`SyncSimulator`](crate::SyncSimulator) round loop and
/// differs only in its records: the environment name carries an `event/`
/// prefix, and the event columns count one environment event, one event
/// per stepped group and one round-boundary event per round.
pub struct EventSimulator {
    config: EventConfig,
}

impl EventSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: EventConfig) -> Self {
        EventSimulator { config }
    }

    /// Creates a simulator with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        EventSimulator::new(EventConfig {
            seed,
            ..EventConfig::default()
        })
    }

    /// Runs `system` under `environment` until it converges (plus the
    /// configured cooldown) or the round budget is exhausted.
    pub fn run<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        environment: &mut E,
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment + ?Sized,
    {
        let (mut report, stepped) = run_rounds(&self.config, system, environment);
        let metrics = &mut report.metrics;
        metrics.environment = format!("event/{}", metrics.environment);
        let rounds = metrics.rounds_executed;
        metrics.events_processed = 2 * rounds + stepped.total;
        // At most the stepped groups of one round plus its boundary wait
        // at once; an empty run never has a pending event.
        metrics.peak_queue_depth = if rounds == 0 { 0 } else { stepped.peak + 1 };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_algorithms::minimum;
    use selfsim_env::{RandomChurnEnv, StaticEnv, Topology};

    #[test]
    fn runs_are_seed_deterministic_including_the_event_stream() {
        let topo = || Topology::ring(6);
        let sys = minimum::system(&[6, 5, 4, 3, 2, 1], topo());
        let run = || {
            EventSimulator::new(EventConfig {
                seed: 11,
                record_events: true,
                ..EventConfig::default()
            })
            .run(&sys, &mut RandomChurnEnv::new(topo(), 0.5, 1.0))
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.events, b.events);
        assert!(a.metrics.events_processed > 0);
        assert!(a.metrics.peak_queue_depth > 0);
    }

    #[test]
    fn fixpoint_groups_cost_no_events_during_cooldown() {
        // Complete static graph, one group: round 1 converges, round 2
        // proves the group a randomness-free fixpoint, every later cooldown
        // round is exactly two events (env + round boundary).
        let topo = || Topology::complete(3);
        let sys = minimum::system(&[5, 2, 9], topo());
        let report = EventSimulator::new(EventConfig {
            cooldown_rounds: 10,
            seed: 4,
            ..EventConfig::default()
        })
        .run(&sys, &mut StaticEnv::new(topo()));
        assert_eq!(report.rounds_to_convergence(), Some(1));
        assert_eq!(report.metrics.rounds_executed, 11);
        // Rounds 1–2: env + group + boundary; rounds 3–11: env + boundary.
        assert_eq!(report.metrics.events_processed, 2 * 3 + 9 * 2);
        // The busiest round stepped one group: one event plus the boundary.
        assert_eq!(report.metrics.peak_queue_depth, 2);
        // Accounting still reports one group step per round, like sync.
        assert_eq!(report.metrics.group_steps, 11);
    }

    #[test]
    fn symbolic_complete_graphs_scale_without_materialising_edges() {
        let n = 100_000;
        let values: Vec<i64> = (0..n as i64).map(|k| (k * 7919) % 1_000_003 + 1).collect();
        let topo = Topology::complete(n);
        let sys = minimum::system(&values, topo.clone());
        let report = EventSimulator::with_seed(1).run(&sys, &mut StaticEnv::new(topo));
        assert_eq!(report.rounds_to_convergence(), Some(1));
        assert_eq!(report.metrics.messages, n);
        let min = values.iter().min().copied().expect("non-empty values");
        assert!(report.final_state.iter().all(|&v| v == min));
    }

    #[test]
    fn zero_round_budget_executes_nothing() {
        let sys = minimum::system(&[2, 1], Topology::line(2));
        let report = EventSimulator::new(EventConfig {
            max_rounds: 0,
            ..EventConfig::default()
        })
        .run(&sys, &mut StaticEnv::new(Topology::line(2)));
        assert_eq!(report.metrics.rounds_executed, 0);
        assert_eq!(report.metrics.events_processed, 0);
        assert!(!report.converged());
    }
}
