//! [`EventSimulator`] and its [`EventConfig`]: a shim over
//! [`ExecutionMode::Event`], kept for the repository benchmark like the
//! [`SyncSimulator`](crate::SyncSimulator) shim (see the `sync` module).
//! The tests below are the event mode's.

use selfsim_core::SelfSimilarSystem;
use selfsim_env::Environment;

use crate::{ExecutionMode, SimulationReport, SyncConfig};

/// The budget, cooldown and seed of an [`EventSimulator`] run: the same
/// knobs as a [`SyncSimulator`](crate::SyncSimulator) run.
pub type EventConfig = SyncConfig;

/// Runs a system in [`ExecutionMode::Event`] with the budget, cooldown and
/// seed of an [`EventConfig`].
pub struct EventSimulator {
    config: EventConfig,
}

impl EventSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: EventConfig) -> Self {
        EventSimulator { config }
    }

    /// [`ExecutionMode::run`] in [`ExecutionMode::Event`] with the
    /// configured cooldown, seed and round budget.
    pub fn run<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        environment: &mut E,
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment + ?Sized,
    {
        let config = &self.config;
        let mode = ExecutionMode::Event {
            cooldown: config.cooldown_rounds,
        };
        mode.run(system, environment, config.seed, config.max_rounds)
    }
}

#[cfg(test)]
mod tests {
    use crate::ExecutionMode;
    use selfsim_algorithms::minimum;
    use selfsim_env::{RandomChurnEnv, StaticEnv, Topology};
    use selfsim_trace::EventLog;

    /// A round budget every converging run below stays well within.
    const ROUNDS: usize = 10_000;

    #[test]
    fn runs_are_seed_deterministic_including_the_event_stream() {
        let topo = || Topology::ring(6);
        let sys = minimum::system(&[6, 5, 4, 3, 2, 1], topo());
        let run = || {
            let mut events = EventLog::enabled();
            let report = ExecutionMode::event().run_with(
                &sys,
                &mut RandomChurnEnv::new(topo(), 0.5, 1.0),
                11,
                ROUNDS,
                &mut events,
                |_| {},
            );
            (report, events.into_events())
        };
        let (a, a_events) = run();
        let (b, b_events) = run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.final_state, b.final_state);
        assert!(!a_events.is_empty());
        assert_eq!(a_events, b_events);
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
        let report =
            ExecutionMode::Event { cooldown: 10 }.run(&sys, &mut StaticEnv::new(topo()), 4, ROUNDS);
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
        let report = ExecutionMode::event().run(&sys, &mut StaticEnv::new(topo), 1, ROUNDS);
        assert_eq!(report.rounds_to_convergence(), Some(1));
        assert_eq!(report.metrics.messages, n);
        let min = values.iter().min().copied().expect("non-empty values");
        assert!(report.final_state.iter().all(|&v| v == min));
    }

    #[test]
    fn zero_round_budget_executes_nothing() {
        let sys = minimum::system(&[2, 1], Topology::line(2));
        let report = ExecutionMode::event().run(&sys, &mut StaticEnv::new(Topology::line(2)), 0, 0);
        assert_eq!(report.metrics.rounds_executed, 0);
        assert_eq!(report.metrics.events_processed, 0);
        assert!(!report.converged());
    }
}
