//! The round-based (synchronous) simulator and the configuration both
//! round runtimes share.

use selfsim_core::SelfSimilarSystem;
use selfsim_env::Environment;
use selfsim_trace::EventLog;

use crate::round::run_rounds;
use crate::{Round, SimulationReport};

/// Configuration of a [`SyncSimulator`] or
/// [`EventSimulator`](crate::EventSimulator) run.
#[derive(Clone, Debug)]
pub struct SyncConfig {
    /// Maximum number of rounds before giving up.
    pub max_rounds: usize,
    /// Number of extra rounds to execute *after* convergence is first
    /// detected, to exercise (and let the tests audit) the stability claim
    /// `stable (S = f(S))`.
    pub cooldown_rounds: usize,
    /// RNG seed; every run with the same seed, system and environment is
    /// identical.
    pub seed: u64,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            max_rounds: 10_000,
            cooldown_rounds: 0,
            seed: 0,
        }
    }
}

/// The synchronous, round-based realisation of the paper's transition
/// system.
///
/// Each round performs one environment transition followed by one agent
/// transition: the environment produces the next [`selfsim_env::EnvState`],
/// the partition of agents into communicating groups is read off the
/// connected components, and every group executes one step of `R`.
/// Disabled agents belong to no group and keep their state, which is the
/// paper's "a disabled process executes no actions and does not change
/// state".  Groups proven to be randomness-free fixpoints are not stepped
/// again until connectivity changes; that changes no measurement.
pub struct SyncSimulator {
    config: SyncConfig,
}

impl SyncSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SyncConfig) -> Self {
        SyncSimulator { config }
    }

    /// Creates a simulator with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        SyncSimulator::new(SyncConfig {
            seed,
            ..SyncConfig::default()
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
        self.run_with(system, environment, &mut EventLog::disabled(), |_| {})
    }

    /// [`SyncSimulator::run`], emitting the run's structured events into
    /// `events` and handing every executed round to `observe`.  Neither
    /// changes the run.
    pub fn run_with<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        environment: &mut E,
        events: &mut EventLog,
        observe: impl FnMut(&Round<'_, S>),
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment + ?Sized,
    {
        run_rounds(&self.config, system, environment, events, observe).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_algorithms::minimum;
    use selfsim_env::{AdversarialEnv, RandomChurnEnv, StaticEnv, Topology};

    #[test]
    fn minimum_converges_under_static_environment() {
        let sys = minimum::system(&[9, 4, 7, 1, 5], Topology::line(5));
        let mut env = StaticEnv::new(Topology::line(5));
        let report = SyncSimulator::with_seed(1).run(&sys, &mut env);
        assert!(report.converged());
        assert_eq!(report.final_state, vec![1, 1, 1, 1, 1]);
        // On a line of 5 agents, the minimum needs a handful of rounds to
        // sweep across; it must be at least 1 and at most the diameter.
        let rounds = report.rounds_to_convergence().expect("converged");
        assert!((1..=5).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn minimum_converges_under_churn_and_conserves_objective_monotonicity() {
        let topo = Topology::ring(8);
        let sys = minimum::system(&[9, 4, 7, 1, 5, 14, 3, 8], topo.clone());
        let mut env = RandomChurnEnv::new(topo, 0.4, 0.9);
        let config = SyncConfig {
            max_rounds: 5_000,
            seed: 7,
            ..SyncConfig::default()
        };
        let mut rounds = 0;
        let report = SyncSimulator::new(config).run_with(
            &sys,
            &mut env,
            &mut EventLog::disabled(),
            |round| {
                rounds += 1;
                // Conservation law holds after every round.
                assert_eq!(sys.function().apply(round.states), sys.target());
            },
        );
        assert!(report.converged());
        assert_eq!(rounds, report.metrics.rounds_executed);
        assert!(report.metrics.objective_is_monotone(1e-9));
    }

    #[test]
    fn minimum_converges_even_under_the_adversary() {
        let topo = Topology::line(4);
        let sys = minimum::system(&[4, 3, 2, 1], topo.clone());
        let mut env = AdversarialEnv::new(topo, 3);
        let report = SyncSimulator::with_seed(3).run(&sys, &mut env);
        assert!(report.converged());
        // The adversary activates one edge every 4 rounds, so convergence is
        // necessarily much slower than under the static environment.
        assert!(report.rounds_to_convergence().expect("converged") > 4);
    }

    #[test]
    fn budget_exhaustion_reports_no_convergence() {
        let topo = Topology::line(4);
        let sys = minimum::system(&[4, 3, 2, 1], topo.clone());
        // An environment that never enables anything.
        let mut env = RandomChurnEnv::new(topo, 0.0, 0.0);
        let config = SyncConfig {
            max_rounds: 50,
            ..SyncConfig::default()
        };
        let report = SyncSimulator::new(config).run(&sys, &mut env);
        assert!(!report.converged());
        assert_eq!(report.metrics.rounds_executed, 50);
        assert_eq!(report.final_state, vec![4, 3, 2, 1]);
    }

    #[test]
    fn cooldown_keeps_running_after_convergence_and_state_stays_put() {
        let topo = Topology::complete(3);
        let sys = minimum::system(&[5, 2, 9], topo.clone());
        let mut env = StaticEnv::new(topo);
        let config = SyncConfig {
            cooldown_rounds: 10,
            ..SyncConfig::default()
        };
        let target = sys.target();
        let mut at_target = Vec::new();
        let report = SyncSimulator::new(config).run_with(
            &sys,
            &mut env,
            &mut EventLog::disabled(),
            |round| at_target.push(*round.states == target),
        );
        assert!(report.converged());
        assert!(
            report.metrics.rounds_executed > report.rounds_to_convergence().expect("converged")
        );
        // Stability: once the target is reached the run never leaves it.
        let first = at_target
            .iter()
            .position(|&at| at)
            .expect("some round reaches the target");
        assert!(at_target[first..].iter().all(|&at| at));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let topo = Topology::ring(6);
        let sys = minimum::system(&[6, 5, 4, 3, 2, 1], topo.clone());
        let run = |seed| {
            let mut env = RandomChurnEnv::new(Topology::ring(6), 0.5, 1.0);
            SyncSimulator::with_seed(seed).run(&sys, &mut env)
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.rounds_to_convergence(), b.rounds_to_convergence());
        assert_eq!(a.metrics.messages, b.metrics.messages);
        assert_eq!(a.final_state, b.final_state);
        let c = run(12);
        // Different seeds are allowed to differ (and normally do).
        let _ = c;
    }
}
