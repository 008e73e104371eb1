//! The one tick loop every execution runs.
//!
//! Each tick of the paper's transition system is one environment
//! transition followed by agent transitions over the partition it
//! induces.  [`Driver::run`] is that loop; the round body behind
//! [`SyncSimulator`](crate::SyncSimulator) and
//! [`EventSimulator`](crate::EventSimulator), the message passing of
//! [`AsyncSimulator`](crate::AsyncSimulator) and both baselines are bodies
//! it calls once per tick with a [`Tick`].  It folds every
//! [`Environment::step_delta`] into one [`Connectivity`], which merges on
//! edge-up and re-splits only the affected component on edge-down; an
//! unchanged environment costs nothing, and a fully enabled one never
//! materialises its edge set.

use rand::rngs::StdRng;
use rand::SeedableRng;

use selfsim_env::{Connectivity, Environment, Topology};
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

/// What the body of a [`Driver::run`] sees of one tick, after the tick's
/// environment transition.
pub struct Tick<'a> {
    /// The tick being executed, from 1: the clock of `rounds_executed`
    /// and of the round-level events.
    pub tick: usize,
    /// The run's RNG, after the environment's draws for this tick.
    pub rng: &'a mut StdRng,
    /// The connectivity the environment transition left.
    pub connectivity: &'a Connectivity,
    /// The topology `connectivity` is folded against.
    pub topology: &'a Topology,
    /// `true` when the transition may have changed the partition.
    pub regrouped: bool,
    /// The run's measurements.
    pub metrics: &'a mut RunMetrics,
    /// The run's event stream.
    pub events: &'a mut EventLog,
}

/// The seed, tick budget and cooldown of one [`Driver::run`].
///
/// The driver owns what every execution shares: the run's one seeded
/// [`StdRng`] (the environment and the body draw from it in turn), the
/// connectivity fold, the `env-transition` event, `rounds_executed` and
/// the convergence policy.  A body returns whether the run is at its
/// target after the tick.  The first such tick enters convergence
/// (`convergence-entered`; it becomes `rounds_to_convergence`).  A tick
/// off the target leaves it (`convergence-left`) and forgets the entry,
/// so the reported number is honest about a broken algorithm.  Once at
/// the target, the run keeps going for `cooldown` more at-target ticks —
/// the audit of the closure claim `stable (S = f(S))` — so a cooldown of
/// 0 stops at the first at-target tick.
#[derive(Clone, Copy, Debug)]
pub struct Driver {
    /// Seeds the run's RNG; every run with the same seed, environment and
    /// body is identical.
    pub seed: u64,
    /// The most ticks the run executes.
    pub budget: usize,
    /// Extra at-target ticks to run after convergence is entered.
    pub cooldown: usize,
}

impl Driver {
    /// Runs `body` once per tick under `environment` until the run has
    /// been at its target for `cooldown` ticks past convergence or the
    /// budget is spent, recording into `metrics` and `events`.
    pub fn run<E: Environment + ?Sized>(
        self,
        environment: &mut E,
        metrics: &mut RunMetrics,
        events: &mut EventLog,
        mut body: impl FnMut(Tick<'_>) -> bool,
    ) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut connectivity = Connectivity::default();
        let mut converged_at = None;
        let mut cooldown_left = self.cooldown;
        for tick in 1..=self.budget {
            let clock = tick as u64;
            let delta = environment.step_delta(&mut rng);
            let topology = environment.topology();
            let regrouped = connectivity.advance(delta, topology);
            events.emit(|| TraceEvent::EnvTransition {
                tick: clock,
                edges: connectivity.usable_edge_count(topology),
            });
            metrics.rounds_executed = tick;
            let at_target = body(Tick {
                tick,
                rng: &mut rng,
                connectivity: &connectivity,
                topology,
                regrouped,
                metrics,
                events,
            });
            if at_target {
                if converged_at.is_none() {
                    converged_at = Some(tick);
                    events.emit(|| TraceEvent::ConvergenceEntered { tick: clock });
                }
                if cooldown_left == 0 {
                    break;
                }
                cooldown_left -= 1;
            } else {
                if converged_at.take().is_some() {
                    events.emit(|| TraceEvent::ConvergenceLeft { tick: clock });
                }
                cooldown_left = self.cooldown;
            }
        }
        metrics.rounds_to_convergence = converged_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_env::StaticEnv;

    /// Drives a static ring with a body that reports `script[tick - 1]`
    /// (off target past the script's end), returning the metrics and the
    /// event stream.
    fn scripted(script: &[bool], budget: usize, cooldown: usize) -> (RunMetrics, Vec<TraceEvent>) {
        let mut metrics = RunMetrics::new("scripted", "static", 4);
        let mut events = EventLog::enabled();
        Driver {
            seed: 1,
            budget,
            cooldown,
        }
        .run(
            &mut StaticEnv::new(Topology::ring(4)),
            &mut metrics,
            &mut events,
            |tick| script.get(tick.tick - 1).copied().unwrap_or(false),
        );
        (metrics, events.into_events())
    }

    /// The convergence events of a stream, as `(entered, tick)` pairs.
    fn convergence(events: &[TraceEvent]) -> Vec<(bool, u64)> {
        events
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::ConvergenceEntered { tick } => Some((true, tick)),
                TraceEvent::ConvergenceLeft { tick } => Some((false, tick)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cooldown_zero_stops_at_the_first_converged_tick() {
        let (metrics, events) = scripted(&[false, false, true, true], 10, 0);
        assert_eq!(metrics.rounds_executed, 3);
        assert_eq!(metrics.rounds_to_convergence, Some(3));
        assert_eq!(convergence(&events), [(true, 3)]);
    }

    #[test]
    fn a_cooldown_runs_that_many_ticks_past_convergence() {
        let (metrics, events) = scripted(&[false, false, true, true, true, true], 10, 2);
        assert_eq!(metrics.rounds_executed, 5);
        assert_eq!(metrics.rounds_to_convergence, Some(3));
        assert_eq!(convergence(&events), [(true, 3)]);
    }

    #[test]
    fn leaving_the_target_resets_the_entry_and_the_cooldown() {
        let script = [false, true, true, false, true, true, true];
        let (metrics, events) = scripted(&script, 10, 2);
        assert_eq!(convergence(&events), [(true, 2), (false, 4), (true, 5)]);
        assert_eq!(metrics.rounds_to_convergence, Some(5));
        assert_eq!(metrics.rounds_executed, 7);
    }

    #[test]
    fn a_zero_budget_executes_and_emits_nothing() {
        let (metrics, events) = scripted(&[true], 0, 0);
        assert!(events.is_empty());
        assert_eq!(metrics.rounds_executed, 0);
        assert_eq!(metrics.rounds_to_convergence, None);
    }

    #[test]
    fn env_transitions_tick_exactly_once_per_executed_tick() {
        for (script, budget) in [(&[false; 0][..], 6), (&[false, true, true][..], 6)] {
            let (metrics, events) = scripted(script, budget, 1);
            let ticks: Vec<u64> = events
                .iter()
                .filter_map(|event| match *event {
                    TraceEvent::EnvTransition { tick, .. } => Some(tick),
                    _ => None,
                })
                .collect();
            let executed = metrics.rounds_executed as u64;
            assert_eq!(ticks, (1..=executed).collect::<Vec<_>>());
        }
    }
}
