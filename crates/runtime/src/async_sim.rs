//! The discrete-event, message-passing simulator.
//!
//! Every tick advances the environment through
//! [`Environment::step_delta`] and folds the delta into a
//! [`Connectivity`] — the same fold the round loop uses.  New rendezvous
//! requests are drawn over its usable edges in ascending edge order, and a
//! request that comes due asks it whether its two endpoints can still
//! communicate; no full environment state is built unless traces are
//! recorded.

use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{AgentId, Connectivity, Environment};
use selfsim_temporal::Trace;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::{DeliveryDecision, DeliveryRule, SimulationReport};

/// Configuration of an [`AsyncSimulator`] run.
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Maximum virtual time (number of ticks) before giving up.
    pub max_ticks: usize,
    /// Probability that an enabled edge initiates an interaction at a tick.
    pub interaction_rate: f64,
    /// Message latency is drawn uniformly from `1..=max_latency` ticks.
    pub max_latency: usize,
    /// Probability that an in-flight message is lost.
    pub drop_rate: f64,
    /// What happens to a message whose edge is down when it comes due.
    pub delivery: DeliveryRule,
    /// RNG seed.
    pub seed: u64,
    /// Record the full state trace in the report.
    pub record_traces: bool,
    /// When `true`, the run records a structured [`TraceEvent`] stream
    /// (env transitions, the full message lifecycle, convergence) in the
    /// report.  When `false` (the default) event recording is a single
    /// branch per would-be event and allocates nothing.
    pub record_events: bool,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            max_ticks: 50_000,
            interaction_rate: 0.5,
            max_latency: 3,
            drop_rate: 0.0,
            delivery: DeliveryRule::default(),
            seed: 0,
            record_traces: false,
            record_events: false,
        }
    }
}

impl AsyncConfig {
    /// Checks the field invariants, naming the offending field in the
    /// error: `max_latency` must be at least one tick (latency is drawn
    /// from `1..=max_latency`; zero used to be silently clamped to 1) and
    /// the two rates must be probabilities (out-of-range values used to
    /// panic deep inside the RNG with an unhelpful message).
    pub fn validate(&self) -> Result<(), String> {
        validate_async_knobs(self.interaction_rate, self.max_latency, self.drop_rate)
    }
}

/// Validates the knobs every message-passing execution shares — the
/// [`AsyncSimulator`] *and* the baselines' message-passing runs — naming
/// the offending field in the error.
pub fn validate_async_knobs(
    interaction_rate: f64,
    max_latency: usize,
    drop_rate: f64,
) -> Result<(), String> {
    if max_latency == 0 {
        return Err(
            "max_latency must be at least 1 (message latency is drawn from 1..=max_latency)".into(),
        );
    }
    for (name, value) in [
        ("interaction_rate", interaction_rate),
        ("drop_rate", drop_rate),
    ] {
        if !(0.0..=1.0).contains(&value) {
            return Err(format!(
                "{name} must be a probability in [0, 1], got {value}"
            ));
        }
    }
    Ok(())
}

/// A pending rendezvous request: when delivered (subject to the
/// [`DeliveryRule`]), the two endpoint agents execute one pairwise step of
/// `R`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PendingInteraction {
    deliver_at: usize,
    /// Last tick delivery may still happen ([`DeliveryRule::expiry`] of
    /// the original due tick; only `AnyOverlap` re-queues up to it).
    expires_at: usize,
    initiator: AgentId,
    responder: AgentId,
    sequence: usize,
}

impl Ord for PendingInteraction {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest delivery pops first,
        // breaking ties by sequence number for determinism.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for PendingInteraction {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The asynchronous, message-passing realisation of the group relation `R`.
///
/// At every virtual-time tick the environment produces a new state; each
/// currently usable edge initiates, with probability `interaction_rate`, a
/// *rendezvous request* that is delivered after a random latency (or dropped
/// with probability `drop_rate`).  When a request comes due, the
/// configured [`DeliveryRule`] decides whether the two endpoints execute
/// one two-agent step of `R` on their *current* states — the historical
/// default demands the edge be usable at the delivery tick, `ValidAtSend`
/// honours the send-time agreement unconditionally, and `AnyOverlap`
/// re-queues the request until the edge comes back up (or a grace window
/// closes).
///
/// This realises the observation at the end of §4.5 that relation `R` "can
/// be easily implemented by asynchronous message passing": every delivered
/// message triggers a small-group optimisation step; nothing requires global
/// rounds.  Because each interaction is still a step of `R`, the
/// conservation law and the descent of `h` are preserved verbatim.
pub struct AsyncSimulator {
    config: AsyncConfig,
}

impl AsyncSimulator {
    /// Creates a simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`AsyncConfig::validate`] message when the
    /// configuration is invalid (zero `max_latency`, out-of-range rates).
    /// Callers handling untrusted input (the CLI) validate first.
    pub fn new(config: AsyncConfig) -> Self {
        if let Err(message) = config.validate() {
            panic!("invalid AsyncConfig: {message}");
        }
        AsyncSimulator { config }
    }

    /// Creates a simulator with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        AsyncSimulator {
            config: AsyncConfig {
                seed,
                ..AsyncConfig::default()
            },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AsyncConfig {
        &self.config
    }

    /// Runs `system` under `environment` until convergence or the tick
    /// budget is exhausted.
    pub fn run<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        environment: &mut E,
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment + ?Sized,
    {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut state = system.initial_state().clone();
        let mut metrics = RunMetrics::new(
            system.name(),
            format!("async/{}", environment.name()),
            system.agent_count(),
        );
        let mut env_trace = Trace::new();
        let mut state_trace = Vec::new();
        // Incremental multiset view of `state`; see `SyncSimulator::run`.
        // `state` is still `S(0)` here, so the cached initial multiset is
        // exactly the view to start from.
        let mut global = system.initial_multiset().clone();
        let mut scratch = StepScratch::new();
        metrics
            .objective_trajectory
            .push(system.objective_of(&global));
        if self.config.record_traces {
            state_trace.push(global.clone());
        }

        let mut pending: BinaryHeap<PendingInteraction> = BinaryHeap::new();
        let mut sequence = 0usize;
        let mut converged_at = None;
        let mut events = if self.config.record_events {
            EventLog::enabled()
        } else {
            EventLog::disabled()
        };

        let mut connectivity = Connectivity::default();

        for tick in 0..self.config.max_ticks {
            let delta = environment.step_delta(&mut rng);
            let topology = environment.topology();
            connectivity.advance(delta, topology);
            if self.config.record_traces {
                env_trace.push(connectivity.to_env_state(topology));
            }
            events.emit(|| TraceEvent::EnvTransition {
                tick: (tick + 1) as u64,
                edges: connectivity.usable_edge_count(topology),
            });

            // New rendezvous requests from currently usable edges, in
            // ascending edge order.
            for edge in connectivity.usable_edges(topology) {
                if !rng.gen_bool(self.config.interaction_rate) {
                    continue;
                }
                metrics.messages += 1;
                if rng.gen_bool(self.config.drop_rate) {
                    metrics.messages_dropped += 1;
                    events.emit(|| TraceEvent::MessageDropped {
                        tick: tick as u64,
                        from: edge.lo().index(),
                        to: edge.hi().index(),
                    });
                    continue; // lost in flight
                }
                let latency = rng.gen_range(1..=self.config.max_latency);
                let deliver_at = tick + latency;
                events.emit(|| TraceEvent::MessageSent {
                    tick: tick as u64,
                    from: edge.lo().index(),
                    to: edge.hi().index(),
                    deliver_at: deliver_at as u64,
                });
                pending.push(PendingInteraction {
                    deliver_at,
                    expires_at: self.config.delivery.expiry(deliver_at),
                    initiator: edge.lo(),
                    responder: edge.hi(),
                    sequence,
                });
                sequence += 1;
            }

            // Deliveries due at this tick.  The edge was usable at send
            // time by construction, so `usable_at_send` is always true
            // here; the rule decides on the current state of the edge.
            while pending.peek().is_some_and(|p| p.deliver_at <= tick) {
                let p = pending.pop().expect("peeked");
                let usable_now = connectivity.can_communicate(p.initiator, p.responder, topology);
                match self
                    .config
                    .delivery
                    .decide(usable_now, true, tick, p.expires_at)
                {
                    DeliveryDecision::Discard => {
                        events.emit(|| TraceEvent::MessageDiscarded {
                            tick: tick as u64,
                            from: p.initiator.index(),
                            to: p.responder.index(),
                        });
                        continue;
                    }
                    DeliveryDecision::Requeue => {
                        metrics.messages_requeued += 1;
                        events.emit(|| TraceEvent::MessageRequeued {
                            tick: tick as u64,
                            from: p.initiator.index(),
                            to: p.responder.index(),
                        });
                        // Same sequence number: the retry keeps its place
                        // in the deterministic tie-break order.
                        pending.push(PendingInteraction {
                            deliver_at: tick + 1,
                            ..p
                        });
                        continue;
                    }
                    DeliveryDecision::Deliver => {}
                }
                metrics.group_steps += 1;
                events.emit(|| TraceEvent::MessageDelivered {
                    tick: tick as u64,
                    from: p.initiator.index(),
                    to: p.responder.index(),
                });
                let group = [p.initiator, p.responder];
                let changed = system
                    .apply_group_step_with(
                        &mut state,
                        &group,
                        &mut rng,
                        &mut scratch,
                        Some(&mut global),
                    )
                    .multiset_changed;
                if changed {
                    metrics.effective_group_steps += 1;
                }
                events.emit(|| TraceEvent::GroupStep {
                    tick: (tick + 1) as u64,
                    size: group.len(),
                    changed,
                });
            }

            metrics.rounds_executed = tick + 1;
            metrics
                .objective_trajectory
                .push(system.objective_of(&global));
            if self.config.record_traces {
                state_trace.push(global.clone());
            }

            if system.is_converged_multiset(&global) {
                converged_at = Some(tick + 1);
                events.emit(|| TraceEvent::ConvergenceEntered {
                    tick: (tick + 1) as u64,
                });
                break;
            }
        }

        metrics.rounds_to_convergence = converged_at;
        SimulationReport {
            metrics,
            final_state: state,
            env_trace,
            state_trace,
            events: events.into_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_algorithms::minimum;
    use selfsim_env::{RandomChurnEnv, StaticEnv, Topology};

    #[test]
    fn minimum_converges_asynchronously() {
        let topo = Topology::ring(6);
        let sys = minimum::system(&[9, 2, 7, 5, 8, 4], topo.clone());
        let mut env = StaticEnv::new(topo);
        let report = AsyncSimulator::with_seed(5).run(&sys, &mut env);
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
            AsyncSimulator::new(AsyncConfig {
                drop_rate,
                seed: 2,
                ..AsyncConfig::default()
            })
            .run(&sys, &mut env)
        };
        let clean = run(0.0);
        let lossy = run(0.8);
        assert!(clean.converged());
        assert!(lossy.converged());
        assert!(
            lossy.rounds_to_convergence().unwrap() >= clean.rounds_to_convergence().unwrap(),
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
    fn invalid_configs_are_rejected_naming_the_field() {
        let zero_latency = AsyncConfig {
            max_latency: 0,
            ..AsyncConfig::default()
        };
        assert!(zero_latency.validate().unwrap_err().contains("max_latency"));
        let bad_rate = AsyncConfig {
            interaction_rate: 1.5,
            ..AsyncConfig::default()
        };
        assert!(bad_rate
            .validate()
            .unwrap_err()
            .contains("interaction_rate"));
        let bad_drop = AsyncConfig {
            drop_rate: -0.1,
            ..AsyncConfig::default()
        };
        assert!(bad_drop.validate().unwrap_err().contains("drop_rate"));
        assert!(AsyncConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid AsyncConfig: max_latency")]
    fn constructor_rejects_zero_latency_instead_of_clamping() {
        let _ = AsyncSimulator::new(AsyncConfig {
            max_latency: 0,
            ..AsyncConfig::default()
        });
    }

    #[test]
    fn async_under_churn_still_converges_and_conserves() {
        let topo = Topology::complete(5);
        let sys = minimum::system(&[5, 4, 3, 2, 11], topo.clone());
        let mut env = RandomChurnEnv::new(topo, 0.3, 0.8);
        let config = AsyncConfig {
            seed: 9,
            record_traces: true,
            ..AsyncConfig::default()
        };
        let report = AsyncSimulator::new(config).run(&sys, &mut env);
        assert!(report.converged());
        for ms in &report.state_trace {
            assert_eq!(sys.function().apply(ms), sys.target());
        }
    }

    #[test]
    fn impossible_environment_exhausts_budget() {
        let topo = Topology::line(3);
        let sys = minimum::system(&[3, 2, 1], topo.clone());
        let mut env = RandomChurnEnv::new(topo, 0.0, 0.0);
        let report = AsyncSimulator::new(AsyncConfig {
            max_ticks: 100,
            ..AsyncConfig::default()
        })
        .run(&sys, &mut env);
        assert!(!report.converged());
        assert_eq!(report.metrics.rounds_executed, 100);
    }

    #[test]
    fn determinism_with_same_seed() {
        let topo = Topology::ring(5);
        let sys = minimum::system(&[7, 3, 9, 1, 5], topo.clone());
        let run = || {
            let mut env = RandomChurnEnv::new(Topology::ring(5), 0.6, 1.0);
            AsyncSimulator::with_seed(4).run(&sys, &mut env)
        };
        let a = run();
        let b = run();
        assert_eq!(a.rounds_to_convergence(), b.rounds_to_convergence());
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }
}
