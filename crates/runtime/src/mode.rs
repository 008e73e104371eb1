//! The execution-mode dimension: one scenario, three runtimes.
//!
//! The paper's thesis is that one self-similar design runs unchanged across
//! execution models — synchronous rounds, asynchronous message passing, and
//! event-driven scheduling.  [`ExecutionMode`] makes that a first-class,
//! sweepable parameter: it names a runtime plus its mode-specific knobs, and
//! [`ExecutionMode::run`] and [`ExecutionMode::run_with`] are the one way to
//! run a system, so drivers (the campaign engine, the experiment binaries)
//! never match on the mode themselves.

use selfsim_core::SelfSimilarSystem;
use selfsim_env::Environment;
use selfsim_trace::EventLog;

use crate::async_sim::run_messages;
use crate::round::run_rounds;
use crate::{AsyncKnobs, DeliveryRule, Driver, Round, SimulationReport};

/// Which runtime a scenario cell runs on, with the runtime-specific knobs
/// that are part of the cell's identity (the budget and seed are per-trial
/// and passed to [`ExecutionMode::run`] instead).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecutionMode {
    /// Round-based lockstep execution: each round is one environment
    /// transition, then one step of `R` by every group of the induced
    /// partition (connected components of the enabled subgraph), in
    /// partition order.  Disabled agents belong to no group and keep their
    /// state.  Groups proven to be randomness-free fixpoints are not
    /// stepped again until connectivity changes; that changes no
    /// measurement.
    Sync {
        /// Extra rounds to run *after* convergence is first detected (the
        /// stability audit of `stable (S = f(S))`).  Only meaningful for
        /// self-similar systems; drivers of terminating protocols (e.g. the
        /// campaign's baseline adapters) ignore it.
        cooldown: usize,
    },
    /// Event-driven execution: the same round loop as
    /// [`ExecutionMode::Sync`], with the same records except that the
    /// environment is prefixed `event/` and the loop's work is reported as
    /// events.  Per round there is one environment event, one event per
    /// group actually stepped (groups elided as fixpoints cost none) and
    /// one round-boundary event, so after convergence an idle system costs
    /// two events per cooldown round, independent of `n`.
    Event {
        /// Extra rounds to run *after* convergence is first detected; the
        /// same knob (and the same semantics) as the sync cooldown.
        cooldown: usize,
    },
    /// Discrete-event message passing: each tick, every usable edge starts
    /// a pairwise rendezvous with the knobs' interaction rate; a message
    /// that is not dropped comes due after its latency and, if its
    /// [`DeliveryRule`] lets it through, its two endpoints take one step
    /// of `R`.
    Async(AsyncKnobs),
}

impl ExecutionMode {
    /// The default synchronous mode (no cooldown).
    pub fn sync() -> Self {
        ExecutionMode::Sync { cooldown: 0 }
    }

    /// The default event-driven mode (no cooldown).
    pub fn event() -> Self {
        ExecutionMode::Event { cooldown: 0 }
    }

    /// The default asynchronous mode (the [`AsyncKnobs`] defaults).
    pub fn asynchronous() -> Self {
        ExecutionMode::Async(AsyncKnobs::default())
    }

    /// The default asynchronous mode with the given delivery rule — the
    /// standard way to build the cells of a delivery-semantics sweep.
    pub fn asynchronous_with(delivery: DeliveryRule) -> Self {
        ExecutionMode::Async(AsyncKnobs::default().with_delivery(delivery))
    }

    /// The delivery rule of an async mode (`None` for sync — lockstep
    /// rounds have no messages in flight).
    pub fn delivery(&self) -> Option<DeliveryRule> {
        match *self {
            ExecutionMode::Sync { .. } | ExecutionMode::Event { .. } => None,
            ExecutionMode::Async(knobs) => Some(knobs.delivery),
        }
    }

    /// The delivery-rule column value for reports: the rule label for
    /// async cells, `-` for sync cells.
    pub fn delivery_label(&self) -> String {
        self.delivery()
            .map_or_else(|| "-".into(), |rule| rule.label())
    }

    /// Both default modes — the standard cross-runtime sweep.
    pub fn both() -> [ExecutionMode; 2] {
        [ExecutionMode::sync(), ExecutionMode::asynchronous()]
    }

    /// `true` for the message-passing mode.
    pub fn is_async(&self) -> bool {
        matches!(self, ExecutionMode::Async(_))
    }

    /// Short stable label used in scenario names and reports.  Default
    /// parameterisations collapse to the bare mode name so the common cells
    /// stay readable.
    pub fn label(&self) -> String {
        match *self {
            ExecutionMode::Sync { cooldown: 0 } => "sync".into(),
            ExecutionMode::Sync { cooldown } => format!("sync(cd={cooldown})"),
            ExecutionMode::Event { cooldown: 0 } => "event".into(),
            ExecutionMode::Event { cooldown } => format!("event(cd={cooldown})"),
            ExecutionMode::Async(knobs) => {
                let (i, l, d) = (knobs.interaction_rate, knobs.max_latency, knobs.drop_rate);
                if knobs == AsyncKnobs::default() {
                    "async".into()
                } else if knobs.delivery == DeliveryRule::default() {
                    format!("async(i={i},l={l},d={d})")
                } else {
                    format!("async(i={i},l={l},d={d},dv={})", knobs.delivery.label())
                }
            }
        }
    }

    /// The label of the mode whose runs this mode must measure identically
    /// to, used for trial-seed derivation: the event-driven runtime is an
    /// execution strategy for the synchronous semantics, so `event(cd=N)`
    /// cells draw the same per-trial seeds as `sync(cd=N)` cells — that
    /// shared stream is what lets the CI equivalence gate compare their
    /// records byte for byte.  Sync and async modes are their own seed
    /// anchor (their labels are returned unchanged, keeping every
    /// historical seed stable).
    pub fn seed_label(&self) -> String {
        match *self {
            ExecutionMode::Event { cooldown } => ExecutionMode::Sync { cooldown }.label(),
            _ => self.label(),
        }
    }

    /// Parses a mode label — the bare names (`sync` / `async` / `event`,
    /// their default parameterisations) and every label
    /// [`ExecutionMode::label`] emits — through the shared `name(k=v)`
    /// grammar, with named-field errors: `sync(cd=N)` and
    /// `async(i=RATE,l=LATENCY,d=DROP[,dv=RULE])` round-trip exactly, and
    /// the async knobs are validated by [`AsyncKnobs::new`] so an
    /// out-of-range label is rejected at parse, not deep in a trial.
    pub fn parse_label(s: &str) -> Result<Self, String> {
        let (name, mut params) = selfsim_env::parse_label(s)?;
        match name {
            "sync" => {
                let cooldown = params.take::<usize>("cd")?.unwrap_or(0);
                params.finish(&["cd"])?;
                Ok(ExecutionMode::Sync { cooldown })
            }
            "event" => {
                let cooldown = params.take::<usize>("cd")?.unwrap_or(0);
                params.finish(&["cd"])?;
                Ok(ExecutionMode::Event { cooldown })
            }
            "async" => {
                let defaults = AsyncKnobs::default();
                let interaction_rate = params
                    .take::<f64>("i")?
                    .unwrap_or(defaults.interaction_rate);
                let max_latency = params.take::<usize>("l")?.unwrap_or(defaults.max_latency);
                let drop_rate = params.take::<f64>("d")?.unwrap_or(defaults.drop_rate);
                let delivery = match params.take_str("dv") {
                    Some(rule) => DeliveryRule::parse_label(&rule)?,
                    None => defaults.delivery,
                };
                params.finish(&["i", "l", "d", "dv"])?;
                AsyncKnobs::new(interaction_rate, max_latency, drop_rate, delivery)
                    .map(ExecutionMode::Async)
            }
            other => Err(format!(
                "unknown mode `{other}` (expected sync, sync(cd=N), event, event(cd=N), \
                 async, or async(i=RATE,l=LATENCY,d=DROP,dv=RULE))"
            )),
        }
    }

    /// Runs `system` under `environment` in this mode: `budget` is rounds
    /// (sync, event) or ticks (async), and `seed` drives all the run's
    /// randomness.  Runs with the same seed, system and environment are
    /// identical.
    pub fn run<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        environment: &mut E,
        seed: u64,
        budget: usize,
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment + ?Sized,
    {
        self.run_with(
            system,
            environment,
            seed,
            budget,
            &mut EventLog::disabled(),
            |_| {},
        )
    }

    /// [`ExecutionMode::run`], emitting the run's structured
    /// [`selfsim_trace::TraceEvent`] stream into `events` (pass
    /// [`EventLog::disabled`] to record nothing) and handing every executed
    /// round or tick to `observe`.  Neither changes the run.
    pub fn run_with<S, E>(
        &self,
        system: &SelfSimilarSystem<S>,
        environment: &mut E,
        seed: u64,
        budget: usize,
        events: &mut EventLog,
        observe: impl FnMut(&Round<'_, S>),
    ) -> SimulationReport<S>
    where
        S: Ord + Clone + std::fmt::Debug,
        E: Environment + ?Sized,
    {
        let driver = |cooldown| Driver {
            seed,
            budget,
            cooldown,
        };
        match *self {
            ExecutionMode::Async(knobs) => {
                run_messages(knobs, driver(0), system, environment, events, observe)
            }
            ExecutionMode::Sync { cooldown } | ExecutionMode::Event { cooldown } => {
                let (mut report, stepped) =
                    run_rounds(driver(cooldown), system, environment, events, observe);
                if let ExecutionMode::Event { .. } = self {
                    let metrics = &mut report.metrics;
                    metrics.environment = format!("event/{}", metrics.environment);
                    let rounds = metrics.rounds_executed;
                    metrics.events_processed = 2 * rounds + stepped.total;
                    // At most the stepped groups of one round plus its
                    // boundary wait at once; an empty run never has a
                    // pending event.
                    metrics.peak_queue_depth = if rounds == 0 { 0 } else { stepped.peak + 1 };
                }
                report
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_algorithms::minimum;
    use selfsim_env::{RandomChurnEnv, StaticEnv, Topology};

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

    #[test]
    fn labels_parse_back_for_defaults() {
        for mode in ExecutionMode::both() {
            assert_eq!(ExecutionMode::parse_label(&mode.label()), Ok(mode));
        }
        assert_eq!(ExecutionMode::Sync { cooldown: 7 }.label(), "sync(cd=7)");
        assert_eq!(ExecutionMode::event().label(), "event");
        assert_eq!(
            ExecutionMode::parse_label("event"),
            Ok(ExecutionMode::event())
        );
        assert_eq!(ExecutionMode::Event { cooldown: 7 }.label(), "event(cd=7)");
        assert_eq!(
            asynchronous(0.25, 5, 0.1, DeliveryRule::default()).label(),
            "async(i=0.25,l=5,d=0.1)"
        );
        let err = ExecutionMode::parse_label("nonsense").unwrap_err();
        assert!(err.contains("unknown mode `nonsense`"), "{err}");
    }

    #[test]
    fn parameterised_labels_round_trip() {
        // The round-trip law: every label the mode can emit parses back
        // to the identical cell, including nested delivery-rule labels.
        for mode in [
            ExecutionMode::Sync { cooldown: 7 },
            ExecutionMode::Event { cooldown: 7 },
            asynchronous(0.25, 5, 0.1, DeliveryRule::default()),
            ExecutionMode::asynchronous_with(DeliveryRule::ValidAtSend),
            ExecutionMode::asynchronous_with(DeliveryRule::AnyOverlap { grace: 4 }),
        ] {
            assert_eq!(
                ExecutionMode::parse_label(&mode.label()),
                Ok(mode),
                "{}",
                mode.label()
            );
        }
        // Partial parameterisations keep the defaults for omitted knobs.
        assert_eq!(
            ExecutionMode::parse_label("async(d=0.2)").expect("valid label"),
            asynchronous(0.5, 3, 0.2, DeliveryRule::default())
        );
    }

    #[test]
    fn parse_label_rejects_bad_modes_with_the_field_named() {
        let err = ExecutionMode::parse_label("warp").unwrap_err();
        assert!(err.contains("unknown mode `warp`"), "{err}");
        let err = ExecutionMode::parse_label("sync(cd=x)").unwrap_err();
        assert!(err.contains("`cd`"), "{err}");
        let err = ExecutionMode::parse_label("sync(i=0.5)").unwrap_err();
        assert!(err.contains("unknown parameter i"), "{err}");
        // Out-of-range knobs fail the `AsyncKnobs` validation at parse.
        let err = ExecutionMode::parse_label("async(l=0)").unwrap_err();
        assert!(err.contains("max_latency"), "{err}");
        let err = ExecutionMode::parse_label("async(d=1.5)").unwrap_err();
        assert!(err.contains("drop_rate"), "{err}");
        // A bad nested delivery label is the delivery parser's error.
        let err = ExecutionMode::parse_label("async(dv=nonsense)").unwrap_err();
        assert!(err.contains("unknown delivery rule"), "{err}");
    }

    #[test]
    fn non_default_delivery_rules_show_in_the_label() {
        assert_eq!(ExecutionMode::asynchronous().label(), "async");
        assert_eq!(
            ExecutionMode::asynchronous_with(DeliveryRule::ValidAtSend).label(),
            "async(i=0.5,l=3,d=0,dv=valid-at-send)"
        );
        assert_eq!(
            ExecutionMode::asynchronous_with(DeliveryRule::AnyOverlap { grace: 4 }).label(),
            "async(i=0.5,l=3,d=0,dv=any-overlap(g=4))"
        );
        // The historical rule is the default, so it stays out of labels.
        assert_eq!(
            ExecutionMode::asynchronous_with(DeliveryRule::ValidAtDelivery),
            ExecutionMode::asynchronous()
        );
    }

    #[test]
    fn delivery_accessor_distinguishes_the_runtimes() {
        assert_eq!(ExecutionMode::sync().delivery(), None);
        assert_eq!(ExecutionMode::sync().delivery_label(), "-");
        assert_eq!(
            ExecutionMode::asynchronous().delivery(),
            Some(DeliveryRule::ValidAtDelivery)
        );
        assert_eq!(
            ExecutionMode::asynchronous_with(DeliveryRule::ValidAtSend).delivery_label(),
            "valid-at-send"
        );
    }

    #[test]
    fn all_runtimes_converge_through_the_mode() {
        let sys = minimum::system(&[9, 4, 7, 1, 5, 8], Topology::ring(6));
        let [sync, asynchronous] = ExecutionMode::both();
        for mode in [sync, asynchronous, ExecutionMode::event()] {
            let mut env = StaticEnv::new(Topology::ring(6));
            let report = mode.run(&sys, &mut env, 3, 100_000);
            assert!(report.converged(), "{}", mode.label());
            assert_eq!(report.final_state, vec![1; 6], "{}", mode.label());
        }
    }

    #[test]
    fn event_mode_seeds_anchor_to_the_matching_sync_cell() {
        assert_eq!(ExecutionMode::event().seed_label(), "sync");
        assert_eq!(
            ExecutionMode::Event { cooldown: 5 }.seed_label(),
            "sync(cd=5)"
        );
        // The existing modes are their own anchor — historical seeds (and
        // hence every committed fixture) are untouched.
        assert_eq!(ExecutionMode::sync().seed_label(), "sync");
        assert_eq!(
            ExecutionMode::Sync { cooldown: 5 }.seed_label(),
            "sync(cd=5)"
        );
        assert_eq!(ExecutionMode::asynchronous().seed_label(), "async");
    }

    #[test]
    fn event_mode_carries_its_cooldown_into_the_runtime() {
        let sys = minimum::system(&[9, 2, 7], Topology::complete(3));
        let mut env = StaticEnv::new(Topology::complete(3));
        let report = ExecutionMode::Event { cooldown: 6 }.run(&sys, &mut env, 5, 50_000);
        assert!(report.converged());
        assert_eq!(report.metrics.environment, "event/static");
        assert_eq!(
            report.metrics.rounds_executed,
            report.rounds_to_convergence().expect("converged") + 6
        );
    }

    #[test]
    fn mode_runtime_matches_direct_simulator_run() {
        // perfbench measures the engine through the `SyncSimulator` and
        // `EventSimulator` shims, so they must report exactly what the
        // mode does at the same seed and budget.
        use crate::{EventConfig, EventSimulator, SyncConfig, SyncSimulator};
        use selfsim_env::{Environment, PeriodicPartitionEnv};
        let ring = || Topology::ring(8);
        let values = [6, 5, 4, 3, 2, 1, 8, 7];
        let sys = minimum::system_with_step(&values, ring(), minimum::partial_descent_step());
        let envs: [fn(Topology) -> Box<dyn Environment>; 3] = [
            |topo| Box::new(StaticEnv::new(topo)),
            |topo| Box::new(RandomChurnEnv::new(topo, 0.5, 1.0)),
            |topo| Box::new(PeriodicPartitionEnv::new(topo, 2, 8)),
        ];
        for env in envs {
            for cooldown in [0, 16] {
                let (budget, seed) = (500, 11);
                let sync = SyncSimulator::new(SyncConfig {
                    max_rounds: budget,
                    cooldown_rounds: cooldown,
                    seed,
                });
                let event = EventSimulator::new(EventConfig {
                    max_rounds: budget,
                    cooldown_rounds: cooldown,
                    seed,
                });
                let sync = sync.run(&sys, env(ring()).as_mut());
                let event = event.run(&sys, env(ring()).as_mut());
                for (shim, mode) in [
                    (sync, ExecutionMode::Sync { cooldown }),
                    (event, ExecutionMode::Event { cooldown }),
                ] {
                    let direct = mode.run(&sys, env(ring()).as_mut(), seed, budget);
                    assert_eq!(shim.metrics, direct.metrics, "{}", mode.label());
                    assert_eq!(shim.final_state, direct.final_state, "{}", mode.label());
                }
            }
        }
    }

    #[test]
    fn async_mode_carries_its_knobs_into_the_runtime() {
        let sys = minimum::system(&[9, 2, 7, 5, 8, 4], Topology::ring(6));
        let mode = asynchronous(1.0, 1, 0.0, DeliveryRule::default());
        let mut env = StaticEnv::new(Topology::ring(6));
        let report = mode.run(&sys, &mut env, 5, 50_000);
        assert!(report.converged());
        assert_eq!(report.metrics.environment, "async/static");
    }
}
