//! Per-trial execution and the flat record it produces.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

use selfsim_trace::{RunMetrics, TraceEvent};

use crate::algorithm::TrialSetup;
use crate::scenario::Scenario;

/// The flat, trajectory-free result of one trial — what the campaign emits
/// as one JSON line and what the aggregator folds.
///
/// This is [`RunMetrics`] minus the per-round objective trajectory (which
/// grows with the round budget and would defeat streaming aggregation), plus
/// the scenario coordinates and two scalar digests of the trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialRecord {
    /// The scenario cell this trial belongs to ([`Scenario::name`]).
    pub scenario: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Topology-family label.
    pub topology: String,
    /// Environment-model label.
    pub environment: String,
    /// Execution-mode label (`sync` / `async`, plus non-default knobs).
    pub mode: String,
    /// Delivery-rule label for async cells
    /// ([`DeliveryRule::label`](selfsim_runtime::DeliveryRule::label));
    /// `-` for sync cells, which have no messages in flight.
    pub delivery: String,
    /// Number of agents.
    pub agents: usize,
    /// Trial index within the scenario.
    pub trial: u64,
    /// The derived seed the trial ran with.
    pub seed: u64,
    /// Whether the trial reached (and held) the target state.
    pub converged: bool,
    /// The algorithm's declared expectation
    /// ([`Expectation::label`](crate::Expectation::label)).
    pub expected: String,
    /// Whether the observed outcome matches the expectation given the
    /// cell's fragmentation (see [`crate::Expectation::met`]).
    pub meets_expectation: bool,
    /// Rounds to convergence (`None` when the budget ran out first).
    pub rounds_to_convergence: Option<usize>,
    /// Total rounds executed.
    pub rounds_executed: usize,
    /// Group steps attempted.
    pub group_steps: usize,
    /// Group steps that changed state.
    pub effective_group_steps: usize,
    /// Messages exchanged.
    pub messages: usize,
    /// Messages lost in flight to the drop roll (zero whenever the cell's
    /// `drop_rate` is zero, and always zero for sync cells).
    pub messages_dropped: usize,
    /// Delivery-rule re-queue decisions (one per due-but-blocked message per
    /// tick): non-zero only under `any-overlap` grace windows, structurally
    /// zero for `valid-at-delivery`, `valid-at-send` and every sync cell.
    /// Omitted from the JSONL encoding when zero, so requeue-free campaigns
    /// stay byte-identical to pre-observability outputs.
    pub messages_requeued: usize,
    /// The event-driven runtime's work count
    /// ([`selfsim_trace::RunMetrics::events_processed`]); structurally zero
    /// for sync and async cells.  Omitted from the JSONL encoding when zero,
    /// so sync/async campaigns stay byte-identical to pre-event-runtime
    /// outputs.
    pub events_processed: usize,
    /// The event-driven runtime's peak round
    /// ([`selfsim_trace::RunMetrics::peak_queue_depth`]); zero (and omitted
    /// from the JSONL encoding) for the other runtimes.
    pub peak_queue_depth: usize,
    /// `h(S(0))`.
    pub initial_objective: f64,
    /// `h` of the final state.
    pub final_objective: f64,
    /// Whether the objective trajectory never increased (the global
    /// manifestation of every group step being an improvement).
    pub objective_monotone: bool,
}

// Manual (rather than derived) impls so `messages_requeued`,
// `events_processed` and `peak_queue_depth` can be skipped when zero: the
// derive emits every field unconditionally and errors on missing fields,
// either of which would break the byte-identity contract against records
// produced before the columns existed.
impl Serialize for TrialRecord {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("scenario".into(), self.scenario.to_value()),
            ("algorithm".into(), self.algorithm.to_value()),
            ("topology".into(), self.topology.to_value()),
            ("environment".into(), self.environment.to_value()),
            ("mode".into(), self.mode.to_value()),
            ("delivery".into(), self.delivery.to_value()),
            ("agents".into(), self.agents.to_value()),
            ("trial".into(), self.trial.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("converged".into(), self.converged.to_value()),
            ("expected".into(), self.expected.to_value()),
            (
                "meets_expectation".into(),
                self.meets_expectation.to_value(),
            ),
            (
                "rounds_to_convergence".into(),
                self.rounds_to_convergence.to_value(),
            ),
            ("rounds_executed".into(), self.rounds_executed.to_value()),
            ("group_steps".into(), self.group_steps.to_value()),
            (
                "effective_group_steps".into(),
                self.effective_group_steps.to_value(),
            ),
            ("messages".into(), self.messages.to_value()),
            ("messages_dropped".into(), self.messages_dropped.to_value()),
        ];
        if self.messages_requeued != 0 {
            fields.push((
                "messages_requeued".into(),
                self.messages_requeued.to_value(),
            ));
        }
        if self.events_processed != 0 {
            fields.push(("events_processed".into(), self.events_processed.to_value()));
        }
        if self.peak_queue_depth != 0 {
            fields.push(("peak_queue_depth".into(), self.peak_queue_depth.to_value()));
        }
        fields.push((
            "initial_objective".into(),
            self.initial_objective.to_value(),
        ));
        fields.push(("final_objective".into(), self.final_objective.to_value()));
        fields.push((
            "objective_monotone".into(),
            self.objective_monotone.to_value(),
        ));
        Value::Object(fields)
    }
}

fn required<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
    T::from_value(
        v.get_field(name)
            .ok_or_else(|| serde::Error(format!("missing field {name}")))?,
    )
}

impl Deserialize for TrialRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(TrialRecord {
            scenario: required(v, "scenario")?,
            algorithm: required(v, "algorithm")?,
            topology: required(v, "topology")?,
            environment: required(v, "environment")?,
            mode: required(v, "mode")?,
            delivery: required(v, "delivery")?,
            agents: required(v, "agents")?,
            trial: required(v, "trial")?,
            seed: required(v, "seed")?,
            converged: required(v, "converged")?,
            expected: required(v, "expected")?,
            meets_expectation: required(v, "meets_expectation")?,
            rounds_to_convergence: required(v, "rounds_to_convergence")?,
            rounds_executed: required(v, "rounds_executed")?,
            group_steps: required(v, "group_steps")?,
            effective_group_steps: required(v, "effective_group_steps")?,
            messages: required(v, "messages")?,
            messages_dropped: required(v, "messages_dropped")?,
            messages_requeued: match v.get_field("messages_requeued") {
                Some(x) => usize::from_value(x)?,
                None => 0,
            },
            events_processed: match v.get_field("events_processed") {
                Some(x) => usize::from_value(x)?,
                None => 0,
            },
            peak_queue_depth: match v.get_field("peak_queue_depth") {
                Some(x) => usize::from_value(x)?,
                None => 0,
            },
            initial_objective: required(v, "initial_objective")?,
            final_objective: required(v, "final_objective")?,
            objective_monotone: required(v, "objective_monotone")?,
        })
    }
}

impl TrialRecord {
    /// The record's canonical JSONL form: one JSON object plus the line
    /// terminator.  Every emission path (the streaming runner's spill
    /// buffers, [`crate::emit::write_jsonl`], shard outputs) goes through
    /// this one serializer, which is what makes "streamed bytes ==
    /// collected-then-emitted bytes" and the shard-merge byte identity
    /// hold by construction.
    pub fn to_jsonl_line(&self) -> std::io::Result<Vec<u8>> {
        let mut line = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
            .into_bytes();
        line.push(b'\n');
        Ok(line)
    }

    /// Parses one JSONL line back into a record (the inverse of
    /// [`TrialRecord::to_jsonl_line`]); used by the shard-merge path to
    /// re-aggregate.
    pub fn from_jsonl_line(line: &str) -> Result<Self, String> {
        serde_json::from_str(line.trim_end_matches('\n'))
            .map_err(|e| format!("malformed trial record line: {e}"))
    }

    /// Flattens a run's metrics into a record for `scenario`'s cell.
    pub fn from_metrics(scenario: &Scenario, trial: u64, seed: u64, m: &RunMetrics) -> Self {
        let expectation = scenario.algorithm.expectation();
        TrialRecord {
            scenario: scenario.name(),
            algorithm: scenario.algorithm.label().to_string(),
            topology: scenario.topology.label(),
            environment: scenario.env.label(),
            mode: scenario.mode.label(),
            delivery: scenario.mode.delivery_label(),
            agents: scenario.n,
            trial,
            seed,
            converged: m.converged(),
            expected: expectation.label().to_string(),
            meets_expectation: expectation.met(m.converged(), scenario.fragmenting()),
            rounds_to_convergence: m.rounds_to_convergence,
            rounds_executed: m.rounds_executed,
            group_steps: m.group_steps,
            effective_group_steps: m.effective_group_steps,
            messages: m.messages,
            messages_dropped: m.messages_dropped,
            messages_requeued: m.messages_requeued,
            events_processed: m.events_processed,
            peak_queue_depth: m.peak_queue_depth,
            initial_objective: m.initial_objective().unwrap_or(0.0),
            final_objective: m.final_objective().unwrap_or(0.0),
            objective_monotone: m.objective_is_monotone(1e-9),
        }
    }
}

/// Runs one trial of `scenario` with the given derived seed.
///
/// Everything random about the trial — the initial values, a random
/// topology's edges, the environment's choices and any randomness in the
/// group steps — is derived from `seed` alone, so a trial is reproducible
/// in isolation regardless of which thread runs it or what ran before.
pub fn run_trial(scenario: &Scenario, trial: u64, seed: u64) -> TrialRecord {
    run_trial_impl(scenario, trial, seed, None)
}

/// Runs one trial like [`run_trial`] while recording its structured event
/// stream, framed by `trial-start` (carrying the full replay coordinates:
/// round-trippable scenario labels plus the derived seed) and `trial-end`
/// events so each trial's block is self-contained.
///
/// The record is identical to the untraced run's — recording reads the
/// simulation, it never perturbs it.
pub fn run_trial_traced(
    scenario: &Scenario,
    trial: u64,
    seed: u64,
) -> (TrialRecord, Vec<TraceEvent>) {
    let mut events = vec![TraceEvent::TrialStart {
        scenario: scenario.name(),
        algorithm: scenario.algorithm.label().to_string(),
        topology: scenario.topology.label(),
        environment: scenario.env.label(),
        mode: scenario.mode.label(),
        delivery: scenario.mode.delivery_label(),
        agents: scenario.n,
        trial,
        seed,
    }];
    let record = run_trial_impl(scenario, trial, seed, Some(&mut events));
    events.push(TraceEvent::TrialEnd {
        trial,
        converged: record.converged,
        ticks: record.rounds_executed as u64,
    });
    (record, events)
}

fn run_trial_impl(
    scenario: &Scenario,
    trial: u64,
    seed: u64,
    events: Option<&mut Vec<TraceEvent>>,
) -> TrialRecord {
    // Setup (random topologies, then initial values) draws from its own
    // stream so that the simulation stream matches a direct simulator run
    // with the same seed.
    let mut setup_rng = StdRng::seed_from_u64(seed ^ 0xD1FF_E7ED_05E7_u64);
    let topology = scenario.topology.build(scenario.n, &mut setup_rng);
    let mut env = scenario.env.build(topology.clone());
    let mut setup = TrialSetup {
        n: scenario.n,
        topology,
        mode: scenario.mode,
        max_rounds: scenario.max_rounds,
        seed,
        rng: &mut setup_rng,
        events,
    };
    let metrics = scenario.algorithm.run(&mut setup, env.as_mut());
    TrialRecord::from_metrics(scenario, trial, seed, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AlgorithmKind, EnvModel, Scenario, TopologyFamily};
    use crate::{ExecutionMode, Registry};

    fn tiny(algorithm: AlgorithmKind, env: EnvModel) -> Scenario {
        Scenario::builder(algorithm)
            .topology(TopologyFamily::Ring)
            .env(env)
            .agents(6)
            .max_rounds(50_000)
            .build()
    }

    #[test]
    fn every_registered_algorithm_meets_its_expectation_under_static_env() {
        for algorithm in Registry::builtin().iter() {
            let scenario = Scenario::builder(algorithm.clone())
                .topology(TopologyFamily::Ring)
                .agents(6)
                .max_rounds(50_000)
                .build();
            let record = run_trial(&scenario, 0, 42);
            // Static + sync never fragments, so even the counterexample
            // must converge here.
            assert!(record.converged, "{} did not converge", scenario.name());
            assert!(record.meets_expectation, "{}", scenario.name());
        }
    }

    #[test]
    fn shim_variants_still_converge_and_descend() {
        for &algorithm in AlgorithmKind::all() {
            let scenario = tiny(algorithm, EnvModel::Static);
            let record = run_trial(&scenario, 0, 42);
            assert!(record.converged, "{} did not converge", scenario.name());
            assert!(record.objective_monotone, "{}", scenario.name());
        }
    }

    #[test]
    fn trials_are_seed_deterministic() {
        let scenario = tiny(
            AlgorithmKind::Minimum,
            EnvModel::RandomChurn {
                p_edge: 0.5,
                p_agent: 0.9,
            },
        );
        let a = run_trial(&scenario, 3, 777);
        let b = run_trial(&scenario, 3, 777);
        assert_eq!(a, b);
        let c = run_trial(&scenario, 3, 778);
        assert_eq!(a.scenario, c.scenario);
    }

    #[test]
    fn async_trials_are_seed_deterministic() {
        let scenario = Scenario::builder(AlgorithmKind::Minimum)
            .topology(TopologyFamily::Ring)
            .env(EnvModel::RandomChurn {
                p_edge: 0.5,
                p_agent: 0.9,
            })
            .mode(ExecutionMode::asynchronous())
            .agents(6)
            .max_rounds(100_000)
            .build();
        let a = run_trial(&scenario, 1, 999);
        let b = run_trial(&scenario, 1, 999);
        assert_eq!(a, b);
        assert_eq!(a.mode, "async");
        assert_eq!(a.delivery, "valid-at-delivery");
        assert_eq!(a.messages_dropped, 0, "default drop_rate is zero");
        assert!(a.converged, "minimum converges asynchronously under churn");
    }

    #[test]
    fn delivery_rule_is_a_scenario_dimension() {
        use selfsim_runtime::DeliveryRule;
        let scenario = |rule| {
            Scenario::builder(AlgorithmKind::Minimum)
                .topology(TopologyFamily::Complete)
                .env(EnvModel::PeriodicPartition {
                    blocks: 2,
                    period: 8,
                })
                .mode(ExecutionMode::asynchronous_with(rule))
                .agents(8)
                .max_rounds(3_000)
                .build()
        };
        let stalled = run_trial(&scenario(DeliveryRule::ValidAtDelivery), 0, 77);
        assert!(
            !stalled.converged,
            "single-tick merges starve the historical rule"
        );
        let sent = run_trial(&scenario(DeliveryRule::ValidAtSend), 0, 77);
        assert!(sent.converged);
        assert_eq!(sent.delivery, "valid-at-send");
        assert!(
            sent.scenario.contains("dv=valid-at-send"),
            "the rule is part of the cell identity: {}",
            sent.scenario
        );
        assert_ne!(stalled.scenario, sent.scenario);
    }

    #[test]
    fn random_topology_trials_converge() {
        let scenario = Scenario::builder(AlgorithmKind::Minimum)
            .topology(TopologyFamily::Random { p: 0.3 })
            .env(EnvModel::MarkovLink {
                p_up: 0.4,
                p_down: 0.4,
            })
            .agents(10)
            .max_rounds(100_000)
            .build();
        for trial in 0..3u64 {
            let record = run_trial(&scenario, trial, 1000 + trial);
            assert!(record.converged, "trial {trial}");
        }
    }

    #[test]
    fn counterexample_diverges_under_partition_and_meets_expectation() {
        let scenario = Scenario::builder(
            Registry::builtin()
                .resolve("circumscribing-circle")
                .expect("builtin registry label"),
        )
        .topology(TopologyFamily::Ring)
        .env(EnvModel::PeriodicPartition {
            blocks: 2,
            period: 8,
        })
        .agents(8)
        .max_rounds(2_000)
        .build();
        let record = run_trial(&scenario, 0, 5);
        assert!(!record.converged, "fragmented naive circle must overshoot");
        assert!(record.meets_expectation);
        assert_eq!(record.expected, "diverge-under-fragmentation");
    }

    #[test]
    fn baseline_record_reports_snapshot_stall_under_adversary() {
        let scenario = Scenario::builder(
            Registry::builtin()
                .resolve("snapshot")
                .expect("builtin registry label"),
        )
        .topology(TopologyFamily::Complete)
        .env(EnvModel::Adversarial { silence: 0 })
        .agents(6)
        .max_rounds(3_000)
        .build();
        let record = run_trial(&scenario, 0, 9);
        assert!(!record.converged, "one edge at a time: no global snapshot");
        assert!(!record.meets_expectation, "baseline expected to converge");
    }

    #[test]
    fn jsonl_line_round_trips() {
        let scenario = tiny(AlgorithmKind::Minimum, EnvModel::Static);
        let record = run_trial(&scenario, 2, 77);
        let line = record.to_jsonl_line().expect("record serializes");
        assert_eq!(line.last(), Some(&b'\n'));
        let text = String::from_utf8(line).expect("JSONL is UTF-8");
        assert_eq!(
            TrialRecord::from_jsonl_line(&text).expect("line parses back"),
            record
        );
        // Without the trailing newline too (a shard file's final line).
        assert_eq!(
            TrialRecord::from_jsonl_line(text.trim_end()).expect("parses without newline"),
            record
        );
        assert!(TrialRecord::from_jsonl_line("{not json")
            .unwrap_err()
            .contains("malformed trial record line"));
    }

    #[test]
    fn record_carries_scenario_coordinates() {
        let scenario = tiny(AlgorithmKind::Sum, EnvModel::Static);
        let record = run_trial(&scenario, 5, 99);
        assert_eq!(record.agents, 6);
        assert_eq!(record.trial, 5);
        assert_eq!(record.seed, 99);
        assert_eq!(record.algorithm, "sum");
        assert_eq!(record.mode, "sync");
        assert_eq!(record.delivery, "-", "sync cells have no delivery rule");
        assert_eq!(record.messages_dropped, 0, "sync cells drop nothing");
        assert_eq!(record.expected, "converge");
        assert_eq!(record.scenario, scenario.name());
    }
}
