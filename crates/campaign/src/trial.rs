//! Per-trial execution and the flat record it produces.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Value};

use selfsim_trace::json::JsonLine;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::algorithm::{Expectation, TrialSetup};
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

/// Reads the required field `name` of a parsed JSON line.
pub(crate) fn required<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
    T::from_value(
        v.get_field(name)
            .ok_or_else(|| serde::Error(format!("missing field {name}")))?,
    )
}

// The skip-when-zero columns (`messages_requeued`, `events_processed`,
// `peak_queue_depth`; see [`TrialRecord::write_jsonl`]) parse back as zero
// when absent, so records produced before the columns existed still load;
// every other field is required.
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
    /// Appends the record's canonical JSONL form to `out`: one JSON object
    /// plus the line terminator.
    ///
    /// The fields appear in declaration order, except that
    /// `messages_requeued`, `events_processed` and `peak_queue_depth` are
    /// omitted when zero, so campaigns without requeues or event cells stay
    /// byte-identical to records produced before those columns existed.  A
    /// missing `rounds_to_convergence` and a non-finite objective are
    /// `null`.  The bytes come from [`selfsim_trace::json`], the one JSONL
    /// writer, which also writes trace events.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        let mut line = JsonLine::new(out);
        line.str("scenario", &self.scenario);
        line.str("algorithm", &self.algorithm);
        line.str("topology", &self.topology);
        line.str("environment", &self.environment);
        line.str("mode", &self.mode);
        line.str("delivery", &self.delivery);
        line.uint("agents", self.agents as u64);
        line.uint("trial", self.trial);
        line.uint("seed", self.seed);
        line.bool("converged", self.converged);
        line.str("expected", &self.expected);
        line.bool("meets_expectation", self.meets_expectation);
        match self.rounds_to_convergence {
            Some(rounds) => line.uint("rounds_to_convergence", rounds as u64),
            None => line.null("rounds_to_convergence"),
        }
        line.uint("rounds_executed", self.rounds_executed as u64);
        line.uint("group_steps", self.group_steps as u64);
        line.uint("effective_group_steps", self.effective_group_steps as u64);
        line.uint("messages", self.messages as u64);
        line.uint("messages_dropped", self.messages_dropped as u64);
        for (key, count) in [
            ("messages_requeued", self.messages_requeued),
            ("events_processed", self.events_processed),
            ("peak_queue_depth", self.peak_queue_depth),
        ] {
            if count != 0 {
                line.uint(key, count as u64);
            }
        }
        line.float("initial_objective", self.initial_objective);
        line.float("final_objective", self.final_objective);
        line.bool("objective_monotone", self.objective_monotone);
        line.end();
    }

    /// The record's canonical JSONL line, from [`TrialRecord::write_jsonl`]
    /// — the one record serializer.  Every emission path (the streaming
    /// runner's spill buffers, [`crate::emit::write_jsonl`], shard outputs)
    /// goes through that writer, which is what makes "streamed bytes ==
    /// collected-then-emitted bytes" and the shard-merge byte identity hold
    /// by construction.  Never fails; the `io::Result` stays because the
    /// repository benchmark (`perfbench`) calls this signature.
    pub fn to_jsonl_line(&self) -> std::io::Result<Vec<u8>> {
        let mut line = Vec::with_capacity(LINE_CAPACITY);
        self.write_jsonl(&mut line);
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
        Columns::of(scenario).record(trial, seed, m)
    }
}

/// Room for a typical record line (about 470 bytes), so writing one
/// rarely reallocates.
pub(crate) const LINE_CAPACITY: usize = 512;

/// The record columns that are the same for every trial of one cell:
/// its labels, size, expectation and fragmentation.  Rendering them takes
/// a dozen label calls, so the runner builds one `Columns` per cell when a
/// stream starts and stamps each trial's record from it.
pub(crate) struct Columns {
    scenario: String,
    algorithm: String,
    topology: String,
    environment: String,
    mode: String,
    delivery: String,
    agents: usize,
    expectation: Expectation,
    fragmenting: bool,
}

impl Columns {
    /// Renders `scenario`'s columns.
    pub(crate) fn of(scenario: &Scenario) -> Self {
        Columns {
            scenario: scenario.name(),
            algorithm: scenario.algorithm.label().to_string(),
            topology: scenario.topology.label(),
            environment: scenario.env.label(),
            mode: scenario.mode.label(),
            delivery: scenario.mode.delivery_label(),
            agents: scenario.n,
            expectation: scenario.algorithm.expectation(),
            fragmenting: scenario.fragmenting(),
        }
    }

    /// The record of one trial of this cell.
    fn record(&self, trial: u64, seed: u64, m: &RunMetrics) -> TrialRecord {
        TrialRecord {
            scenario: self.scenario.clone(),
            algorithm: self.algorithm.clone(),
            topology: self.topology.clone(),
            environment: self.environment.clone(),
            mode: self.mode.clone(),
            delivery: self.delivery.clone(),
            agents: self.agents,
            trial,
            seed,
            converged: m.converged(),
            expected: self.expectation.label().to_string(),
            meets_expectation: self.expectation.met(m.converged(), self.fragmenting),
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
    let off = &mut EventLog::disabled();
    run_cell_trial(scenario, &Columns::of(scenario), trial, seed, off)
}

/// Runs one trial like [`run_trial`], with `scenario`'s columns already
/// rendered, while recording its structured event stream, framed by
/// `trial-start` (carrying the full replay coordinates: round-trippable
/// scenario labels plus the derived seed) and `trial-end` events so each
/// trial's block is self-contained.
///
/// The record is identical to the untraced run's — recording reads the
/// simulation, it never perturbs it.
pub(crate) fn run_cell_trial_traced(
    scenario: &Scenario,
    columns: &Columns,
    trial: u64,
    seed: u64,
) -> (TrialRecord, Vec<TraceEvent>) {
    let mut events = EventLog::enabled();
    events.emit(|| TraceEvent::TrialStart {
        scenario: columns.scenario.clone(),
        algorithm: columns.algorithm.clone(),
        topology: columns.topology.clone(),
        environment: columns.environment.clone(),
        mode: columns.mode.clone(),
        delivery: columns.delivery.clone(),
        agents: columns.agents,
        trial,
        seed,
    });
    let record = run_cell_trial(scenario, columns, trial, seed, &mut events);
    events.emit(|| TraceEvent::TrialEnd {
        trial,
        converged: record.converged,
        ticks: record.rounds_executed as u64,
    });
    (record, events.into_events())
}

/// [`run_trial`] with `scenario`'s columns already rendered, emitting the
/// trial's events into `events`.
pub(crate) fn run_cell_trial(
    scenario: &Scenario,
    columns: &Columns,
    trial: u64,
    seed: u64,
    events: &mut EventLog,
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
    columns.record(trial, seed, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::test_labels::{algorithm, env, topology};
    use crate::scenario::Scenario;
    use crate::{ExecutionMode, Registry};
    use rand::Rng;

    fn tiny(algorithm_label: &str, env_label: &str) -> Scenario {
        Scenario::builder(algorithm(algorithm_label))
            .topology(topology("ring"))
            .env(env(env_label))
            .agents(6)
            .max_rounds(50_000)
            .build()
    }

    #[test]
    fn every_registered_algorithm_meets_its_expectation_under_static_env() {
        for algorithm in Registry::builtin().iter() {
            let scenario = Scenario::builder(algorithm.clone())
                .topology(topology("ring"))
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
        for label in [
            "minimum",
            "maximum",
            "sum",
            "sorting",
            "second-smallest",
            "convex-hull",
        ] {
            let scenario = tiny(label, "static");
            let record = run_trial(&scenario, 0, 42);
            assert!(record.converged, "{} did not converge", scenario.name());
            assert!(record.objective_monotone, "{}", scenario.name());
        }
    }

    #[test]
    fn trials_are_seed_deterministic() {
        let scenario = tiny("minimum", "churn(e=0.5,a=0.9)");
        let a = run_trial(&scenario, 3, 777);
        let b = run_trial(&scenario, 3, 777);
        assert_eq!(a, b);
        let c = run_trial(&scenario, 3, 778);
        assert_eq!(a.scenario, c.scenario);
    }

    #[test]
    fn async_trials_are_seed_deterministic() {
        let scenario = Scenario::builder(algorithm("minimum"))
            .topology(topology("ring"))
            .env(env("churn(e=0.5,a=0.9)"))
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
            Scenario::builder(algorithm("minimum"))
                .topology(topology("complete"))
                .env(env("partition(b=2,t=8)"))
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
        let scenario = Scenario::builder(algorithm("minimum"))
            .topology(topology("random(p=0.3)"))
            .env(env("markov(up=0.4,down=0.4)"))
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
        let scenario = Scenario::builder(algorithm("circumscribing-circle"))
            .topology(topology("ring"))
            .env(env("partition(b=2,t=8)"))
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
        let scenario = Scenario::builder(algorithm("snapshot"))
            .topology(topology("complete"))
            .env(env("adversary(s=0)"))
            .agents(6)
            .max_rounds(3_000)
            .build();
        let record = run_trial(&scenario, 0, 9);
        assert!(!record.converged, "one edge at a time: no global snapshot");
        assert!(!record.meets_expectation, "baseline expected to converge");
    }

    #[test]
    fn jsonl_line_round_trips() {
        let scenario = tiny("minimum", "static");
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

    /// The record encoder [`TrialRecord::write_jsonl`] replaced: a `Value`
    /// tree rendered by `serde_json`.  Kept as the writer's oracle.
    fn oracle(r: &TrialRecord) -> Value {
        use serde::Serialize;
        let mut fields: Vec<(String, Value)> = vec![
            ("scenario".into(), r.scenario.to_value()),
            ("algorithm".into(), r.algorithm.to_value()),
            ("topology".into(), r.topology.to_value()),
            ("environment".into(), r.environment.to_value()),
            ("mode".into(), r.mode.to_value()),
            ("delivery".into(), r.delivery.to_value()),
            ("agents".into(), r.agents.to_value()),
            ("trial".into(), r.trial.to_value()),
            ("seed".into(), r.seed.to_value()),
            ("converged".into(), r.converged.to_value()),
            ("expected".into(), r.expected.to_value()),
            ("meets_expectation".into(), r.meets_expectation.to_value()),
            (
                "rounds_to_convergence".into(),
                r.rounds_to_convergence.to_value(),
            ),
            ("rounds_executed".into(), r.rounds_executed.to_value()),
            ("group_steps".into(), r.group_steps.to_value()),
            (
                "effective_group_steps".into(),
                r.effective_group_steps.to_value(),
            ),
            ("messages".into(), r.messages.to_value()),
            ("messages_dropped".into(), r.messages_dropped.to_value()),
        ];
        if r.messages_requeued != 0 {
            fields.push(("messages_requeued".into(), r.messages_requeued.to_value()));
        }
        if r.events_processed != 0 {
            fields.push(("events_processed".into(), r.events_processed.to_value()));
        }
        if r.peak_queue_depth != 0 {
            fields.push(("peak_queue_depth".into(), r.peak_queue_depth.to_value()));
        }
        fields.push(("initial_objective".into(), r.initial_objective.to_value()));
        fields.push(("final_objective".into(), r.final_objective.to_value()));
        fields.push(("objective_monotone".into(), r.objective_monotone.to_value()));
        Value::Object(fields)
    }

    /// A string mixing plain ASCII, every escaped byte class and
    /// multi-byte UTF-8.
    fn random_text(rng: &mut StdRng) -> String {
        const POOL: [char; 18] = [
            'a', 'Z', '7', '/', '(', '=', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}',
            '\u{00}', '\u{1F}', '\u{7F}', 'é', '😀',
        ];
        let len = rng.gen_range(0..12);
        (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect()
    }

    /// A float from the edges (non-finite, signed zero, extreme
    /// magnitudes), an integral value, or random bits.
    fn random_float(rng: &mut StdRng) -> f64 {
        const EDGES: [f64; 9] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        match rng.gen_range(0..4) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            1 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
            2 => rng.gen_range(-1e6..1e6),
            _ => f64::from_bits(rng.gen()),
        }
    }

    /// A count: the vendored `serde` encodes `usize` through `as i64`, so
    /// the oracle only agrees up to `i64::MAX` (no real count gets near).
    fn random_count(rng: &mut StdRng) -> usize {
        match rng.gen_range(0..3) {
            0 => 0,
            1 => rng.gen_range(1..1_000),
            _ => rng.gen_range(0..=i64::MAX as usize),
        }
    }

    fn random_record(rng: &mut StdRng) -> TrialRecord {
        TrialRecord {
            scenario: random_text(rng),
            algorithm: random_text(rng),
            topology: random_text(rng),
            environment: random_text(rng),
            mode: random_text(rng),
            delivery: random_text(rng),
            agents: random_count(rng),
            trial: rng.gen(),
            // Half the seeds lie above `i64::MAX`.
            seed: rng.gen(),
            converged: rng.gen(),
            expected: random_text(rng),
            meets_expectation: rng.gen(),
            rounds_to_convergence: rng.gen::<bool>().then(|| random_count(rng)),
            rounds_executed: random_count(rng),
            group_steps: random_count(rng),
            effective_group_steps: random_count(rng),
            messages: random_count(rng),
            messages_dropped: random_count(rng),
            messages_requeued: random_count(rng),
            events_processed: random_count(rng),
            peak_queue_depth: random_count(rng),
            initial_objective: random_float(rng),
            final_objective: random_float(rng),
            objective_monotone: rng.gen(),
        }
    }

    #[test]
    fn direct_writer_matches_the_value_encoder() {
        let mut rng = StdRng::seed_from_u64(0x5E1F);
        let mut line = Vec::new();
        for case in 0..4_000 {
            let record = random_record(&mut rng);
            line.clear();
            record.write_jsonl(&mut line);
            let expected = serde_json::to_string(&oracle(&record)).expect("oracle renders") + "\n";
            let text = std::str::from_utf8(&line).expect("JSONL is UTF-8");
            assert_eq!(text, expected, "case {case}: {record:?}");
            assert_eq!(
                record.to_jsonl_line().expect("record serializes"),
                line,
                "case {case}"
            );
            if record.initial_objective.is_finite() && record.final_objective.is_finite() {
                assert_eq!(
                    TrialRecord::from_jsonl_line(text).expect("line parses back"),
                    record,
                    "case {case}"
                );
            }
        }
    }

    /// The edge values render as the `Value` encoder renders them.
    #[test]
    fn direct_writer_renders_edge_values_like_the_encoder() {
        let mut record = run_trial(&tiny("minimum", "static"), 0, 1);
        record.scenario = "q\"b\\s\n\r\t\u{08}\u{0C}\u{01}\u{1F}é".into();
        record.seed = u64::MAX;
        record.rounds_to_convergence = None;
        for x in [f64::NAN, f64::INFINITY, -0.0, 1e300, 5e-324, 3.0, 2.5] {
            record.initial_objective = x;
            record.final_objective = -x;
            let line = record.to_jsonl_line().expect("record serializes");
            let expected = serde_json::to_string(&oracle(&record)).expect("oracle renders") + "\n";
            assert_eq!(String::from_utf8(line).expect("UTF-8"), expected, "{x}");
        }
        let line = String::from_utf8(record.to_jsonl_line().expect("serializes")).expect("UTF-8");
        assert!(
            line.contains(r#""scenario":"q\"b\\s\n\r\t\b\f\u0001\u001fé""#),
            "{line}"
        );
        assert!(line.contains(r#""seed":18446744073709551615,"#), "{line}");
        assert!(line.contains(r#""rounds_to_convergence":null,"#), "{line}");
        assert!(
            line.contains(r#""initial_objective":2.5,"final_objective":-2.5,"#),
            "{line}"
        );
    }

    #[test]
    fn record_carries_scenario_coordinates() {
        let scenario = tiny("sum", "static");
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
