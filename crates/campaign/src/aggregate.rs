//! Streaming aggregation of trial records into per-scenario summaries.

use std::collections::BTreeMap;

use selfsim_trace::json::JsonLine;
use selfsim_trace::Summary;

use crate::trial::TrialRecord;

/// Folds [`TrialRecord`]s into per-scenario statistics as they arrive.
///
/// Memory is independent of the trial count *and* the round budget:
/// per-round objective trajectories never reach the aggregator, and each
/// cell keeps exact `value -> multiplicity` histograms instead of
/// per-trial samples, so a million-trial campaign aggregates in
/// `O(cells × distinct values)`.  Folding is order-independent (histogram
/// insertion commutes and [`Summary::of_histogram`] reads values in
/// ascending order), which is what lets the streaming runner fold records
/// in completion order while emitting byte-deterministic summaries.
/// Grouping is by [`Scenario::name`](crate::Scenario::name), and
/// [`Aggregator::summaries`] reuses [`selfsim_trace::Summary`] so campaign
/// statistics are computed by the same code as every other experiment in
/// the workspace.
#[derive(Debug, Default)]
pub struct Aggregator {
    cells: BTreeMap<String, Cell>,
}

#[derive(Debug, Default)]
struct Cell {
    algorithm: String,
    topology: String,
    environment: String,
    mode: String,
    delivery: String,
    agents: usize,
    trials: u64,
    converged: u64,
    expectation_met: u64,
    /// Histogram of rounds-to-convergence over converged trials.
    rounds: BTreeMap<usize, u64>,
    /// Histogram of per-trial message counts.
    messages: BTreeMap<usize, u64>,
    /// Histogram of per-trial dropped-message counts.
    messages_dropped: BTreeMap<usize, u64>,
    /// Histogram of per-trial re-queue decision counts.
    messages_requeued: BTreeMap<usize, u64>,
    /// Histogram of step effectiveness, keyed by the ratio's IEEE bits
    /// (effectiveness is in `[0, 1]`, where the bit order *is* the
    /// numeric order).
    effectiveness: BTreeMap<u64, u64>,
    all_monotone: bool,
}

/// The aggregated statistics of one scenario cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario name (the grouping key).
    pub scenario: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Topology-family label.
    pub topology: String,
    /// Environment-model label.
    pub environment: String,
    /// Execution-mode label (`sync` / `async`).
    pub mode: String,
    /// Delivery-rule label for async cells, `-` for sync cells.
    pub delivery: String,
    /// Number of agents.
    pub agents: usize,
    /// Trials observed.
    pub trials: u64,
    /// Trials that converged.
    pub converged: u64,
    /// Trials whose outcome matched the algorithm's declared expectation
    /// (for counterexample cells this counts asserted *non*-convergence).
    pub expectation_met: u64,
    /// `converged / trials` (0 for an empty cell).
    pub convergence_rate: f64,
    /// Statistics of rounds-to-convergence over the *converged* trials.
    pub rounds: Summary,
    /// Statistics of message counts over all trials.
    pub messages: Summary,
    /// Statistics of dropped-message counts over all trials (identically
    /// zero whenever the cell's `drop_rate` is zero).
    pub messages_dropped: Summary,
    /// Statistics of re-queue decision counts over all trials (non-zero
    /// only for `any-overlap` cells; identically zero under
    /// `valid-at-delivery` and `valid-at-send`).
    pub messages_requeued: Summary,
    /// Statistics of step effectiveness (changed / attempted) over all
    /// trials.
    pub effectiveness: Summary,
    /// Whether the objective descended monotonically in every trial.
    pub all_monotone: bool,
}

impl ScenarioSummary {
    /// Appends the summary as one JSON line, fields in declaration order
    /// and each [`Summary`] a nested object.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        let mut line = JsonLine::new(out);
        line.str("scenario", &self.scenario);
        line.str("algorithm", &self.algorithm);
        line.str("topology", &self.topology);
        line.str("environment", &self.environment);
        line.str("mode", &self.mode);
        line.str("delivery", &self.delivery);
        line.uint("agents", self.agents as u64);
        line.uint("trials", self.trials);
        line.uint("converged", self.converged);
        line.uint("expectation_met", self.expectation_met);
        line.float("convergence_rate", self.convergence_rate);
        self.rounds.write_json(&mut line, "rounds");
        self.messages.write_json(&mut line, "messages");
        self.messages_dropped
            .write_json(&mut line, "messages_dropped");
        self.messages_requeued
            .write_json(&mut line, "messages_requeued");
        self.effectiveness.write_json(&mut line, "effectiveness");
        line.bool("all_monotone", self.all_monotone);
        line.end();
    }

    /// `true` when `other` is the same grid cell on the *other runtime*
    /// (sync vs. async, regardless of knob parameterisation) — the
    /// cross-runtime sibling relation.  Matched on the structured
    /// coordinates, not the scenario name: mode labels are not
    /// string-symmetric.
    pub fn is_cross_runtime_sibling(&self, other: &ScenarioSummary) -> bool {
        // "sync(cd=7)" and "async(i=0.9,...)" reduce to their runtime kind.
        fn kind(label: &str) -> &str {
            label.split('(').next().unwrap_or(label)
        }
        kind(&self.mode) != kind(&other.mode)
            && self.algorithm == other.algorithm
            && self.topology == other.topology
            && self.environment == other.environment
            && self.agents == other.agents
    }
}

impl Aggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// Folds one record into its scenario's cell.
    pub fn observe(&mut self, record: &TrialRecord) {
        // Look the cell up before inserting, so the key is cloned only on
        // the cell's first record.
        let cell = match self.cells.get_mut(&record.scenario) {
            Some(cell) => cell,
            None => self.cells.entry(record.scenario.clone()).or_insert(Cell {
                algorithm: record.algorithm.clone(),
                topology: record.topology.clone(),
                environment: record.environment.clone(),
                mode: record.mode.clone(),
                delivery: record.delivery.clone(),
                agents: record.agents,
                all_monotone: true,
                ..Cell::default()
            }),
        };
        cell.trials += 1;
        if record.meets_expectation {
            cell.expectation_met += 1;
        }
        if record.converged {
            cell.converged += 1;
            if let Some(r) = record.rounds_to_convergence {
                *cell.rounds.entry(r).or_default() += 1;
            }
        }
        *cell.messages.entry(record.messages).or_default() += 1;
        *cell
            .messages_dropped
            .entry(record.messages_dropped)
            .or_default() += 1;
        *cell
            .messages_requeued
            .entry(record.messages_requeued)
            .or_default() += 1;
        let effectiveness = if record.group_steps == 0 {
            0.0
        } else {
            record.effective_group_steps as f64 / record.group_steps as f64
        };
        *cell
            .effectiveness
            .entry(effectiveness.to_bits())
            .or_default() += 1;
        cell.all_monotone &= record.objective_monotone;
    }

    /// Absorbs another aggregator: cell counters add, histograms add,
    /// monotone flags AND.  Folding records through two aggregators and
    /// merging equals folding them all through one (aggregation is
    /// commutative), which lets runner workers aggregate locally and merge
    /// once at the barrier instead of contending on a shared lock per
    /// trial.
    pub fn merge(&mut self, other: Aggregator) {
        for (name, incoming) in other.cells {
            match self.cells.entry(name) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(incoming);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let cell = slot.get_mut();
                    cell.trials += incoming.trials;
                    cell.converged += incoming.converged;
                    cell.expectation_met += incoming.expectation_met;
                    for (value, count) in incoming.rounds {
                        *cell.rounds.entry(value).or_default() += count;
                    }
                    for (value, count) in incoming.messages {
                        *cell.messages.entry(value).or_default() += count;
                    }
                    for (value, count) in incoming.messages_dropped {
                        *cell.messages_dropped.entry(value).or_default() += count;
                    }
                    for (value, count) in incoming.messages_requeued {
                        *cell.messages_requeued.entry(value).or_default() += count;
                    }
                    for (value, count) in incoming.effectiveness {
                        *cell.effectiveness.entry(value).or_default() += count;
                    }
                    cell.all_monotone &= incoming.all_monotone;
                }
            }
        }
    }

    /// Total records folded so far.
    pub fn trial_count(&self) -> u64 {
        self.cells.values().map(|c| c.trials).sum()
    }

    /// Closes the aggregation: one summary per scenario, sorted by scenario
    /// name (deterministic regardless of observation order).
    pub fn summaries(&self) -> Vec<ScenarioSummary> {
        self.cells
            .iter()
            .map(|(name, cell)| ScenarioSummary {
                scenario: name.clone(),
                algorithm: cell.algorithm.clone(),
                topology: cell.topology.clone(),
                environment: cell.environment.clone(),
                mode: cell.mode.clone(),
                delivery: cell.delivery.clone(),
                agents: cell.agents,
                trials: cell.trials,
                converged: cell.converged,
                expectation_met: cell.expectation_met,
                convergence_rate: if cell.trials == 0 {
                    0.0
                } else {
                    cell.converged as f64 / cell.trials as f64
                },
                rounds: Summary::of_histogram(cell.rounds.iter().map(|(&v, &c)| (v as f64, c))),
                messages: Summary::of_histogram(cell.messages.iter().map(|(&v, &c)| (v as f64, c))),
                messages_dropped: Summary::of_histogram(
                    cell.messages_dropped.iter().map(|(&v, &c)| (v as f64, c)),
                ),
                messages_requeued: Summary::of_histogram(
                    cell.messages_requeued.iter().map(|(&v, &c)| (v as f64, c)),
                ),
                effectiveness: Summary::of_histogram(
                    cell.effectiveness
                        .iter()
                        .map(|(&v, &c)| (f64::from_bits(v), c)),
                ),
                all_monotone: cell.all_monotone,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scenario: &str, trial: u64, rounds: Option<usize>, messages: usize) -> TrialRecord {
        TrialRecord {
            scenario: scenario.into(),
            algorithm: "minimum".into(),
            topology: "ring".into(),
            environment: "static".into(),
            mode: "sync".into(),
            delivery: "-".into(),
            agents: 8,
            trial,
            seed: trial,
            converged: rounds.is_some(),
            expected: "converge".into(),
            meets_expectation: rounds.is_some(),
            rounds_to_convergence: rounds,
            rounds_executed: rounds.unwrap_or(100),
            group_steps: 10,
            effective_group_steps: 5,
            messages,
            messages_dropped: messages / 10,
            messages_requeued: 0,
            events_processed: 0,
            peak_queue_depth: 0,
            initial_objective: 100.0,
            final_objective: 10.0,
            objective_monotone: true,
        }
    }

    #[test]
    fn groups_by_scenario_and_counts_convergence() {
        let mut agg = Aggregator::new();
        agg.observe(&record("a", 0, Some(4), 40));
        agg.observe(&record("a", 1, Some(6), 60));
        agg.observe(&record("a", 2, None, 100));
        agg.observe(&record("b", 0, Some(2), 10));
        assert_eq!(agg.trial_count(), 4);

        let summaries = agg.summaries();
        assert_eq!(summaries.len(), 2);
        let a = &summaries[0];
        assert_eq!(a.scenario, "a");
        assert_eq!(a.trials, 3);
        assert_eq!(a.converged, 2);
        assert_eq!(a.expectation_met, 2);
        assert_eq!(a.mode, "sync");
        assert!((a.convergence_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.rounds.count, 2);
        assert_eq!(a.rounds.mean, 5.0);
        assert_eq!(a.messages.count, 3);
    }

    #[test]
    fn summaries_are_order_independent() {
        let records = [
            record("a", 0, Some(4), 40),
            record("b", 0, Some(2), 10),
            record("a", 1, Some(6), 60),
        ];
        let mut forward = Aggregator::new();
        let mut backward = Aggregator::new();
        for r in &records {
            forward.observe(r);
        }
        for r in records.iter().rev() {
            backward.observe(r);
        }
        assert_eq!(forward.summaries(), backward.summaries());
    }

    #[test]
    fn merging_aggregators_equals_one_aggregator() {
        let records = [
            record("a", 0, Some(4), 40),
            record("a", 1, Some(6), 60),
            record("a", 2, None, 100),
            record("b", 0, Some(2), 10),
        ];
        let mut whole = Aggregator::new();
        for r in &records {
            whole.observe(r);
        }
        let mut left = Aggregator::new();
        let mut right = Aggregator::new();
        left.observe(&records[0]);
        left.observe(&records[3]);
        right.observe(&records[1]);
        right.observe(&records[2]);
        left.merge(right);
        assert_eq!(left.summaries(), whole.summaries());
        assert_eq!(left.trial_count(), 4);
    }

    #[test]
    fn monotone_flag_is_an_and() {
        let mut agg = Aggregator::new();
        agg.observe(&record("a", 0, Some(4), 40));
        let mut bad = record("a", 1, Some(5), 50);
        bad.objective_monotone = false;
        agg.observe(&bad);
        assert!(!agg.summaries()[0].all_monotone);
    }
}
