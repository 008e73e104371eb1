//! Per-run measurement records.

/// Measurements of one simulated run of an algorithm under an environment.
///
/// `rounds_to_convergence` is `None` when the run hit its round budget
/// before reaching (and staying in) the target state; the other counters
/// still describe the truncated run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Algorithm name (e.g. `"minimum"`, `"snapshot-baseline"`).
    pub algorithm: String,
    /// Environment name (e.g. `"static"`, `"random-churn"`).
    pub environment: String,
    /// Number of agents in the run.
    pub agents: usize,
    /// Rounds (environment step + agent transition) until the system first
    /// reached the state it then stayed in, or `None` if it never converged
    /// within the budget.
    pub rounds_to_convergence: Option<usize>,
    /// Total rounds executed.
    pub rounds_executed: usize,
    /// Number of group steps attempted (one per group per round).
    pub group_steps: usize,
    /// Number of group steps that actually changed the group's state.
    pub effective_group_steps: usize,
    /// Messages exchanged (for message-passing runtimes and baselines;
    /// synchronous group steps count one message per participating agent).
    pub messages: usize,
    /// Messages lost in flight to the drop roll (a subset of `messages`;
    /// always zero when the run's `drop_rate` is zero, and zero for
    /// synchronous runtimes, which have no messages in flight).
    pub messages_dropped: usize,
    /// Delivery-rule re-queue decisions: one per due-but-blocked message
    /// per tick the `any-overlap` rule sent it around again.  Structurally
    /// zero under `valid-at-delivery` and `valid-at-send` (those rules
    /// never requeue) and for synchronous runtimes.
    pub messages_requeued: usize,
    /// The event-driven runtime's work count: summed over the rounds
    /// executed, `2 + g` where `g` is the number of groups the round
    /// actually stepped (one environment transition, `g` group steps, one
    /// round boundary; groups elided as fixpoints count nothing).  Zero for
    /// the round-based and message-passing runtimes.
    pub events_processed: usize,
    /// The event-driven runtime's peak round: the maximum over the rounds
    /// executed of `g + 1` (the stepped groups plus the round boundary),
    /// zero when no round ran.  Zero for the other runtimes.
    pub peak_queue_depth: usize,
    /// The global objective value `h(S)` after every round (index 0 is the
    /// initial value).
    pub objective_trajectory: Vec<f64>,
}

impl RunMetrics {
    /// Creates an empty record for an algorithm/environment pair.
    pub fn new(
        algorithm: impl Into<String>,
        environment: impl Into<String>,
        agents: usize,
    ) -> Self {
        RunMetrics {
            algorithm: algorithm.into(),
            environment: environment.into(),
            agents,
            rounds_to_convergence: None,
            rounds_executed: 0,
            group_steps: 0,
            effective_group_steps: 0,
            messages: 0,
            messages_dropped: 0,
            messages_requeued: 0,
            events_processed: 0,
            peak_queue_depth: 0,
            objective_trajectory: Vec::new(),
        }
    }

    /// `true` when the run reached the target state within its budget.
    pub fn converged(&self) -> bool {
        self.rounds_to_convergence.is_some()
    }

    /// The final objective value, if any rounds were recorded.
    pub fn final_objective(&self) -> Option<f64> {
        self.objective_trajectory.last().copied()
    }

    /// The initial objective value, if recorded.
    pub fn initial_objective(&self) -> Option<f64> {
        self.objective_trajectory.first().copied()
    }

    /// `true` if the recorded objective trajectory never increases — the
    /// global manifestation of every group step being an improvement.
    pub fn objective_is_monotone(&self, tolerance: f64) -> bool {
        self.objective_trajectory
            .windows(2)
            .all(|w| w[1] <= w[0] + tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        RunMetrics {
            algorithm: "minimum".into(),
            environment: "static".into(),
            agents: 8,
            rounds_to_convergence: Some(3),
            rounds_executed: 5,
            group_steps: 10,
            effective_group_steps: 4,
            messages: 24,
            messages_dropped: 2,
            messages_requeued: 1,
            events_processed: 17,
            peak_queue_depth: 4,
            objective_trajectory: vec![40.0, 22.0, 10.0, 8.0, 8.0, 8.0],
        }
    }

    #[test]
    fn new_record_is_empty() {
        let m = RunMetrics::new("x", "y", 3);
        assert!(!m.converged());
        assert_eq!(m.final_objective(), None);
        assert_eq!(m.initial_objective(), None);
        assert!(m.objective_is_monotone(0.0));
    }

    #[test]
    fn converged_and_objective_accessors() {
        let m = sample();
        assert!(m.converged());
        assert_eq!(m.initial_objective(), Some(40.0));
        assert_eq!(m.final_objective(), Some(8.0));
    }

    #[test]
    fn monotonicity_check() {
        let mut m = sample();
        assert!(m.objective_is_monotone(0.0));
        m.objective_trajectory.push(9.0); // objective went back up
        assert!(!m.objective_is_monotone(0.0));
        assert!(m.objective_is_monotone(1.5)); // within tolerance
    }
}
