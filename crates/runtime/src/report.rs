//! The result of one simulated run.

use selfsim_trace::RunMetrics;

/// What a simulator returns about one run: the measurements and the final
/// positional state.  Histories (per-round states, environment states,
/// the event stream) are the caller's to keep, through the observer and
/// the [`selfsim_trace::EventLog`] a `run_with` call takes.
#[derive(Clone, Debug)]
pub struct SimulationReport<S> {
    /// Quantitative measurements of the run.
    pub metrics: RunMetrics,
    /// The positional agent state at the end of the run.
    pub final_state: Vec<S>,
}

impl<S> SimulationReport<S> {
    /// `true` when the run reached the target state within its budget.
    pub fn converged(&self) -> bool {
        self.metrics.converged()
    }

    /// Rounds until convergence (`None` if the budget ran out first).
    pub fn rounds_to_convergence(&self) -> Option<usize> {
        self.metrics.rounds_to_convergence
    }
}
