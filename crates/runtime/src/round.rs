//! The round body behind [`SyncSimulator`](crate::SyncSimulator) and
//! [`EventSimulator`](crate::EventSimulator).
//!
//! The [`Driver`] runs the environment transition of every round; the body
//! then takes one step of `R` per group of the induced partition, groups
//! taken in partition order (ascending smallest member).  Besides the
//! driver's delta-based connectivity, two things keep a round cheap
//! without changing what it measures:
//!
//! * **Fixpoint elision.**  A group observed to map its state to itself
//!   *bit for bit while drawing no randomness* is a fixpoint group:
//!   stepping it again is the identity on both the state and the RNG
//!   stream, so it is not stepped again until connectivity changes.  Its
//!   accounting (group steps, messages, a `changed: false` group-step trace
//!   event) is kept in place; only the work is elided.  The per-group flags
//!   live in one buffer that a connectivity change clears and resizes.
//! * **Cached round bookkeeping.**  The objective and the convergence check
//!   read the state multiset, so they are recomputed only after some group
//!   moved.
//!
//! The loop keeps no history.  A caller that wants one passes an observer,
//! which sees each executed round as a [`Round`], and an enabled
//! [`EventLog`] for the structured event stream.

use rand::rngs::StdRng;
use rand::RngCore;

use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{Connectivity, EnvState, Environment, Topology};
use selfsim_multiset::Multiset;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::{Driver, SimulationReport, SyncConfig, Tick};

/// One executed round (sync, event) or tick (async), as the observer of a
/// `run_with` call sees it, after the round's group steps.
pub struct Round<'a, S: Ord> {
    /// The simulator clock: the round or tick just executed, from 1.
    pub tick: usize,
    /// The multiset of agent states after the round's group steps.
    pub states: &'a Multiset<S>,
    pub(crate) connectivity: &'a Connectivity,
    pub(crate) topology: &'a Topology,
}

impl<S: Ord> Round<'_, S> {
    /// The environment state the round ran under, materialised from the
    /// runtime's connectivity (this allocates, so a symbolic fully-enabled
    /// state becomes an explicit one).
    pub fn env_state(&self) -> EnvState {
        self.connectivity.to_env_state(self.topology)
    }
}

/// An RNG adapter that counts how many core draws pass through it, so a
/// group step can be proven randomness-free before it is elided.
struct CountingRng<'a> {
    inner: &'a mut StdRng,
    draws: u64,
}

impl RngCore for CountingRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// Groups the loop actually stepped, i.e. did not elide as fixpoints.
#[derive(Default)]
pub(crate) struct Stepped {
    /// Summed over all rounds.
    pub(crate) total: usize,
    /// The most in any one round.
    pub(crate) peak: usize,
}

/// Runs `system` under `environment` on the [`Driver`] until it converges
/// (plus the configured cooldown) or the round budget is exhausted,
/// emitting into `events` and handing every executed round to `observe`.
pub(crate) fn run_rounds<S, E>(
    config: &SyncConfig,
    system: &SelfSimilarSystem<S>,
    environment: &mut E,
    events: &mut EventLog,
    mut observe: impl FnMut(&Round<'_, S>),
) -> (SimulationReport<S>, Stepped)
where
    S: Ord + Clone + std::fmt::Debug,
    E: Environment + ?Sized,
{
    let mut state = system.initial_state().clone();
    let mut metrics = RunMetrics::new(system.name(), environment.name(), system.agent_count());

    // The whole-system multiset is maintained incrementally by the group
    // steps; `h` folds it in ascending value order either way, so the
    // objective trajectory is byte-identical to recomputing the multiset
    // from the positional state every round.  `state` is still `S(0)` here,
    // so the cached initial multiset is exactly the view to start from.
    let mut global = system.initial_multiset().clone();
    let mut scratch = StepScratch::new();
    let mut objective = system.objective_of(&global);
    let mut converged = false;
    let mut dirty = true;
    metrics.objective_trajectory.push(objective);

    let mut at_fixpoint: Vec<bool> = Vec::new();
    let mut stepped = Stepped::default();

    let driver = Driver {
        seed: config.seed,
        budget: config.max_rounds,
        cooldown: config.cooldown_rounds,
    };
    let body = |Tick {
                    tick,
                    rng,
                    connectivity,
                    topology,
                    regrouped,
                    metrics,
                    events,
                }: Tick<'_>| {
        if regrouped {
            at_fixpoint.clear();
            at_fixpoint.resize(connectivity.group_count(), false);
        }
        let mut round_stepped = 0usize;
        for (i, fixed) in at_fixpoint.iter_mut().enumerate() {
            let group = connectivity.group(i);
            metrics.group_steps += 1;
            // A k-agent collaborative step costs k messages in this
            // accounting (each member contributes its state once).
            metrics.messages += group.len();
            let changed = if *fixed {
                false
            } else {
                round_stepped += 1;
                let mut counting = CountingRng {
                    inner: &mut *rng,
                    draws: 0,
                };
                let outcome = system.apply_group_step_with(
                    &mut state,
                    group,
                    &mut counting,
                    &mut scratch,
                    Some(&mut global),
                );
                *fixed = outcome.positionally_fixed && counting.draws == 0;
                dirty |= !outcome.positionally_fixed;
                outcome.multiset_changed
            };
            metrics.effective_group_steps += usize::from(changed);
            events.emit(|| TraceEvent::GroupStep {
                tick: tick as u64,
                size: group.len(),
                changed,
            });
        }
        stepped.total += round_stepped;
        stepped.peak = stepped.peak.max(round_stepped);
        observe(&Round {
            tick,
            states: &global,
            connectivity,
            topology,
        });

        if dirty {
            objective = system.objective_of(&global);
            converged = system.is_converged_multiset(&global);
            dirty = false;
        }
        metrics.objective_trajectory.push(objective);
        converged
    };
    driver.run(environment, &mut metrics, events, body);

    let report = SimulationReport {
        metrics,
        final_state: state,
    };
    (report, stepped)
}
