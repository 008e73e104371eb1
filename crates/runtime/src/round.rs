//! The round loop behind [`SyncSimulator`](crate::SyncSimulator) and
//! [`EventSimulator`](crate::EventSimulator).
//!
//! Every round is one environment transition followed by one step of `R`
//! per group of the induced partition, groups taken in partition order
//! (ascending smallest member).  Three things keep a round cheap without
//! changing what it measures:
//!
//! * **Delta-based connectivity.**  The environment is advanced through
//!   [`Environment::step_delta`] and the delta is folded into the shared
//!   [`Connectivity`] — the same fold the message-passing runtime and the
//!   baselines read — which merges on edge-up and re-splits only the
//!   affected component on edge-down, without allocating.
//!   [`EnvDelta::Unchanged`](selfsim_env::EnvDelta::Unchanged) costs
//!   nothing, and [`EnvDelta::AllEnabled`](selfsim_env::EnvDelta::AllEnabled)
//!   never materialises the edge set: a static complete graph on 10⁵ agents
//!   never allocates its ~5·10⁹ edges.
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
use rand::{RngCore, SeedableRng};

use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{Connectivity, EnvState, Environment, Topology};
use selfsim_multiset::Multiset;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::{SimulationReport, SyncConfig};

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

/// Runs `system` under `environment` until it converges (plus the
/// configured cooldown) or the round budget is exhausted, emitting into
/// `events` and handing every executed round to `observe`.
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
    let mut rng = StdRng::seed_from_u64(config.seed);
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

    let mut connectivity = Connectivity::default();
    let mut at_fixpoint: Vec<bool> = Vec::new();
    let mut stepped = Stepped::default();
    let mut converged_at: Option<usize> = None;
    let mut cooldown_left = config.cooldown_rounds;

    for round in 1..=config.max_rounds {
        let tick = round as u64;
        let delta = environment.step_delta(&mut rng);
        let topology = environment.topology();
        if connectivity.advance(delta, topology) {
            at_fixpoint.clear();
            at_fixpoint.resize(connectivity.group_count(), false);
        }
        events.emit(|| TraceEvent::EnvTransition {
            tick,
            edges: connectivity.usable_edge_count(topology),
        });

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
                    inner: &mut rng,
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
                tick,
                size: group.len(),
                changed,
            });
        }
        metrics.rounds_executed = round;
        stepped.total += round_stepped;
        stepped.peak = stepped.peak.max(round_stepped);
        observe(&Round {
            tick: round,
            states: &global,
            connectivity: &connectivity,
            topology,
        });

        if dirty {
            objective = system.objective_of(&global);
            converged = system.is_converged_multiset(&global);
            dirty = false;
        }
        metrics.objective_trajectory.push(objective);

        if converged {
            if converged_at.is_none() {
                converged_at = Some(round);
                events.emit(|| TraceEvent::ConvergenceEntered { tick });
            }
            if cooldown_left == 0 {
                break;
            }
            cooldown_left -= 1;
        } else {
            if converged_at.is_some() {
                events.emit(|| TraceEvent::ConvergenceLeft { tick });
            }
            // If a later round leaves the target state the algorithm is
            // broken; reset so the reported number is honest.
            converged_at = None;
            cooldown_left = config.cooldown_rounds;
        }
    }

    metrics.rounds_to_convergence = converged_at;
    let report = SimulationReport {
        metrics,
        final_state: state,
    };
    (report, stepped)
}
