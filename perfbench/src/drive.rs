//! Outside-in mirrors: one engine trial executed through the public layer
//! calls, in the runtime's own order, with a timed span around each call.
//!
//! [`event_run`] mirrors `EventSimulator::run` and [`sync_run`] mirrors
//! `SyncSimulator::run` call for call: the same RNG stream, the same event
//! queue, the same accounting.  Their `RunMetrics` and final state must
//! equal the real runtime's at the same seed; the workloads check that on
//! every traced trial, so a mirror that drifts from the runtime it copies
//! fails the benchmark instead of reporting wrong layer times.
//!
//! Work that only the benchmark does (counting touched agents, classifying
//! deltas) is timed as `bookkeeping_s` and kept out of every layer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfsim_core::{SelfSimilarSystem, StepScratch};
use selfsim_env::{AgentId, EnvChanges, EnvDelta, EnvState, Environment, GroupIndex};
use selfsim_trace::RunMetrics;

/// Time spent and work done per layer, summed over the driven trials.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `Environment::step_delta` (event) or `Environment::step` (sync).
    pub env_s: f64,
    /// Core RNG draws made by the environment.
    pub env_rng_draws: u64,
    /// Edges listed in `EnvChanges` deltas (up plus down).
    pub edges_flipped: u64,
    /// Environment steps that returned a whole state instead of a delta.
    pub full_deltas: u64,
    /// Connectivity maintenance: `GroupIndex` calls (event) or the
    /// partition memo check and `EnvState::groups` (sync).
    pub groups_s: f64,
    /// Full partition rebuilds.
    pub rescans: u64,
    /// `apply_changes` calls carrying two or more downed edges.
    pub down_batches: u64,
    /// Sum of the sizes of the pre-delta groups that held a downed usable
    /// edge: the upper bound on agents a delta re-labels.
    pub touched_agents: u64,
    /// `apply_group_step_with`.
    pub step_s: f64,
    /// Group steps executed.
    pub groups_stepped: u64,
    /// Group steps skipped because the group sat at a fixpoint.
    pub groups_elided: u64,
    /// Sum of the sizes of the stepped groups.
    pub agents_stepped: u64,
    /// Core RNG draws made by group steps.
    pub step_rng_draws: u64,
    /// `objective_of` and `is_converged_multiset`.
    pub objective_s: f64,
    /// Objective evaluations.
    pub objective_evals: u64,
    /// Events popped off the queue (zero for the sync mirror).
    pub events: u64,
    /// Wall time of the driven runs, minus `bookkeeping_s`.
    pub engine_s: f64,
    /// Time spent on the benchmark's own counting.
    pub bookkeeping_s: f64,
}

impl Layers {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Layers) {
        self.env_s += other.env_s;
        self.env_rng_draws += other.env_rng_draws;
        self.edges_flipped += other.edges_flipped;
        self.full_deltas += other.full_deltas;
        self.groups_s += other.groups_s;
        self.rescans += other.rescans;
        self.down_batches += other.down_batches;
        self.touched_agents += other.touched_agents;
        self.step_s += other.step_s;
        self.groups_stepped += other.groups_stepped;
        self.groups_elided += other.groups_elided;
        self.agents_stepped += other.agents_stepped;
        self.step_rng_draws += other.step_rng_draws;
        self.objective_s += other.objective_s;
        self.objective_evals += other.objective_evals;
        self.events += other.events;
        self.engine_s += other.engine_s;
        self.bookkeeping_s += other.bookkeeping_s;
    }

    /// Engine time outside the four timed layers: the event queue, the
    /// round accounting and the fixpoint flags.
    pub fn runtime_other_s(&self) -> f64 {
        self.engine_s - self.env_s - self.groups_s - self.step_s - self.objective_s
    }
}

/// What a driven trial produced.
pub struct Driven<S> {
    /// The run's measurements, comparable with the real runtime's.
    pub metrics: RunMetrics,
    /// The positional state at the end of the run.
    pub final_state: Vec<S>,
    /// Per-layer time and work of this trial.
    pub layers: Layers,
}

/// An RNG adapter that counts the core draws passing through it without
/// changing the stream.
struct CountingRng<'a> {
    inner: &'a mut StdRng,
    draws: u64,
}

impl<'a> CountingRng<'a> {
    fn new(inner: &'a mut StdRng) -> Self {
        CountingRng { inner, draws: 0 }
    }
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

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += 1;
        self.inner.fill_bytes(dest);
    }
}

/// Seconds since `start`.
fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// The event runtime's queue keys, copied so the mirror pops events in the
// runtime's order.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const ENV_TIE: u64 = 0;
const ROUND_END_TIE: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    Env,
    Group(usize),
    RoundEnd,
}

enum Connectivity {
    Empty,
    Full,
    Tracked(Box<GroupIndex>),
}

/// Sum of the sizes of the current groups that hold one of `edges_down`
/// with both endpoints enabled.  An agent is enabled exactly when it sits
/// in some group; a listed edge was enabled before the delta, because
/// deltas list flips.
fn touched_agents(
    conn: &Connectivity,
    full_groups: &[Vec<AgentId>],
    n: usize,
    edges_down: &[selfsim_env::Edge],
) -> u64 {
    const NONE: u32 = u32::MAX;
    let groups: Vec<&[AgentId]> = match conn {
        Connectivity::Empty => return 0,
        Connectivity::Full => full_groups.iter().map(Vec::as_slice).collect(),
        Connectivity::Tracked(index) => (0..index.group_count()).map(|i| index.group(i)).collect(),
    };
    let mut group_of = vec![NONE; n];
    for (i, group) in groups.iter().enumerate() {
        for a in *group {
            group_of[a.index()] = i as u32;
        }
    }
    let mut hit = vec![false; groups.len()];
    let mut total = 0u64;
    for e in edges_down {
        let (a, b) = (group_of[e.lo().index()], group_of[e.hi().index()]);
        if a != NONE && a == b && !hit[a as usize] {
            hit[a as usize] = true;
            total += groups[a as usize].len() as u64;
        }
    }
    total
}

/// Runs one trial in `EventSimulator::run`'s order; see the module docs.
pub fn event_run<S, E>(
    system: &SelfSimilarSystem<S>,
    environment: &mut E,
    max_rounds: usize,
    cooldown_rounds: usize,
    seed: u64,
) -> Driven<S>
where
    S: Ord + Clone + std::fmt::Debug,
    E: Environment + ?Sized,
{
    let started = Instant::now();
    let mut layers = Layers::default();
    let n = system.agent_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = system.initial_state().clone();
    let mut metrics = RunMetrics::new(system.name(), format!("event/{}", environment.name()), n);
    let mut global = system.initial_multiset().clone();
    let mut scratch = StepScratch::new();

    let t = Instant::now();
    let initial_objective = system.objective_of(&global);
    layers.objective_s += since(t);
    layers.objective_evals += 1;
    metrics.objective_trajectory.push(initial_objective);

    let mut converged_at: Option<usize> = None;
    let mut cooldown_left = cooldown_rounds;
    let tie_base = splitmix64(seed) & 0xFFFF_FFFF;
    let mut heap: BinaryHeap<Reverse<(u64, u64, EventKind)>> = BinaryHeap::new();
    let mut peak_queue_depth = 0usize;
    if max_rounds > 0 {
        heap.push(Reverse((1, ENV_TIE, EventKind::Env)));
        peak_queue_depth = peak_queue_depth.max(heap.len());
    }

    let mut connectivity = Connectivity::Empty;
    let mut groups: Vec<Vec<AgentId>> = Vec::new();
    let mut at_fixpoint: Vec<bool> = Vec::new();
    let mut state_dirty = true;
    let mut cached_objective = initial_objective;
    let mut cached_converged = false;
    let mut round_messages = 0usize;
    let mut changed_groups = 0usize;

    while let Some(Reverse((time, _tie, kind))) = heap.pop() {
        metrics.events_processed += 1;
        let round = time as usize;
        match kind {
            EventKind::Env => {
                round_messages = 0;
                changed_groups = 0;
                // Adjacent spans share their boundary clock reads.
                let mut counting = CountingRng::new(&mut rng);
                let t_env = Instant::now();
                let delta = environment.step_delta(&mut counting);
                let t_book = Instant::now();
                layers.env_s += (t_book - t_env).as_secs_f64();
                layers.env_rng_draws += counting.draws;

                match &delta {
                    EnvDelta::Full(_) => layers.full_deltas += 1,
                    EnvDelta::Changes(changes) => {
                        layers.edges_flipped +=
                            (changes.edges_up.len() + changes.edges_down.len()) as u64;
                        if !changes.edges_down.is_empty() {
                            layers.touched_agents +=
                                touched_agents(&connectivity, &groups, n, &changes.edges_down);
                        }
                    }
                    EnvDelta::Unchanged | EnvDelta::AllEnabled => {}
                }
                let t = Instant::now();
                layers.bookkeeping_s += (t - t_book).as_secs_f64();

                let connectivity_changed = match delta {
                    EnvDelta::Unchanged => false,
                    EnvDelta::AllEnabled => {
                        let was_full = matches!(connectivity, Connectivity::Full);
                        connectivity = Connectivity::Full;
                        !was_full
                    }
                    EnvDelta::Full(next) => match &mut connectivity {
                        Connectivity::Tracked(index) => {
                            if index.same_connectivity(&next) {
                                false
                            } else {
                                index.reset_from_state(&next);
                                layers.rescans += 1;
                                true
                            }
                        }
                        Connectivity::Full => {
                            let topo = environment.topology();
                            let same = next.enabled_agents().len() == n
                                && next.enabled_edges().len() == topo.edge_count()
                                && EnvState::fully_enabled(topo).same_connectivity(&next);
                            if same {
                                false
                            } else {
                                let mut index = GroupIndex::new(topo);
                                index.reset_from_state(&next);
                                layers.rescans += 1;
                                connectivity = Connectivity::Tracked(Box::new(index));
                                true
                            }
                        }
                        Connectivity::Empty => {
                            if next.enabled_edges().is_empty() && next.enabled_agents().is_empty() {
                                false
                            } else {
                                let mut index = GroupIndex::new(environment.topology());
                                index.reset_from_state(&next);
                                layers.rescans += 1;
                                connectivity = Connectivity::Tracked(Box::new(index));
                                true
                            }
                        }
                    },
                    EnvDelta::Changes(changes) => {
                        if !matches!(connectivity, Connectivity::Tracked(_)) {
                            let mut index = GroupIndex::new(environment.topology());
                            if matches!(connectivity, Connectivity::Full) {
                                index.reset_all_enabled();
                                layers.rescans += 1;
                            }
                            connectivity = Connectivity::Tracked(Box::new(index));
                        }
                        if let Connectivity::Tracked(index) = &mut connectivity {
                            index.apply_changes(&changes);
                            if changes.edges_down.len() >= 2 {
                                layers.down_batches += 1;
                            }
                        }
                        !EnvChanges::is_empty(&changes)
                    }
                };
                if connectivity_changed {
                    groups = match &connectivity {
                        Connectivity::Empty | Connectivity::Tracked(_) => Vec::new(),
                        Connectivity::Full => environment.topology().components(),
                    };
                }
                layers.groups_s += since(t);

                if connectivity_changed {
                    let group_count = match &connectivity {
                        Connectivity::Tracked(index) => index.group_count(),
                        _ => groups.len(),
                    };
                    at_fixpoint = vec![false; group_count];
                }
                for (i, &done) in at_fixpoint.iter().enumerate() {
                    let size = match &connectivity {
                        Connectivity::Tracked(index) => index.group(i).len(),
                        _ => groups.get(i).map(Vec::len).unwrap_or_default(),
                    };
                    if done {
                        metrics.group_steps += 1;
                        round_messages += size;
                        layers.groups_elided += 1;
                    } else {
                        heap.push(Reverse((
                            time,
                            tie_base + 1 + i as u64,
                            EventKind::Group(i),
                        )));
                    }
                }
                heap.push(Reverse((time, ROUND_END_TIE, EventKind::RoundEnd)));
                peak_queue_depth = peak_queue_depth.max(heap.len());
            }
            EventKind::Group(i) => {
                let group: &[AgentId] = match &connectivity {
                    Connectivity::Tracked(index) => index.group(i),
                    _ => groups.get(i).map(Vec::as_slice).unwrap_or_default(),
                };
                metrics.group_steps += 1;
                round_messages += group.len();
                let mut counting = CountingRng::new(&mut rng);
                let t = Instant::now();
                let outcome = system.apply_group_step_with(
                    &mut state,
                    group,
                    &mut counting,
                    &mut scratch,
                    Some(&mut global),
                );
                layers.step_s += since(t);
                layers.groups_stepped += 1;
                layers.agents_stepped += group.len() as u64;
                layers.step_rng_draws += counting.draws;
                if outcome.positionally_fixed && counting.draws == 0 {
                    at_fixpoint[i] = true;
                }
                if !outcome.positionally_fixed {
                    state_dirty = true;
                }
                if outcome.multiset_changed {
                    changed_groups += 1;
                }
            }
            EventKind::RoundEnd => {
                metrics.effective_group_steps += changed_groups;
                metrics.messages += round_messages;
                metrics.rounds_executed = round;
                if state_dirty {
                    let t = Instant::now();
                    cached_objective = system.objective_of(&global);
                    cached_converged = system.is_converged_multiset(&global);
                    layers.objective_s += since(t);
                    layers.objective_evals += 1;
                    state_dirty = false;
                }
                metrics.objective_trajectory.push(cached_objective);
                if cached_converged {
                    if converged_at.is_none() {
                        converged_at = Some(round);
                    }
                    if cooldown_left == 0 {
                        break;
                    }
                    cooldown_left -= 1;
                } else {
                    converged_at = None;
                    cooldown_left = cooldown_rounds;
                }
                if round < max_rounds {
                    heap.push(Reverse((time + 1, ENV_TIE, EventKind::Env)));
                    peak_queue_depth = peak_queue_depth.max(heap.len());
                }
            }
        }
    }

    metrics.peak_queue_depth = peak_queue_depth;
    metrics.rounds_to_convergence = converged_at;
    layers.events = metrics.events_processed as u64;
    layers.engine_s = since(started) - layers.bookkeeping_s;
    Driven {
        metrics,
        final_state: state,
        layers,
    }
}

/// Runs one trial in `SyncSimulator::run`'s order; see the module docs.
pub fn sync_run<S, E>(
    system: &SelfSimilarSystem<S>,
    environment: &mut E,
    max_rounds: usize,
    cooldown_rounds: usize,
    seed: u64,
) -> Driven<S>
where
    S: Ord + Clone + std::fmt::Debug,
    E: Environment + ?Sized,
{
    let started = Instant::now();
    let mut layers = Layers::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = system.initial_state().clone();
    let mut metrics = RunMetrics::new(system.name(), environment.name(), system.agent_count());
    let mut global = system.initial_multiset().clone();
    let mut scratch = StepScratch::new();

    let t = Instant::now();
    let initial_objective = system.objective_of(&global);
    layers.objective_s += since(t);
    layers.objective_evals += 1;
    metrics.objective_trajectory.push(initial_objective);

    let mut converged_at: Option<usize> = None;
    let mut cooldown_left = cooldown_rounds;
    let mut groups_memo: Option<(EnvState, Vec<Vec<AgentId>>)> = None;

    for round in 0..max_rounds {
        // Adjacent spans share their boundary clock reads.
        let mut counting = CountingRng::new(&mut rng);
        let t_env = Instant::now();
        let env_state = environment.step(&mut counting);
        let t = Instant::now();
        layers.env_s += (t - t_env).as_secs_f64();
        layers.env_rng_draws += counting.draws;
        layers.full_deltas += 1;

        let reusable = groups_memo
            .as_ref()
            .is_some_and(|(prev, _)| prev.same_connectivity(&env_state));
        if !reusable {
            let fresh = env_state.groups();
            groups_memo = Some((env_state, fresh));
            layers.rescans += 1;
        }
        layers.groups_s += since(t);
        let groups = &groups_memo.as_ref().expect("memo just filled").1;

        let mut round_messages = 0usize;
        let mut changed_groups = 0usize;
        for group in groups {
            metrics.group_steps += 1;
            round_messages += group.len();
            let mut counting = CountingRng::new(&mut rng);
            let t = Instant::now();
            let outcome = system.apply_group_step_with(
                &mut state,
                group,
                &mut counting,
                &mut scratch,
                Some(&mut global),
            );
            layers.step_s += since(t);
            layers.groups_stepped += 1;
            layers.agents_stepped += group.len() as u64;
            layers.step_rng_draws += counting.draws;
            if outcome.multiset_changed {
                changed_groups += 1;
            }
        }
        metrics.effective_group_steps += changed_groups;
        metrics.messages += round_messages;
        metrics.rounds_executed = round + 1;

        let t = Instant::now();
        let objective = system.objective_of(&global);
        let converged = system.is_converged_multiset(&global);
        layers.objective_s += since(t);
        layers.objective_evals += 1;
        metrics.objective_trajectory.push(objective);

        if converged {
            if converged_at.is_none() {
                converged_at = Some(round + 1);
            }
            if cooldown_left == 0 {
                break;
            }
            cooldown_left -= 1;
        } else {
            converged_at = None;
            cooldown_left = cooldown_rounds;
        }
    }

    metrics.rounds_to_convergence = converged_at;
    layers.engine_s = since(started) - layers.bookkeeping_s;
    Driven {
        metrics,
        final_state: state,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_algorithms::minimum;
    use selfsim_env::{MarkovLinkEnv, PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology};
    use selfsim_runtime::{EventConfig, EventSimulator, SyncConfig, SyncSimulator};

    fn values(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 37 + 11) % 199) + 1).collect()
    }

    /// The counts a later change may cite: they must repeat exactly.
    fn counts(l: &Layers) -> [u64; 12] {
        [
            l.env_rng_draws,
            l.edges_flipped,
            l.full_deltas,
            l.rescans,
            l.down_batches,
            l.touched_agents,
            l.groups_stepped,
            l.groups_elided,
            l.agents_stepped,
            l.step_rng_draws,
            l.objective_evals,
            l.events,
        ]
    }

    fn check_event<E: Environment + Clone>(
        system: &SelfSimilarSystem<i64>,
        env: &E,
        rounds: usize,
        cooldown: usize,
    ) {
        for seed in [9, 10, 11] {
            let report = EventSimulator::new(EventConfig {
                max_rounds: rounds,
                cooldown_rounds: cooldown,
                seed,
                ..EventConfig::default()
            })
            .run(system, &mut env.clone());
            let a = event_run(system, &mut env.clone(), rounds, cooldown, seed);
            let b = event_run(system, &mut env.clone(), rounds, cooldown, seed);
            assert_eq!(a.metrics, report.metrics, "seed {seed}");
            assert_eq!(a.final_state, report.final_state, "seed {seed}");
            assert_eq!(counts(&a.layers), counts(&b.layers), "seed {seed}");
            assert_eq!(a.layers.events, report.metrics.events_processed as u64);
        }
    }

    #[test]
    fn event_run_matches_the_event_runtime() {
        let mut rng = StdRng::seed_from_u64(7);
        let graph = Topology::random_connected_sparse(2_000, 16.0, &mut rng);
        let churn = RandomChurnEnv::new(graph.clone(), 0.99, 0.999);
        check_event(&minimum::system(&values(2_000), graph), &churn, 128, 16);

        let ring = Topology::ring(1_000);
        let system = minimum::system_with_step(
            &values(1_000),
            ring.clone(),
            minimum::partial_descent_step(),
        );
        check_event(
            &system,
            &PeriodicPartitionEnv::new(ring.clone(), 2, 8),
            64,
            0,
        );
        check_event(&system, &MarkovLinkEnv::new(ring, 0.3, 0.3), 200, 4);

        let complete = Topology::complete(50);
        check_event(
            &minimum::system(&values(50), complete.clone()),
            &StaticEnv::new(complete),
            64,
            8,
        );
    }

    #[test]
    fn churn_counts_come_from_the_deltas() {
        let mut rng = StdRng::seed_from_u64(3);
        let graph = Topology::random_connected_sparse(1_000, 16.0, &mut rng);
        let system = minimum::system(&values(1_000), graph.clone());
        let driven = event_run(
            &system,
            &mut RandomChurnEnv::new(graph.clone(), 0.99, 1.0),
            20,
            10,
            5,
        );
        let rounds = driven.metrics.rounds_executed as u64;
        // One Bernoulli per edge and per agent every round.
        let per_round = (graph.edge_count() + 1_000) as u64;
        assert!(driven.layers.env_rng_draws >= rounds * per_round);
        assert_eq!(
            driven.layers.full_deltas, 1,
            "only the first delta is absolute"
        );
        assert!(driven.layers.edges_flipped > 0);
        // The graph stays one component, so each round with a downed edge
        // touches every agent.
        assert_eq!(driven.layers.touched_agents % 1_000, 0);
        assert!(driven.layers.touched_agents > 0);
    }

    #[test]
    fn sync_run_matches_the_sync_runtime() {
        let ring = Topology::ring(8);
        let system = minimum::system(&values(8), ring.clone());
        for seed in [1, 2, 3] {
            let env = RandomChurnEnv::new(ring.clone(), 0.5, 0.9);
            let report = SyncSimulator::new(SyncConfig {
                max_rounds: 10_000,
                cooldown_rounds: 16,
                seed,
                ..SyncConfig::default()
            })
            .run(&system, &mut env.clone());
            let driven = sync_run(&system, &mut env.clone(), 10_000, 16, seed);
            assert_eq!(driven.metrics, report.metrics, "seed {seed}");
            assert_eq!(driven.final_state, report.final_state, "seed {seed}");
            assert_eq!(
                driven.layers.full_deltas,
                report.metrics.rounds_executed as u64
            );
        }
    }
}
