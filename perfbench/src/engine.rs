//! The two engine workloads: one large `EventSimulator` trial at a time.
//!
//! Both are escale cells (`selfsim_bench::escale`), built from the same
//! constructors: `churn-1e5` is random-churn at n = 10⁵ and `ring-1e6` is
//! partitioned-ring at n = 10⁶.  The graph is part of the cell, so it is
//! fixed; the workload seed drives the trial seeds, which drive the
//! environment's draws and the group steps.

use std::io::Write;
use std::time::Instant;

use rand::{RngCore, SeedableRng};
use selfsim_algorithms::minimum;
use selfsim_bench::hotpath::values_for;
use selfsim_campaign::{
    EnvRegistry, ExecutionMode, Params, Registry, Scenario, TopoRef, TopologyFactory,
    TopologyRegistry, TrialRecord,
};
use selfsim_core::SelfSimilarSystem;
use selfsim_env::{Environment, PeriodicPartitionEnv, RandomChurnEnv, Topology};
use selfsim_runtime::{EventConfig, EventSimulator, SimulationReport};

use crate::drive::{self, Layers};
use crate::{
    derive_seed, end_to_end_metrics, median, per_layer_metrics, quantile, yardstick_s, Args,
    Outcome, Sample, Sink, FAST_QUANTILE,
};

/// escale's run seed; its trials are the rows of `BENCH_10.json`.
const ESCALE_SEED: u64 = 9;
/// Fewest measured trials per run, however long they take.
const MIN_TRIALS: usize = 5;

/// Which engine workload.
#[derive(Clone, Copy)]
pub enum Cell {
    /// Adopt-min on a random connected sparse graph (expected degree 16),
    /// n = 10⁵, under `RandomChurnEnv(0.999, 1.0)`; 128 rounds, cooldown 64.
    Churn,
    /// Partial-descent min on a ring, n = 10⁶, under
    /// `PeriodicPartitionEnv(2 blocks, period 8)`; 64 rounds, no cooldown.
    Ring,
}

impl Cell {
    fn n(self) -> usize {
        match self {
            Cell::Churn => 100_000,
            Cell::Ring => 1_000_000,
        }
    }

    /// Measured trials between two set-ups: a set-up every three to five
    /// seconds of trials, so a run's set-ups are spread over it like its
    /// trials, and `setup_s` is taken at the fast end of them.
    fn setup_every(self) -> u64 {
        match self {
            Cell::Churn => 2,
            Cell::Ring => 8,
        }
    }

    /// `(rounds, events)` of the escale-seed trial, as in `BENCH_10.json`.
    fn escale_row(self) -> (usize, usize) {
        match self {
            Cell::Churn => (65, 195),
            Cell::Ring => (27, 103),
        }
    }
}

enum Prototype {
    Churn(RandomChurnEnv),
    Ring(PeriodicPartitionEnv),
}

/// The set-up: system, prototype environment and round budget.
struct Instance {
    cell: Cell,
    system: SelfSimilarSystem<i64>,
    env: Prototype,
    max_rounds: usize,
    cooldown_rounds: usize,
}

/// What one traced trial measured.
struct Traced {
    driven: drive::Driven<i64>,
    sample: Sample,
    /// Length of the trial's JSONL record.
    bytes: usize,
    /// Wall time of the driven engine run, bookkeeping included.
    engine_wall_s: f64,
}

/// escale's sparse random graph as a campaign topology family, so the
/// engine trials' records are built by `TrialRecord::from_metrics`.
struct SparseFamily;

impl TopologyFactory for SparseFamily {
    fn family(&self) -> &str {
        "sparse"
    }

    fn label(&self) -> String {
        "sparse(d=16)".into()
    }

    fn build(&self, n: usize, mut rng: &mut dyn RngCore) -> Topology {
        Topology::random_connected_sparse(n, 16.0, &mut rng)
    }

    fn instantiate(&self, _params: Params) -> Result<TopoRef, String> {
        Ok(TopoRef::new(SparseFamily))
    }
}

impl Instance {
    /// Topology, CSR adjacency, environment prototype and system, with the
    /// system's cached multisets filled, as escale's kernels build them.
    fn new(cell: Cell) -> Self {
        let n = cell.n();
        let (system, env, max_rounds, cooldown_rounds) = match cell {
            Cell::Churn => {
                let mut graph_rng = rand::rngs::StdRng::seed_from_u64(100 + n as u64);
                let graph = Topology::random_connected_sparse(n, 16.0, &mut graph_rng);
                let _ = graph.csr();
                (
                    minimum::system(&values_for(n), graph.clone()),
                    Prototype::Churn(RandomChurnEnv::new(graph, 0.999, 1.0)),
                    128,
                    64,
                )
            }
            Cell::Ring => {
                let ring = Topology::ring(n);
                let _ = ring.csr();
                (
                    minimum::system_with_step(
                        &values_for(n),
                        ring.clone(),
                        minimum::partial_descent_step(),
                    ),
                    Prototype::Ring(PeriodicPartitionEnv::new(ring, 2, 8)),
                    64,
                    0,
                )
            }
        };
        let _ = system.initial_multiset();
        let _ = system.target_ref();
        Instance {
            cell,
            system,
            env,
            max_rounds,
            cooldown_rounds,
        }
    }

    /// A fresh environment (an O(1) clone of the prototype).
    fn env(&self) -> Box<dyn Environment> {
        match &self.env {
            Prototype::Churn(e) => Box::new(e.clone()),
            Prototype::Ring(e) => Box::new(e.clone()),
        }
    }

    /// One untraced trial: `EventSimulator::run`, and its wall time.
    fn run(&self, seed: u64) -> (SimulationReport<i64>, f64) {
        let mut env = self.env();
        let simulator = EventSimulator::new(EventConfig {
            max_rounds: self.max_rounds,
            cooldown_rounds: self.cooldown_rounds,
            seed,
            ..EventConfig::default()
        });
        let start = Instant::now();
        let report = simulator.run(&self.system, env.as_mut());
        (report, start.elapsed().as_secs_f64())
    }

    /// One trial driven outside-in, then its record through the campaign's
    /// record path: `TrialRecord::from_metrics`, `to_jsonl_line` and the
    /// sink write, each timed.
    fn traced(&self, seed: u64, scenario: &Scenario, sink: &mut Sink) -> Result<Traced, String> {
        let t_setup = Instant::now();
        let mut env = self.env();
        let t_run = Instant::now();
        let driven = drive::event_run(
            &self.system,
            env.as_mut(),
            self.max_rounds,
            self.cooldown_rounds,
            seed,
        );
        let t_record = Instant::now();
        let record = TrialRecord::from_metrics(scenario, 0, seed, &driven.metrics);
        let t_serialize = Instant::now();
        let line = record
            .to_jsonl_line()
            .map_err(|e| format!("record serialization failed: {e}"))?;
        let t_sink = Instant::now();
        sink.write_all(&line)
            .map_err(|e| format!("sink write failed: {e}"))?;
        let t_end = Instant::now();

        let mut sample = Sample::engine(&driven.layers, 1.0);
        sample.trial_setup_s = ((t_run - t_setup) + (t_serialize - t_record)).as_secs_f64();
        sample.trial_run_s = driven.layers.engine_s + sample.trial_setup_s;
        sample.serialize_s = (t_sink - t_serialize).as_secs_f64();
        sample.sink_write_s = (t_end - t_sink).as_secs_f64();
        sample.wall_s = sample.trial_run_s + sample.serialize_s + sample.sink_write_s;
        Ok(Traced {
            driven,
            sample,
            bytes: line.len(),
            engine_wall_s: (t_record - t_run).as_secs_f64(),
        })
    }

    /// The campaign cell a record of this workload's trials belongs to.
    fn scenario(&self) -> Result<Scenario, String> {
        let (topology, env, mode) = match self.cell {
            Cell::Churn => (
                TopoRef::new(SparseFamily),
                "churn(e=0.999,a=1)",
                ExecutionMode::Event { cooldown: 64 },
            ),
            Cell::Ring => (
                TopologyRegistry::builtin_ref().resolve("ring")?,
                "partition(b=2,t=8)",
                ExecutionMode::Event { cooldown: 0 },
            ),
        };
        Ok(
            Scenario::builder(Registry::builtin_ref().resolve("minimum")?)
                .topology(topology)
                .env(EnvRegistry::builtin_ref().resolve(env)?)
                .mode(mode)
                .agents(self.cell.n())
                .trials(1)
                .max_rounds(self.max_rounds)
                .build(),
        )
    }

    /// The output check: the run converged and every agent holds the
    /// minimum, which is the target multiset of adopt-min and of partial
    /// descent alike.
    fn converged_to_target(&self, report: &SimulationReport<i64>) -> bool {
        let min = self.system.initial_state().iter().min().copied();
        report.converged() && report.final_state.iter().all(|&v| Some(v) == min)
    }

    /// The continuity check: the escale-seed trial is the `BENCH_10.json` row.
    fn matches_escale_row(&self, report: &SimulationReport<i64>) -> bool {
        let (rounds, events) = self.cell.escale_row();
        let ok = report.metrics.rounds_executed == rounds
            && report.metrics.events_processed == events
            && self.converged_to_target(report);
        if !ok {
            eprintln!(
                "perfbench: escale-seed trial ran {} rounds / {} events (converged: {}); \
                 BENCH_10.json has {rounds} / {events}",
                report.metrics.rounds_executed,
                report.metrics.events_processed,
                report.converged()
            );
        }
        ok
    }
}

/// Runs one engine workload; see `perfbench/README.md` for the protocol.
pub fn run(cell: Cell, args: &Args) -> Result<Outcome, String> {
    let trace = args.trace;
    let setup = || {
        let start = Instant::now();
        let instance = Instance::new(cell);
        (instance, start.elapsed().as_secs_f64())
    };
    let (mut instance, first_setup_s) = setup();
    let mut setup_s = vec![first_setup_s];
    let n = cell.n() as f64;

    // Warm-up, and the continuity check against BENCH_10.json.
    let (warm, _) = instance.run(ESCALE_SEED);
    let mut checks_passed = instance.matches_escale_row(&warm);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let start = Instant::now();
    if !trace {
        let mut walls = Vec::new();
        let mut agent_rounds = Vec::new();
        let mut yardstick = Vec::new();
        let mut i = 0;
        while walls.len() < MIN_TRIALS || start.elapsed().as_secs_f64() < args.seconds {
            if i > 0 && i % cell.setup_every() == 0 {
                // Drop the previous instance first, so peak memory is one
                // instance.
                drop(instance);
                let (next, next_setup_s) = setup();
                instance = next;
                setup_s.push(next_setup_s);
            }
            yardstick.push(yardstick_s());
            let (report, wall) = instance.run(derive_seed(args.seed, i));
            i += 1;
            attempted += 1;
            if !instance.converged_to_target(&report) {
                failed += 1;
            }
            walls.push(wall);
            agent_rounds.push(n * report.metrics.rounds_executed as f64 / wall);
        }
        eprintln!(
            "perfbench: {} trials, p10 {:.4} s, median {:.4} s; {} set-ups",
            walls.len(),
            quantile(&walls, FAST_QUANTILE),
            median(&walls),
            setup_s.len()
        );
        return Ok(Outcome {
            attempted,
            failed,
            checks_passed,
            metrics: end_to_end_metrics(&walls, &agent_rounds, &setup_s, &yardstick),
        });
    }

    // Traced: pairs of an untraced and a traced trial at one seed.  The
    // first pair is at escale's seed, and its counts are the reported ones.
    // The overhead compares the engine runs alone.
    let mut samples = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut counts = Layers::default();
    let mut bytes_per_trial = 0.0;
    let scenario = instance.scenario()?;
    let mut sink = Sink::default();
    let mut i = 0;
    while samples.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let seed = if samples.is_empty() {
            ESCALE_SEED
        } else {
            derive_seed(args.seed, i)
        };
        let (report, wall) = instance.run(seed);
        let traced_trial = instance.traced(seed, &scenario, &mut sink)?;
        let driven = &traced_trial.driven;
        // Two runs of one trial: the untraced one must converge, the traced
        // one must also agree with it.
        attempted += 2;
        let converged = instance.converged_to_target(&report);
        let agrees = driven.metrics == report.metrics && driven.final_state == report.final_state;
        if !agrees {
            eprintln!("perfbench: traced trial at seed {seed} disagrees with EventSimulator::run");
        }
        failed += u64::from(!converged) + u64::from(!(converged && agrees));
        if samples.is_empty() {
            checks_passed &= instance.matches_escale_row(&report);
            counts = driven.layers.clone();
            bytes_per_trial = traced_trial.bytes as f64;
        } else {
            i += 1;
        }
        samples.push(traced_trial.sample);
        untraced.push(wall);
        traced.push(traced_trial.engine_wall_s);
    }
    let overhead = median(&traced) / median(&untraced) - 1.0;
    Ok(Outcome {
        attempted,
        failed,
        checks_passed,
        metrics: per_layer_metrics(&samples, &counts, 1.0, bytes_per_trial, overhead),
    })
}
