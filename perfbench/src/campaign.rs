//! The campaign workload: thousands of 8-agent trials streamed through the
//! campaign runner on one worker thread, so the fixed per-trial costs
//! (runtime loop, record serialization, sink) dominate.
//!
//! Cells: `minimum` on an 8-agent ring × {`static`, `churn(e=0.5,a=0.9)`}
//! × {`sync(cd=16)`, `event(cd=16)`}.  Every pass streams the whole
//! campaign at the workload seed, so every pass does the same work.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::Rng;
use selfsim_algorithms::minimum;
use selfsim_campaign::{
    run_system, run_trial, AlgorithmRef, Campaign, CampaignAlgorithm, CampaignResult, EnvRegistry,
    ExecutionMode, Registry, Scenario, ScenarioGrid, TopologyRegistry, TrialSetup,
};
use selfsim_env::Environment;
use selfsim_trace::RunMetrics;

use crate::drive::{self, Layers};
use crate::{
    end_to_end_metrics, median, per_layer_metrics, quantile, yardstick_s, Args, Outcome, Sample,
    Sink, FAST_QUANTILE,
};

/// Trials per cell; a pass streams four cells.
const TRIALS_PER_CELL: u64 = 2_000;
/// Round budget per trial (never reached: every trial converges).
const MAX_ROUNDS: usize = 100_000;
/// Set-ups per timed batch; `setup_s` is the fast end of the batch means.
const SETUP_BATCH: usize = 200;
/// Fewest measured passes per run.
const MIN_PASSES: usize = 5;

/// Builds the campaign from labels, as a user of the runner would.
fn setup(seed: u64) -> Result<Campaign, String> {
    let envs = EnvRegistry::builtin_ref();
    let modes = ["sync(cd=16)", "event(cd=16)"]
        .iter()
        .map(|label| ExecutionMode::parse_label(label))
        .collect::<Result<Vec<_>, _>>()?;
    let scenarios = ScenarioGrid::new()
        .algorithms([Registry::builtin_ref().resolve("minimum")?])
        .topologies([TopologyRegistry::builtin_ref().resolve("ring")?])
        .envs([envs.resolve("static")?, envs.resolve("churn(e=0.5,a=0.9)")?])
        .modes(modes)
        .sizes([8])
        .trials(TRIALS_PER_CELL)
        .max_rounds(MAX_ROUNDS)
        .expand();
    Ok(Campaign::new(scenarios).seed(seed).threads(1))
}

/// The mean time of one set-up over a batch.  A set-up takes
/// microseconds, so it is timed in batches, one batch before every pass:
/// the batches then span the whole run, like the passes.
fn setup_batch(seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(setup(seed)?);
    }
    Ok(start.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

/// The builtin `minimum` adapter with its engine run driven outside-in: the
/// same label, values and system, so its records (and their bytes) must be
/// the builtin's.  Layer times accumulate into `layers`.
struct TracedMinimum {
    layers: Arc<Mutex<Layers>>,
}

/// The builtin adapters' initial values (`int_values` in
/// `selfsim_campaign`): positive, pairwise distinct.
fn int_values(n: usize, rng: &mut impl Rng) -> Vec<i64> {
    let pool_max: i64 = if n <= 4096 { 9999 } else { n as i64 * 4 };
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.gen_range(1..=pool_max);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

impl CampaignAlgorithm for TracedMinimum {
    fn label(&self) -> &str {
        "minimum"
    }

    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let system = minimum::system(&values, setup.topology.clone());
        let (max_rounds, seed) = (setup.max_rounds, setup.seed);
        let driven = match setup.mode {
            ExecutionMode::Event { cooldown } => {
                drive::event_run(&system, env, max_rounds, cooldown, seed)
            }
            ExecutionMode::Sync { cooldown } => {
                drive::sync_run(&system, env, max_rounds, cooldown, seed)
            }
            ExecutionMode::Async { .. } => return run_system(&system, setup, env),
        };
        self.layers
            .lock()
            .expect("the traced pass runs on one thread")
            .add(&driven.layers);
        driven.metrics
    }
}

/// Trials in `result` whose record missed its expectation.
fn missed(result: &CampaignResult) -> u64 {
    result
        .summaries
        .iter()
        .map(|s| s.trials - s.expectation_met)
        .sum()
}

/// One untraced pass: `Campaign::stream_to` into a counting sink.
fn untraced_pass(campaign: &Campaign, sink: &mut Sink) -> Result<(f64, CampaignResult), String> {
    let start = Instant::now();
    let result = campaign
        .stream_to(sink)
        .map_err(|e| format!("campaign stream failed: {e}"))?;
    Ok((start.elapsed().as_secs_f64(), result))
}

/// What one traced pass measured.
struct TracedPass {
    sample: Sample,
    layers: Layers,
    sink: Sink,
    failed: u64,
    /// Wall time including the benchmark's bookkeeping.
    gross_s: f64,
}

/// One traced pass: every job in the runner's order, through `run_trial`,
/// `TrialRecord::to_jsonl_line` and the sink write, each timed.
fn traced_pass(
    campaign: &Campaign,
    traced: &[Scenario],
    layers: &Mutex<Layers>,
    trials: f64,
) -> Result<TracedPass, String> {
    *layers.lock().expect("single-threaded") = Layers::default();
    let mut sink = Sink::default();
    let mut hash = Sink::hashing();
    let (mut trial_run_s, mut serialize_s, mut sink_write_s, mut bookkeeping_s) =
        (0.0, 0.0, 0.0, 0.0);
    let mut failed = 0;
    let start = Instant::now();
    for (scenario, traced_scenario) in campaign.scenarios().iter().zip(traced) {
        for trial in 0..scenario.trials {
            let seed = campaign.trial_seed(scenario, trial);
            let t0 = Instant::now();
            let record = run_trial(traced_scenario, trial, seed);
            let t1 = Instant::now();
            let line = record
                .to_jsonl_line()
                .map_err(|e| format!("record serialization failed: {e}"))?;
            let t2 = Instant::now();
            sink.write_all(&line)
                .map_err(|e| format!("sink write failed: {e}"))?;
            let t3 = Instant::now();
            trial_run_s += (t1 - t0).as_secs_f64();
            serialize_s += (t2 - t1).as_secs_f64();
            sink_write_s += (t3 - t2).as_secs_f64();
            hash.write_all(&line)
                .map_err(|e| format!("hash failed: {e}"))?;
            if !record.meets_expectation {
                failed += 1;
            }
            bookkeeping_s += t3.elapsed().as_secs_f64();
        }
    }
    let gross_s = start.elapsed().as_secs_f64();
    let layers = layers.lock().expect("single-threaded").clone();
    let trial_run_s = trial_run_s - layers.bookkeeping_s;
    let mut sample = Sample::engine(&layers, trials);
    sample.trial_run_s = trial_run_s / trials;
    sample.trial_setup_s = (trial_run_s - layers.engine_s) / trials;
    sample.serialize_s = serialize_s / trials;
    sample.sink_write_s = sink_write_s / trials;
    sample.wall_s = (gross_s - bookkeeping_s - layers.bookkeeping_s) / trials;
    sink.hash = hash.hash;
    Ok(TracedPass {
        sample,
        layers,
        sink,
        failed,
        gross_s,
    })
}

/// Runs the campaign workload; see `perfbench/README.md` for the protocol.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let trace = args.trace;
    let campaign = setup(args.seed)?;
    let trials = campaign.trial_count();

    // Warm-up, and the reference stream of this seed.
    let mut reference = Sink::hashing();
    let (_, warm) = untraced_pass(&campaign, &mut reference)?;
    let mut checks_passed = warm.trials == trials && missed(&warm) == 0;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let start = Instant::now();
    if !trace {
        // The work of a pass, from its records: every pass repeats it.
        let records = campaign.run_collect().records;
        let agent_rounds: u64 = records
            .iter()
            .map(|r| (r.agents * r.rounds_executed) as u64)
            .sum();
        let mut per_trial = Vec::new();
        let mut agent_rounds_per_s = Vec::new();
        let mut setup_s = Vec::new();
        let mut yardstick = Vec::new();
        while per_trial.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
            setup_s.push(setup_batch(args.seed)?);
            let mut sink = Sink::default();
            yardstick.push(yardstick_s());
            let (wall, result) = untraced_pass(&campaign, &mut sink)?;
            attempted += result.trials;
            failed += missed(&result);
            checks_passed &= sink.bytes == reference.bytes;
            per_trial.push(wall / trials as f64);
            agent_rounds_per_s.push(agent_rounds as f64 / wall);
        }
        eprintln!(
            "perfbench: {} passes of {trials} trials, p10 {:.0} trials/s, median {:.0} trials/s",
            per_trial.len(),
            1.0 / quantile(&per_trial, FAST_QUANTILE),
            1.0 / median(&per_trial)
        );
        return Ok(Outcome {
            attempted,
            failed,
            checks_passed,
            metrics: end_to_end_metrics(&per_trial, &agent_rounds_per_s, &setup_s, &yardstick),
        });
    }

    let layers = Arc::new(Mutex::new(Layers::default()));
    let traced_scenarios: Vec<Scenario> = campaign
        .scenarios()
        .iter()
        .map(|s| Scenario {
            algorithm: AlgorithmRef::new(TracedMinimum {
                layers: Arc::clone(&layers),
            }),
            ..s.clone()
        })
        .collect();
    let mut samples = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut counts = Layers::default();
    let mut bytes_per_trial = 0.0;
    while samples.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, result) = untraced_pass(&campaign, &mut Sink::default())?;
        let pass = traced_pass(&campaign, &traced_scenarios, &layers, trials as f64)?;
        attempted += 2 * trials;
        failed += missed(&result) + pass.failed;
        let same_bytes = pass.sink.bytes == reference.bytes && pass.sink.hash == reference.hash;
        if !same_bytes {
            eprintln!("perfbench: traced pass bytes differ from Campaign::stream_to's");
        }
        checks_passed &= same_bytes;
        if samples.is_empty() {
            counts = pass.layers.clone();
            bytes_per_trial = pass.sink.bytes as f64 / trials as f64;
        }
        samples.push(pass.sample);
        untraced.push(wall);
        traced.push(pass.gross_s);
    }
    let overhead = median(&traced) / median(&untraced) - 1.0;
    Ok(Outcome {
        attempted,
        failed,
        checks_passed,
        metrics: per_layer_metrics(&samples, &counts, trials as f64, bytes_per_trial, overhead),
    })
}
