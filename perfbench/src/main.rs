//! `perfbench` — the repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload churn-1e5|ring-1e6|campaign-8 --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no tracing in
//! the measured code; with `--trace 1` it drives the same trials outside-in
//! through the public layer calls and reports per-layer metrics.  Progress
//! goes to stderr; the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

// The benchmark exists to read the wall clock, like the `bench` crate.
#![allow(clippy::disallowed_methods)]

mod campaign;
mod drive;
mod engine;

use std::io::Write;
use std::process::ExitCode;

/// The parsed command line.
pub struct Args {
    workload: String,
    /// The workload seed every trial seed is derived from.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a workload run reports.
pub struct Outcome {
    /// Operations checked (trials).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Whole-run checks (continuity, runtime agreement, byte identity).
    pub checks_passed: bool,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

/// A sink that counts the bytes written to it, and optionally hashes them
/// (FNV-1a) so two streams can be compared without keeping either.
#[derive(Default)]
pub struct Sink {
    /// Bytes written.
    pub bytes: u64,
    /// FNV-1a hash of the bytes, when hashing.
    pub hash: Option<u64>,
}

impl Sink {
    /// A sink that also hashes.
    pub fn hashing() -> Self {
        Sink {
            bytes: 0,
            hash: Some(0xcbf2_9ce4_8422_2325),
        }
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        if let Some(hash) = &mut self.hash {
            for &b in buf {
                *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest order statistics (NaN when `values` is empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile every end-to-end timing reports: the fastest tenth of a
/// run's samples.  Other tenants of a shared host only ever slow a sample
/// down, so the fast tail of a run repeats from run to run where its
/// median does not.
pub const FAST_QUANTILE: f64 = 0.1;

/// The yardstick's fast-tenth time on an idle host (the 2-vCPU Xeon VM
/// the benchmark was tuned on): end-to-end times are reported at this host
/// speed (see [`yardstick_s`]).
pub const YARDSTICK_NOMINAL_S: f64 = 2.5e-3;

/// Wall seconds of one run of the yardstick, a fixed integer kernel over a
/// 16 KiB table that the benchmark times before every measured sample.  It
/// calls nothing in the repository, so no change to the program moves it.
/// Other tenants of the host slow it and the workloads alike, for minutes
/// at a time, so the fast tenth of its times measures how fast the host
/// ran during a run, and end-to-end times are scaled by it (see
/// [`end_to_end_metrics`]).
pub fn yardstick_s() -> f64 {
    let mut table = vec![0u32; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let start = std::time::Instant::now();
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & 4095;
        table[i] = table[i].wrapping_add(x as u32);
        if table[i] & 1 == 0 {
            x = x.wrapping_add(u64::from(table[(i * 7) & 4095]));
        }
    }
    std::hint::black_box((x, table));
    start.elapsed().as_secs_f64()
}

/// Peak resident memory of this process in MiB (`VmHWM`).  The process
/// runs one workload only, so this is that workload's peak.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64 over the workload seed and a trial index: the seed of the
/// `i`-th measured trial.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-trial layer times of one traced sample: one trial on the engine
/// workloads, one pass on the campaign.
#[derive(Clone, Copy, Default)]
pub struct Sample {
    /// Environment layer.
    pub env_s: f64,
    /// Connectivity layer.
    pub groups_s: f64,
    /// Group stepping.
    pub step_s: f64,
    /// Objective and convergence check.
    pub objective_s: f64,
    /// Engine time outside the four layers above.
    pub runtime_other_s: f64,
    /// `run_trial`, engine included.
    pub trial_run_s: f64,
    /// `run_trial` minus the engine run: topology, environment, values.
    pub trial_setup_s: f64,
    /// `TrialRecord::to_jsonl_line`.
    pub serialize_s: f64,
    /// The sink write.
    pub sink_write_s: f64,
    /// Traced wall time, without the benchmark's own bookkeeping.
    pub wall_s: f64,
}

impl Sample {
    /// The engine layers of `layers`, divided over `trials`.
    pub fn engine(layers: &drive::Layers, trials: f64) -> Self {
        Sample {
            env_s: layers.env_s / trials,
            groups_s: layers.groups_s / trials,
            step_s: layers.step_s / trials,
            objective_s: layers.objective_s / trials,
            runtime_other_s: layers.runtime_other_s() / trials,
            wall_s: layers.engine_s / trials,
            ..Sample::default()
        }
    }
}

/// The per-layer metrics: times are medians over `samples`, counts are
/// `counts` per trial (exact: they come from fixed seeds).
pub fn per_layer_metrics(
    samples: &[Sample],
    counts: &drive::Layers,
    count_trials: f64,
    bytes_per_trial: f64,
    overhead_frac: f64,
) -> Vec<Metric> {
    let time = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let per_trial = |c: u64| c as f64 / count_trials;
    let considered = counts.groups_stepped + counts.groups_elided;
    let elided_frac = if considered == 0 {
        0.0
    } else {
        counts.groups_elided as f64 / considered as f64
    };
    vec![
        Metric::new("env.step_delta_s", time(|s| s.env_s), "s"),
        Metric::new("env.rng_draws", per_trial(counts.env_rng_draws), "count"),
        Metric::new(
            "env.edges_flipped",
            per_trial(counts.edges_flipped),
            "count",
        ),
        Metric::new("env.full_deltas", per_trial(counts.full_deltas), "count"),
        Metric::new("groups.update_s", time(|s| s.groups_s), "s"),
        Metric::new("groups.rescans", per_trial(counts.rescans), "count"),
        Metric::new(
            "groups.down_batches",
            per_trial(counts.down_batches),
            "count",
        ),
        Metric::new(
            "groups.touched_agents",
            per_trial(counts.touched_agents),
            "count",
        ),
        Metric::new("core.step_s", time(|s| s.step_s), "s"),
        Metric::new(
            "core.groups_stepped",
            per_trial(counts.groups_stepped),
            "count",
        ),
        Metric::new(
            "core.groups_elided",
            per_trial(counts.groups_elided),
            "count",
        ),
        Metric::new("core.elided_frac", elided_frac, "frac"),
        Metric::new(
            "core.agents_stepped",
            per_trial(counts.agents_stepped),
            "count",
        ),
        Metric::new(
            "core.step_rng_draws",
            per_trial(counts.step_rng_draws),
            "count",
        ),
        Metric::new("core.objective_s", time(|s| s.objective_s), "s"),
        Metric::new(
            "core.objective_evals",
            per_trial(counts.objective_evals),
            "count",
        ),
        Metric::new("runtime.other_s", time(|s| s.runtime_other_s), "s"),
        Metric::new("runtime.events", per_trial(counts.events), "count"),
        Metric::new("campaign.trial_run_s", time(|s| s.trial_run_s), "s"),
        Metric::new("campaign.trial_setup_s", time(|s| s.trial_setup_s), "s"),
        Metric::new("campaign.serialize_s", time(|s| s.serialize_s), "s"),
        Metric::new("campaign.sink_write_s", time(|s| s.sink_write_s), "s"),
        Metric::new("campaign.bytes_per_trial", bytes_per_trial, "bytes"),
        Metric::new("trace.wall_s", time(|s| s.wall_s), "s"),
        Metric::new("trace.overhead_frac", overhead_frac, "frac"),
    ]
}

/// The end-to-end metrics, from per-sample walls, rates and set-up times
/// and the run's yardstick times.  Each is taken at the fast end of the
/// run (see [`FAST_QUANTILE`]) and scaled to the nominal host speed: by
/// [`YARDSTICK_NOMINAL_S`] over the fast tenth of `yardstick_s`.
pub fn end_to_end_metrics(
    trial_walls: &[f64],
    agent_rounds_per_s: &[f64],
    setup_s: &[f64],
    yardstick_s: &[f64],
) -> Vec<Metric> {
    let scale = YARDSTICK_NOMINAL_S / quantile(yardstick_s, FAST_QUANTILE);
    let trial_s = quantile(trial_walls, FAST_QUANTILE);
    let setup = quantile(setup_s, FAST_QUANTILE);
    eprintln!(
        "perfbench: unscaled p10 trial {trial_s:.6e} s, set-up {setup:.6e} s; \
         yardstick p10 {:.6e} s over {} runs, scale {scale:.4}",
        YARDSTICK_NOMINAL_S / scale,
        yardstick_s.len()
    );
    vec![
        Metric::new("trials_per_s", 1.0 / (trial_s * scale), "1/s"),
        Metric::new("trial_s_p10", trial_s * scale, "s"),
        Metric::new(
            "agent_rounds_per_s",
            quantile(agent_rounds_per_s, 1.0 - FAST_QUANTILE) / scale,
            "1/s",
        ),
        Metric::new("setup_s", setup * scale, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn to_json(outcome: &Outcome) -> String {
    let correct = outcome.checks_passed && outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "churn-1e5" => engine::run(engine::Cell::Churn, &args),
        "ring-1e6" => engine::run(engine::Cell::Ring, &args),
        "campaign-8" => campaign::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (churn-1e5, ring-1e6, campaign-8)");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    println!("{}", to_json(&outcome));
    ExitCode::SUCCESS
}
