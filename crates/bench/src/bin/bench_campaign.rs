//! `bench_campaign` — the bench-regression gate CI runs on every push.
//!
//! Times the `hotpath` kernels (the same code `cargo bench -- hotpath`
//! measures) plus a large streaming-campaign throughput run, samples peak
//! RSS from `/proc/self/status` (`VmHWM`), and writes everything as
//! `BENCH_3.json` — one point of the repo's bench trajectory.
//!
//! ```text
//! cargo run --release -p selfsim-bench --bin bench_campaign -- \
//!     --trials 100000 --jsonl-out campaign-bench.jsonl \
//!     --assert-peak-rss-mb 512 --assert-min-trials-per-sec 1000
//! ```
//!
//! The assertions are the gate: exceeding the peak-RSS bound (streamed
//! records accumulating in memory again) or dropping below the throughput
//! floor fails the process, and with it the CI job.

// the bench harness exists to read the wall clock, so it opts out of
// the clippy.toml clock ban for the whole binary
#![allow(clippy::disallowed_methods)]

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use selfsim_bench::{hotpath, peak_rss_kb};
use selfsim_campaign::{
    distribute_trials, Campaign, EnvRegistry, Registry, ScenarioGrid, TopologyRegistry,
};
use selfsim_trace::MetricsRegistry;

struct Args {
    trials: u64,
    threads: usize,
    seed: u64,
    out: String,
    jsonl_out: Option<String>,
    assert_peak_rss_mb: Option<u64>,
    assert_min_trials_per_sec: Option<f64>,
    assert_max_obs_overhead_pct: Option<f64>,
}

const USAGE: &str = "\
bench_campaign — hotpath kernel timings + streaming-campaign throughput, as JSON

OPTIONS
    --trials N                  campaign trial budget (default 100000)
    --threads T                 worker threads, 0 = all CPUs (default 0)
    --seed S                    campaign master seed (default 0)
    --out PATH                  where to write the bench JSON (default BENCH_3.json)
    --jsonl-out PATH            also stream the campaign records to this file
                                (default: a byte-counting null sink)
    --assert-peak-rss-mb M      fail if peak RSS exceeds M MiB (the memory gate)
    --assert-min-trials-per-sec R  fail if throughput drops below R (the speed gate)
    --assert-max-obs-overhead-pct P  fail if the metrics-observed rerun is more
                                than P% slower than the plain run (the
                                observability-overhead gate)
    --help                      this text
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        trials: 100_000,
        threads: 0,
        seed: 0,
        out: "BENCH_3.json".into(),
        jsonl_out: None,
        assert_peak_rss_mb: None,
        assert_min_trials_per_sec: None,
        assert_max_obs_overhead_pct: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--trials" => {
                args.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("bad --trials: {e}"))?;
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--jsonl-out" => args.jsonl_out = Some(value("--jsonl-out")?),
            "--assert-peak-rss-mb" => {
                args.assert_peak_rss_mb = Some(
                    value("--assert-peak-rss-mb")?
                        .parse()
                        .map_err(|e| format!("bad --assert-peak-rss-mb: {e}"))?,
                );
            }
            "--assert-min-trials-per-sec" => {
                args.assert_min_trials_per_sec = Some(
                    value("--assert-min-trials-per-sec")?
                        .parse()
                        .map_err(|e| format!("bad --assert-min-trials-per-sec: {e}"))?,
                );
            }
            "--assert-max-obs-overhead-pct" => {
                args.assert_max_obs_overhead_pct = Some(
                    value("--assert-max-obs-overhead-pct")?
                        .parse()
                        .map_err(|e| format!("bad --assert-max-obs-overhead-pct: {e}"))?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.trials == 0 {
        return Err("--trials must be positive".into());
    }
    Ok(args)
}

/// Times `run` (ns/iter): a few warmup iterations, then the best of three
/// timed batches — cheap, stable enough for a regression trajectory.
fn time_ns_per_iter(iters: u32, mut run: impl FnMut()) -> f64 {
    for _ in 0..3.min(iters) {
        run();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            run();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// A sink that counts (and discards) the bytes streamed through it.
struct CountingSink {
    bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // --- hotpath kernels (same code as `cargo bench -- hotpath`) ---
    eprintln!("bench_campaign: timing hotpath kernels");
    let is_converged_64 = hotpath::IsConverged::new(64);
    let is_converged_256 = hotpath::IsConverged::new(256);
    let static_cooldown = hotpath::StaticCooldown::new();
    let adversary = hotpath::AdversaryRun::new();
    let hotpath_results = [
        (
            "is-converged/64",
            time_ns_per_iter(20_000, || {
                std::hint::black_box(is_converged_64.run());
            }),
        ),
        (
            "is-converged/256",
            time_ns_per_iter(5_000, || {
                std::hint::black_box(is_converged_256.run());
            }),
        ),
        (
            "static-ring-128-cooldown-512",
            time_ns_per_iter(20, || {
                std::hint::black_box(static_cooldown.run());
            }),
        ),
        (
            "adversary-ring-32-full-run",
            time_ns_per_iter(20, || {
                std::hint::black_box(adversary.run());
            }),
        ),
    ];
    for (name, ns) in &hotpath_results {
        eprintln!("  hotpath/{name}: {ns:.0} ns/iter");
    }

    // --- streaming campaign throughput ---
    // Two cheap cells (static + churn on an 8-agent ring) so the measured
    // cost is runner + serialization + aggregation, not one algorithm's
    // convergence pathology.
    let scenarios = ScenarioGrid::new()
        .algorithms([Registry::builtin_ref()
            .resolve("minimum")
            .expect("builtin label")])
        .topologies([TopologyRegistry::builtin_ref()
            .resolve("ring")
            .expect("builtin label")])
        .envs(["static", "churn(e=0.5,a=0.9)"].map(|label| {
            EnvRegistry::builtin_ref()
                .resolve(label)
                .expect("builtin label")
        }))
        .sizes([8])
        .trials(1) // replaced below by the exact budget split
        .max_rounds(100_000)
        .expand();
    // The exact split the campaign CLI uses (shared helper): the budget
    // is a measurement parameter, so overshooting it (the old div_ceil
    // bug) would skew trials/sec.
    let mut scenarios = scenarios;
    distribute_trials(&mut scenarios, args.trials);
    let campaign = Campaign::new(scenarios)
        .seed(args.seed)
        .threads(args.threads);
    let total = campaign.trial_count();
    let threads = if args.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        args.threads
    };
    eprintln!("bench_campaign: streaming {total} trials over {threads} threads");

    let started = Instant::now();
    let (result, streamed_bytes) = match &args.jsonl_out {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(file) => file,
                Err(e) => {
                    eprintln!("error: cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut writer = std::io::BufWriter::new(file);
            let result = campaign.stream_to(&mut writer).and_then(|r| {
                writer.flush()?;
                Ok(r)
            });
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            (result, bytes)
        }
        None => {
            let mut sink = CountingSink { bytes: 0 };
            let result = campaign.stream_to(&mut sink);
            let bytes = sink.bytes;
            (result, bytes)
        }
    };
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: campaign stream failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = started.elapsed().as_secs_f64();
    let trials_per_sec = result.trials as f64 / wall.max(f64::EPSILON);
    let peak_rss = peak_rss_kb();
    eprintln!(
        "bench_campaign: {} trials in {wall:.2}s = {trials_per_sec:.0} trials/s, \
         {streamed_bytes} bytes streamed, peak RSS {}",
        result.trials,
        peak_rss.map_or("unavailable".into(), |kb| format!("{kb} KiB")),
    );

    // --- observed reruns: same campaign with a metrics registry attached ---
    // The delta against a plain run is the cost of observability when it is
    // *on*; the stage timers themselves become the per-stage breakdown in
    // the bench JSON.  Throughput at this run length jitters by several
    // percent between *identical* runs, so each round pairs a plain run
    // with an observed run back to back and the gate takes the smallest
    // per-round overhead: jitter inflates individual estimates far more
    // often than it deflates them, and the true overhead lower-bounds the
    // clean pairing.
    let mut obs_trials_per_sec = 0.0f64;
    let mut obs_overhead_pct = f64::INFINITY;
    let mut registry = Arc::new(MetricsRegistry::new());
    for _ in 0..3 {
        let mut sink = CountingSink { bytes: 0 };
        let t = Instant::now();
        if let Err(e) = campaign.stream_to(&mut sink) {
            eprintln!("error: campaign stream failed: {e}");
            return ExitCode::FAILURE;
        }
        let plain_tps = result.trials as f64 / t.elapsed().as_secs_f64().max(f64::EPSILON);

        let round_registry = Arc::new(MetricsRegistry::new());
        let observed_campaign = campaign.clone().observe(Arc::clone(&round_registry));
        let mut sink = CountingSink { bytes: 0 };
        let t = Instant::now();
        if let Err(e) = observed_campaign.stream_to(&mut sink) {
            eprintln!("error: observed campaign stream failed: {e}");
            return ExitCode::FAILURE;
        }
        let tps = result.trials as f64 / t.elapsed().as_secs_f64().max(f64::EPSILON);
        let overhead = 100.0 * (1.0 - tps / plain_tps.max(f64::EPSILON));
        if overhead < obs_overhead_pct {
            obs_overhead_pct = overhead;
            obs_trials_per_sec = tps;
            registry = round_registry;
        }
    }
    let stage_timers: Vec<(&str, u64, u64)> = [
        "pipeline/trial-run",
        "pipeline/serialize",
        "pipeline/reorder-wait",
        "pipeline/sink-write",
    ]
    .iter()
    .map(|name| {
        let timer = registry.timer(name);
        (*name, timer.count(), timer.total_nanos())
    })
    .collect();
    let sink_stalls = registry.counter("pipeline/sink-stalls").get();
    let reorder_depth_max = registry
        .histogram("pipeline/reorder-depth")
        .nonzero_buckets()
        .last()
        .map_or(0, |&(depth, _)| depth);
    eprintln!(
        "bench_campaign: observed rerun {obs_trials_per_sec:.0} trials/s \
         ({obs_overhead_pct:+.2}% overhead), {sink_stalls} sink stalls, \
         reorder depth <= {reorder_depth_max}"
    );
    for (name, count, total_ns) in &stage_timers {
        eprintln!("  {name}: {count} spans, {total_ns} ns total");
    }

    // --- BENCH_3.json (stable key order, hand-formatted so the vendored
    // serde_json subset stays out of the measurement path) ---
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"BENCH_3\",\n  \"hotpath_ns_per_iter\": {\n");
    for (i, (name, ns)) in hotpath_results.iter().enumerate() {
        let comma = if i + 1 < hotpath_results.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  },\n  \"campaign\": {\n");
    json.push_str(&format!("    \"trials\": {},\n", result.trials));
    json.push_str(&format!("    \"threads\": {threads},\n"));
    json.push_str(&format!("    \"wall_seconds\": {wall:.3},\n"));
    json.push_str(&format!("    \"trials_per_sec\": {trials_per_sec:.1},\n"));
    json.push_str(&format!("    \"streamed_bytes\": {streamed_bytes},\n"));
    json.push_str(&format!(
        "    \"peak_rss_kb\": {}\n",
        peak_rss.map_or("null".into(), |kb| kb.to_string())
    ));
    json.push_str("  },\n  \"campaign_observed\": {\n");
    json.push_str(&format!(
        "    \"trials_per_sec\": {obs_trials_per_sec:.1},\n"
    ));
    json.push_str(&format!("    \"overhead_pct\": {obs_overhead_pct:.2},\n"));
    json.push_str(&format!("    \"sink_stalls\": {sink_stalls},\n"));
    json.push_str(&format!("    \"reorder_depth_max\": {reorder_depth_max}\n"));
    json.push_str("  },\n  \"stage_ns\": {\n");
    for (i, (name, count, total_ns)) in stage_timers.iter().enumerate() {
        let comma = if i + 1 < stage_timers.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"spans\": {count}, \"total_ns\": {total_ns} }}{comma}\n"
        ));
    }
    json.push_str("  }\n}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("bench_campaign: wrote {}", args.out);

    // --- the regression gates ---
    if let (Some(bound), Some(kb)) = (args.assert_peak_rss_mb, peak_rss) {
        if kb > bound * 1024 {
            eprintln!(
                "error: peak RSS {kb} KiB exceeds the {bound} MiB bound — \
                 streamed records are accumulating in memory again"
            );
            return ExitCode::FAILURE;
        }
    }
    if let Some(floor) = args.assert_min_trials_per_sec {
        if trials_per_sec < floor {
            eprintln!("error: {trials_per_sec:.0} trials/s is below the {floor:.0} trials/s floor");
            return ExitCode::FAILURE;
        }
    }
    if let Some(bound) = args.assert_max_obs_overhead_pct {
        if obs_overhead_pct > bound {
            eprintln!(
                "error: metrics observation costs {obs_overhead_pct:.2}% throughput, above \
                 the {bound}% bound — the observability layer is no longer cheap enough \
                 to leave compiled in"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
