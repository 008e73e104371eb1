//! `bench_campaign` — the bench-regression gate CI runs on every push.
//!
//! Times the [`selfsim_bench::hotpath`] kernels (the only harness that
//! times them) plus a large streaming-campaign throughput run, samples
//! peak RSS from `/proc/self/status` (`VmHWM`), and writes everything as
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

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use selfsim_bench::harness::{
    self, best_of_3, gate, kb_or_null, timed, unknown_flag, write_file, Bound, Flags, JsonWriter,
};
use selfsim_bench::{hotpath, peak_rss_kb};
use selfsim_campaign::{
    distribute_trials, Campaign, CampaignResult, EnvRegistry, Registry, ScenarioGrid,
    TopologyRegistry,
};
use selfsim_trace::MetricsRegistry;

struct Args {
    trials: u64,
    threads: usize,
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

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        trials: 100_000,
        threads: 0,
        out: "BENCH_3.json".into(),
        jsonl_out: None,
        assert_peak_rss_mb: None,
        assert_min_trials_per_sec: None,
        assert_max_obs_overhead_pct: None,
    };
    while let Some(flag) = flags.next_flag()? {
        match flag.as_str() {
            "--trials" => args.trials = flags.value(&flag)?,
            "--threads" => args.threads = flags.value(&flag)?,
            "--out" => args.out = flags.value(&flag)?,
            "--jsonl-out" => args.jsonl_out = Some(flags.value(&flag)?),
            "--assert-peak-rss-mb" => args.assert_peak_rss_mb = Some(flags.value(&flag)?),
            "--assert-min-trials-per-sec" => {
                args.assert_min_trials_per_sec = Some(flags.value(&flag)?);
            }
            "--assert-max-obs-overhead-pct" => {
                args.assert_max_obs_overhead_pct = Some(flags.value(&flag)?);
            }
            other => return Err(unknown_flag(other)),
        }
    }
    if args.trials == 0 {
        return Err("--trials must be positive".into());
    }
    Ok(args)
}

/// Times the hotpath kernel `name` in ns/iter: `min(3, iters)` warm-up
/// calls, then the best of three timed batches.
fn ns_per_iter(name: &'static str, iters: u32, run: impl Fn() -> bool) -> (&'static str, f64) {
    let (_, best) = best_of_3(3.min(iters), iters, || std::hint::black_box(run()));
    let ns = best.as_nanos() as f64 / iters as f64;
    eprintln!("  hotpath/{name}: {ns:.0} ns/iter");
    (name, ns)
}

/// Counts the bytes streamed through it to `inner`.
struct Counting {
    inner: Box<dyn Write + Send>,
    bytes: u64,
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.bytes += written as u64;
        Ok(written)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Streams `campaign` to the file at `path`, or to nowhere; returns the
/// result and the bytes streamed.
fn stream(campaign: &Campaign, path: Option<&str>) -> Result<(CampaignResult, u64), String> {
    let inner: Box<dyn Write + Send> = match path {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        None => Box::new(std::io::sink()),
    };
    let mut sink = Counting { inner, bytes: 0 };
    let result = campaign
        .stream_to(&mut sink)
        .and_then(|r| sink.flush().map(|()| r));
    let result = result.map_err(|e| format!("campaign stream failed: {e}"))?;
    Ok((result, sink.bytes))
}

/// The pipeline stage timers `BENCH_3.json` breaks a trial into.
const STAGES: [&str; 4] = [
    "pipeline/trial-run",
    "pipeline/serialize",
    "pipeline/reorder-wait",
    "pipeline/sink-write",
];

/// Everything `BENCH_3.json` reports.
struct Report {
    hotpath_ns_per_iter: Vec<(&'static str, f64)>,
    trials: u64,
    threads: usize,
    wall_seconds: f64,
    trials_per_sec: f64,
    streamed_bytes: u64,
    peak_rss_kb: Option<u64>,
    observed_trials_per_sec: f64,
    overhead_pct: f64,
    sink_stalls: u64,
    reorder_depth_max: u64,
    // (stage timer, spans, total ns)
    stage_ns: [(&'static str, u64, u64); 4],
}

impl Report {
    fn document(&self) -> String {
        let mut json = JsonWriter::new("BENCH_3");
        json.open(Some("hotpath_ns_per_iter"), '{');
        for (name, ns) in &self.hotpath_ns_per_iter {
            json.field(name, format_args!("{ns:.1}"));
        }
        json.close('}')
            .open(Some("campaign"), '{')
            .field("trials", self.trials)
            .field("threads", self.threads)
            .field("wall_seconds", format_args!("{:.3}", self.wall_seconds))
            .field("trials_per_sec", format_args!("{:.1}", self.trials_per_sec))
            .field("streamed_bytes", self.streamed_bytes)
            .field("peak_rss_kb", kb_or_null(self.peak_rss_kb))
            .close('}')
            .open(Some("campaign_observed"), '{')
            .field(
                "trials_per_sec",
                format_args!("{:.1}", self.observed_trials_per_sec),
            )
            .field("overhead_pct", format_args!("{:.2}", self.overhead_pct))
            .field("sink_stalls", self.sink_stalls)
            .field("reorder_depth_max", self.reorder_depth_max)
            .close('}')
            .open(Some("stage_ns"), '{');
        for (name, spans, total_ns) in &self.stage_ns {
            let inline = format_args!("{{ \"spans\": {spans}, \"total_ns\": {total_ns} }}");
            json.field(name, inline);
        }
        json.close('}');
        json.finish()
    }

    fn gates(&self, args: &Args) -> Result<(), String> {
        if let (Some(bound), Some(kb)) = (args.assert_peak_rss_mb, self.peak_rss_kb) {
            gate(kb as f64, Bound::AtMost(bound as f64 * 1024.0), || {
                format!(
                    "peak RSS {kb} KiB exceeds the {bound} MiB bound — \
                     streamed records are accumulating in memory again"
                )
            })?;
        }
        let tps = self.trials_per_sec;
        if let Some(floor) = args.assert_min_trials_per_sec {
            gate(tps, Bound::AtLeast(floor), || {
                format!("{tps:.0} trials/s is below the {floor:.0} trials/s floor")
            })?;
        }
        let overhead = self.overhead_pct;
        if let Some(bound) = args.assert_max_obs_overhead_pct {
            gate(overhead, Bound::AtMost(bound), || {
                format!(
                    "metrics observation costs {overhead:.2}% throughput, above \
                     the {bound}% bound — the observability layer is no longer cheap enough \
                     to leave compiled in"
                )
            })?;
        }
        Ok(())
    }
}

fn run(args: Args) -> Result<(), String> {
    // --- hotpath kernels ---
    eprintln!("bench_campaign: timing hotpath kernels");
    let hotpath_ns_per_iter = vec![
        ns_per_iter("is-converged/64", 20_000, hotpath::is_converged(64)),
        ns_per_iter("is-converged/256", 5_000, hotpath::is_converged(256)),
        ns_per_iter(
            "static-ring-128-cooldown-512",
            20,
            hotpath::static_cooldown(),
        ),
        ns_per_iter("adversary-ring-32-full-run", 20, hotpath::adversary_run()),
    ];

    // --- streaming campaign throughput ---
    // Two cheap cells (static + churn on an 8-agent ring) so the measured
    // cost is runner + serialization + aggregation, not one algorithm's
    // convergence pathology.
    let envs = EnvRegistry::builtin_ref();
    let mut scenarios = ScenarioGrid::new()
        .algorithms([Registry::builtin_ref().resolve("minimum")?])
        .topologies([TopologyRegistry::builtin_ref().resolve("ring")?])
        .envs([envs.resolve("static")?, envs.resolve("churn(e=0.5,a=0.9)")?])
        .sizes([8])
        .trials(1) // replaced below by the exact budget split
        .max_rounds(100_000)
        .expand();
    // The exact split the campaign CLI uses (shared helper): the budget
    // is a measurement parameter, so overshooting it (the old div_ceil
    // bug) would skew trials/sec.
    distribute_trials(&mut scenarios, args.trials);
    // Master seed 0, the seed every recorded BENCH_3 run has used.
    let campaign = Campaign::new(scenarios).seed(0).threads(args.threads);
    let threads = if args.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        args.threads
    };
    let total = campaign.trial_count();
    eprintln!("bench_campaign: streaming {total} trials over {threads} threads");

    let (streamed, wall) = timed(|| stream(&campaign, args.jsonl_out.as_deref()));
    let (result, streamed_bytes) = streamed?;
    let per_sec = |wall: Duration| result.trials as f64 / wall.as_secs_f64().max(f64::EPSILON);
    let (trials_per_sec, wall) = (per_sec(wall), wall.as_secs_f64());
    let peak_rss = peak_rss_kb();
    eprintln!(
        "bench_campaign: {} trials in {wall:.2}s = {trials_per_sec:.0} trials/s, \
         {streamed_bytes} bytes streamed, peak RSS {}",
        result.trials,
        peak_rss.map_or("unavailable".into(), |kb| format!("{kb} KiB")),
    );

    // --- observed reruns: same campaign with a metrics registry attached ---
    // The delta against a plain run is the cost of observability when it
    // is on; the stage timers become the per-stage breakdown.  Whichever
    // run of a back-to-back pair goes second tends to come out faster, so
    // each round runs plain, observed, observed, plain (ABBA) and compares
    // the summed walls, which cancels that order effect.  Throughput also
    // jitters by several percent between identical runs, so the gate takes
    // the smallest per-round overhead, which jitter inflates far more
    // often than it deflates.  The first observed run's registry gives
    // the round's stage breakdown.
    let mut obs_trials_per_sec = 0.0f64;
    let mut obs_overhead_pct = f64::INFINITY;
    let mut registry = Arc::new(MetricsRegistry::new());
    let plain = || -> Result<Duration, String> {
        let (streamed, t) = timed(|| stream(&campaign, None));
        streamed.map(|_| t)
    };
    let observed = |registry: &Arc<MetricsRegistry>| -> Result<Duration, String> {
        let observed = campaign.clone().observe(Arc::clone(registry));
        let (streamed, t) = timed(|| stream(&observed, None));
        streamed.map(|_| t).map_err(|e| format!("observed {e}"))
    };
    for _ in 0..3 {
        let round_registry = Arc::new(MetricsRegistry::new());
        let mut plain_wall = plain()?;
        let mut observed_wall = observed(&round_registry)?;
        observed_wall += observed(&Arc::new(MetricsRegistry::new()))?;
        plain_wall += plain()?;
        let tps = 2.0 * per_sec(observed_wall);
        let overhead = 100.0 * (1.0 - tps / (2.0 * per_sec(plain_wall)).max(f64::EPSILON));
        if overhead < obs_overhead_pct {
            obs_overhead_pct = overhead;
            obs_trials_per_sec = tps;
            registry = round_registry;
        }
    }
    let report = Report {
        hotpath_ns_per_iter,
        trials: result.trials,
        threads,
        wall_seconds: wall,
        trials_per_sec,
        streamed_bytes,
        peak_rss_kb: peak_rss,
        observed_trials_per_sec: obs_trials_per_sec,
        overhead_pct: obs_overhead_pct,
        sink_stalls: registry.counter("pipeline/sink-stalls").get(),
        reorder_depth_max: (registry
            .histogram("pipeline/reorder-depth")
            .nonzero_buckets())
        .last()
        .map_or(0, |&(depth, _)| depth),
        stage_ns: STAGES.map(|name| {
            let timer = registry.timer(name);
            (name, timer.count(), timer.total_nanos())
        }),
    };
    eprintln!(
        "bench_campaign: observed rerun {obs_trials_per_sec:.0} trials/s \
         ({obs_overhead_pct:+.2}% overhead), {} sink stalls, reorder depth <= {}",
        report.sink_stalls, report.reorder_depth_max
    );
    for (name, count, total_ns) in &report.stage_ns {
        eprintln!("  {name}: {count} spans, {total_ns} ns total");
    }
    write_file(&args.out, &report.document())?;
    eprintln!("bench_campaign: wrote {}", args.out);
    report.gates(&args)
}

fn main() -> ExitCode {
    harness::main(USAGE, parse_args, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error(args: &[&str]) -> String {
        parse_args(&mut Flags::new(
            args.iter().map(|a| a.to_string()).collect(),
        ))
        .err()
        .expect("the flags are rejected")
    }

    #[test]
    fn flag_errors_name_the_flag() {
        assert_eq!(error(&["--seed", "1"]), "unknown flag `--seed`");
        assert_eq!(error(&["--jsonl-out"]), "--jsonl-out expects a value");
        assert!(error(&["--trials", "many"]).starts_with("bad --trials: "));
        assert_eq!(error(&["--trials", "0"]), "--trials must be positive");
    }

    /// Fixed numbers render to fixed bytes: the committed file's key order,
    /// indent and per-field precision.
    #[test]
    fn document_matches_the_golden() {
        let report = Report {
            hotpath_ns_per_iter: vec![
                ("is-converged/64", 267.6),
                ("is-converged/256", 991.04),
                ("static-ring-128-cooldown-512", 34706.94),
                ("adversary-ring-32-full-run", 77836.66),
            ],
            trials: 100_000,
            threads: 1,
            wall_seconds: 1.4412,
            trials_per_sec: 69405.55,
            streamed_bytes: 46_645_843,
            peak_rss_kb: Some(3456),
            observed_trials_per_sec: 78481.62,
            overhead_pct: 1.774,
            sink_stalls: 0,
            reorder_depth_max: 1,
            stage_ns: [
                ("pipeline/trial-run", 12500, 102_419_578),
                ("pipeline/serialize", 12500, 45_475_564),
                ("pipeline/reorder-wait", 0, 0),
                ("pipeline/sink-write", 12500, 480_007),
            ],
        };
        assert_eq!(report.document(), GOLDEN);
    }

    const GOLDEN: &str = r#"{
  "bench": "BENCH_3",
  "hotpath_ns_per_iter": {
    "is-converged/64": 267.6,
    "is-converged/256": 991.0,
    "static-ring-128-cooldown-512": 34706.9,
    "adversary-ring-32-full-run": 77836.7
  },
  "campaign": {
    "trials": 100000,
    "threads": 1,
    "wall_seconds": 1.441,
    "trials_per_sec": 69405.6,
    "streamed_bytes": 46645843,
    "peak_rss_kb": 3456
  },
  "campaign_observed": {
    "trials_per_sec": 78481.6,
    "overhead_pct": 1.77,
    "sink_stalls": 0,
    "reorder_depth_max": 1
  },
  "stage_ns": {
    "pipeline/trial-run": { "spans": 12500, "total_ns": 102419578 },
    "pipeline/serialize": { "spans": 12500, "total_ns": 45475564 },
    "pipeline/reorder-wait": { "spans": 0, "total_ns": 0 },
    "pipeline/sink-write": { "spans": 12500, "total_ns": 480007 }
  }
}
"#;
}
