//! `escale` — the E-series event-runtime scaling gate CI runs on every push.
//!
//! Sweeps the [`selfsim_bench::escale`] kernels (the same code
//! `cargo bench -- escale` measures at reduced sizes) over
//! n ∈ {10³, 10⁴, 10⁵, 10⁶} on the E-series topologies and writes the
//! curve as `BENCH_10.json` — one point of the repo's bench trajectory.
//!
//! ```text
//! cargo run --release -p selfsim-bench --bin escale -- \
//!     --assert-min-events-per-sec 50 --assert-peak-rss-mb 2048
//! ```
//!
//! Each cell runs in a child process (`--cell TOPO N`, an internal flag)
//! so its peak-RSS sample is per-cell: `VmHWM` is process-lifetime
//! monotone, and sampling it in one process made every row after the
//! first large cell repeat that cell's high-water mark.  If spawning the
//! child fails the cell falls back to running in-process (correct
//! timings, monotone RSS).
//!
//! The assertions are the gate: dropping below the events/sec floor on any
//! cell (the event loop slowing down) or exceeding the peak-RSS bound (the
//! million-agent cells materialising dense state again) fails the process,
//! and with it the CI job.

// the bench harness exists to read the wall clock; detlint.toml exempts
// the whole `bench` crate from `wall-clock` for the same reason
#![allow(clippy::disallowed_methods)]

use std::process::ExitCode;
use std::time::Instant;

use selfsim_bench::escale::{EscaleRun, EscaleTopology};

struct Args {
    sizes: Vec<usize>,
    out: String,
    // (topology label, floor); `None` label applies to every cell.
    assert_min_events_per_sec: Vec<(Option<String>, f64)>,
    assert_peak_rss_mb: Option<u64>,
    cell: Option<(EscaleTopology, usize)>,
}

const USAGE: &str = "\
escale — E-series event-runtime scaling curve (events/sec + peak RSS), as JSON

OPTIONS
    --sizes N,N,...             agent counts to sweep
                                (default 1000,10000,100000,1000000)
    --out PATH                  where to write the bench JSON (default BENCH_10.json)
    --assert-min-events-per-sec R  fail if any cell's throughput drops below R
                                (the speed gate); also takes per-topology
                                floors as TOPO=R,TOPO=R — the cells differ
                                by orders of magnitude, so one global floor
                                can only gate the slowest

    --assert-peak-rss-mb M      fail if peak RSS exceeds M MiB (the memory gate)
    --cell TOPO N               internal: run one cell and print its row
                                (the parent spawns this per cell so VmHWM is
                                per-cell, not process-monotone)
    --help                      this text
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        sizes: vec![1_000, 10_000, 100_000, 1_000_000],
        out: "BENCH_10.json".into(),
        assert_min_events_per_sec: Vec::new(),
        assert_peak_rss_mb: None,
        cell: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--sizes" => {
                args.sizes = value("--sizes")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad --sizes: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.sizes.is_empty() {
                    return Err("--sizes must name at least one size".into());
                }
            }
            "--out" => args.out = value("--out")?,
            "--assert-min-events-per-sec" => {
                for part in value("--assert-min-events-per-sec")?.split(',') {
                    let (label, floor) = match part.split_once('=') {
                        Some((topo, floor)) => {
                            if EscaleTopology::from_label(topo).is_none() {
                                return Err(format!(
                                    "bad --assert-min-events-per-sec: unknown topology `{topo}`"
                                ));
                            }
                            (Some(topo.to_owned()), floor)
                        }
                        None => (None, part),
                    };
                    let floor = floor
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad --assert-min-events-per-sec: {e}"))?;
                    args.assert_min_events_per_sec.push((label, floor));
                }
            }
            "--assert-peak-rss-mb" => {
                args.assert_peak_rss_mb = Some(
                    value("--assert-peak-rss-mb")?
                        .parse()
                        .map_err(|e| format!("bad --assert-peak-rss-mb: {e}"))?,
                );
            }
            "--cell" => {
                let label = value("--cell")?;
                let topology = EscaleTopology::from_label(&label)
                    .ok_or_else(|| format!("unknown --cell topology `{label}`"))?;
                let n = value("--cell")?
                    .parse()
                    .map_err(|e| format!("bad --cell size: {e}"))?;
                args.cell = Some((topology, n));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`);
/// `None` off Linux.  Monotone over the process lifetime — meaningful
/// per-cell only because each cell runs in its own child process.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What one cell measured, before the topology/n labels are attached.
#[derive(Clone, Copy)]
struct CellResult {
    events_processed: usize,
    peak_queue_depth: usize,
    rounds: usize,
    converged: bool,
    wall_seconds: f64,
    peak_rss_kb: Option<u64>,
}

/// One emitted row of the scaling curve.
struct Row {
    topology: &'static str,
    n: usize,
    cell: CellResult,
}

/// Runs one cell in this process: best-of-3 wall time (the first rep
/// doubles as warmup — every cell is sub-second since the flat
/// connectivity core), RSS sampled after the reps.
fn run_cell(topology: EscaleTopology, n: usize) -> CellResult {
    let kernel = EscaleRun::new(topology, n);
    let mut best_wall = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..3 {
        let start = Instant::now();
        let result = kernel.run();
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        outcome = Some(result);
    }
    let outcome = outcome.expect("at least one rep ran");
    CellResult {
        events_processed: outcome.events_processed,
        peak_queue_depth: outcome.peak_queue_depth,
        rounds: outcome.rounds_executed,
        converged: outcome.converged,
        wall_seconds: best_wall,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// The `--cell` child's single stdout line.
fn format_cell(cell: &CellResult) -> String {
    format!(
        "cell events={} peak_queue={} rounds={} converged={} wall={:.6} rss_kb={}",
        cell.events_processed,
        cell.peak_queue_depth,
        cell.rounds,
        cell.converged,
        cell.wall_seconds,
        cell.peak_rss_kb.map_or("none".into(), |kb| kb.to_string()),
    )
}

/// Parses [`format_cell`]'s line back; `None` on any mismatch (the parent
/// then falls back to running the cell in-process).
fn parse_cell(line: &str) -> Option<CellResult> {
    let mut fields = line.strip_prefix("cell ")?.split_whitespace();
    let mut field = |name: &str| -> Option<String> {
        fields
            .next()?
            .strip_prefix(name)?
            .strip_prefix('=')
            .map(str::to_owned)
    };
    Some(CellResult {
        events_processed: field("events")?.parse().ok()?,
        peak_queue_depth: field("peak_queue")?.parse().ok()?,
        rounds: field("rounds")?.parse().ok()?,
        converged: field("converged")?.parse().ok()?,
        wall_seconds: field("wall")?.parse().ok()?,
        peak_rss_kb: match field("rss_kb")? {
            none if none == "none" => None,
            kb => Some(kb.parse().ok()?),
        },
    })
}

/// Runs one cell in a child process so its `VmHWM` is per-cell.
fn run_cell_in_child(topology: EscaleTopology, n: usize) -> Option<CellResult> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args(["--cell", topology.label(), &n.to_string()])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    parse_cell(std::str::from_utf8(&output.stdout).ok()?.trim())
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

    if let Some((topology, n)) = args.cell {
        println!("{}", format_cell(&run_cell(topology, n)));
        return ExitCode::SUCCESS;
    }

    let mut rows = Vec::new();
    for topology in [
        EscaleTopology::CompleteStatic,
        EscaleTopology::PartitionedRing,
        EscaleTopology::RandomChurn,
    ] {
        for &n in &args.sizes {
            if n > topology.max_n() {
                continue;
            }
            let cell = run_cell_in_child(topology, n).unwrap_or_else(|| run_cell(topology, n));
            let events_per_sec = cell.events_processed as f64 / cell.wall_seconds.max(f64::EPSILON);
            eprintln!(
                "escale: {}/n={n}: {} events in {:.4}s = {events_per_sec:.0} events/s, \
                 {} rounds, converged={}, peak RSS {}",
                topology.label(),
                cell.events_processed,
                cell.wall_seconds,
                cell.rounds,
                cell.converged,
                cell.peak_rss_kb
                    .map_or("unavailable".into(), |kb| format!("{kb} KiB")),
            );
            rows.push(Row {
                topology: topology.label(),
                n,
                cell,
            });
        }
    }

    // --- the bench JSON (stable key order, hand-formatted so the vendored
    // serde_json subset stays out of the measurement path) ---
    let mut json = String::new();
    // The file's own name labels it, so a curve regenerated under a new
    // name does not claim to be an older one.
    let label = std::path::Path::new(&args.out)
        .file_stem()
        .map_or("BENCH".into(), |stem| stem.to_string_lossy());
    json.push_str(&format!("{{\n  \"bench\": \"{label}\",\n  \"escale\": [\n"));
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let events_per_sec =
            row.cell.events_processed as f64 / row.cell.wall_seconds.max(f64::EPSILON);
        json.push_str("    {\n");
        json.push_str(&format!("      \"topology\": \"{}\",\n", row.topology));
        json.push_str(&format!("      \"n\": {},\n", row.n));
        json.push_str(&format!(
            "      \"events_processed\": {},\n",
            row.cell.events_processed
        ));
        json.push_str(&format!(
            "      \"peak_queue_depth\": {},\n",
            row.cell.peak_queue_depth
        ));
        json.push_str(&format!("      \"rounds\": {},\n", row.cell.rounds));
        json.push_str(&format!("      \"converged\": {},\n", row.cell.converged));
        json.push_str(&format!(
            "      \"wall_seconds\": {:.6},\n",
            row.cell.wall_seconds
        ));
        json.push_str(&format!("      \"events_per_sec\": {events_per_sec:.1},\n"));
        json.push_str(&format!(
            "      \"peak_rss_kb\": {}\n",
            row.cell
                .peak_rss_kb
                .map_or("null".into(), |kb| kb.to_string())
        ));
        json.push_str(&format!("    }}{comma}\n"));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("escale: wrote {}", args.out);

    // --- the regression gates ---
    for (label, floor) in &args.assert_min_events_per_sec {
        for row in &rows {
            if label.as_deref().is_some_and(|l| l != row.topology) {
                continue;
            }
            let events_per_sec =
                row.cell.events_processed as f64 / row.cell.wall_seconds.max(f64::EPSILON);
            if events_per_sec < *floor {
                eprintln!(
                    "error: {}/n={} ran at {events_per_sec:.0} events/s, below the \
                     {floor:.0} events/s floor — the event loop has slowed down",
                    row.topology, row.n
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(bound) = args.assert_peak_rss_mb {
        for row in &rows {
            if let Some(kb) = row.cell.peak_rss_kb {
                if kb > bound * 1024 {
                    eprintln!(
                        "error: {}/n={} peaked at {kb} KiB, over the {bound} MiB bound — \
                         the large cells are materialising dense per-agent or edge state again",
                        row.topology, row.n
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
