//! `escale` — the E-series event-runtime scaling gate CI runs on every push.
//!
//! Sweeps the [`selfsim_bench::escale`] kernels over
//! n ∈ {10³, 10⁴, 10⁵, 10⁶} on the E-series topologies and writes the
//! curve as JSON; CI passes `--out BENCH_12.json`.
//!
//! ```text
//! cargo run --release -p selfsim-bench --bin escale -- \
//!     --assert-min-events-per-sec 50 --assert-peak-rss-mb 2048
//! ```
//!
//! Each cell runs in a child process (`--cell TOPO N`, an internal flag)
//! so that its peak RSS (`VmHWM`, monotone over a process's life) is its
//! own.  A cell runs in-process only when no child can be spawned; a
//! child that fails fails the sweep.  Dropping below an events/sec floor
//! (the event loop slowing down) or exceeding the peak-RSS bound (the
//! million-agent cells materialising dense state again) fails the
//! process, and with it the CI job.

#![expect(
    clippy::disallowed_macros,
    reason = "a bench binary: its summary and gate verdicts on stdio are its contract"
)]

use std::process::ExitCode;

use selfsim_bench::escale::{cell_from_child, format_cell, CellResult, EscaleTopology};
use selfsim_bench::harness::{
    self, gate, kb_or_null, parse_value, unknown_flag, write_file, Bound, Flags, JsonWriter,
};

struct Args {
    sizes: Vec<usize>,
    out: String,
    // (topology, floor); `None` applies to every cell.
    assert_min_events_per_sec: Vec<(Option<EscaleTopology>, f64)>,
    assert_peak_rss_mb: Option<u64>,
    cell: Option<(EscaleTopology, usize)>,
}

const USAGE: &str = "\
escale — E-series event-runtime scaling curve (events/sec + peak RSS), as JSON

OPTIONS
    --sizes N,N,...             agent counts to sweep, each at least 2
                                (default 1000,10000,100000,1000000)
    --out PATH                  where to write the bench JSON (default BENCH_12.json)
    --assert-min-events-per-sec R  fail if any cell's throughput drops below R
                                (the speed gate); TOPO=R,TOPO=R floors each
                                topology's cells apart, as they differ by
                                orders of magnitude
    --assert-peak-rss-mb M      fail if peak RSS exceeds M MiB (the memory gate)
    --cell TOPO N               internal: run one cell in this process and
                                print its row (the sweep spawns one per cell)
    --help                      this text
";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        sizes: vec![1_000, 10_000, 100_000, 1_000_000],
        out: "BENCH_12.json".into(),
        assert_min_events_per_sec: Vec::new(),
        assert_peak_rss_mb: None,
        cell: None,
    };
    while let Some(flag) = flags.next_flag()? {
        match flag.as_str() {
            "--sizes" => {
                let sizes: String = flags.value(&flag)?;
                args.sizes = (sizes.split(',').map(|s| parse_value(&flag, s.trim())))
                    .collect::<Result<_, _>>()?;
                if let Some(n) = args.sizes.iter().find(|&&n| n < 2) {
                    return Err(format!("--sizes values must be at least 2, got {n}"));
                }
            }
            "--out" => args.out = flags.value(&flag)?,
            "--assert-min-events-per-sec" => {
                for part in flags.value::<String>(&flag)?.split(',') {
                    // `R` floors every cell, `TOPO=R` the cells of one topology.
                    let (topology, floor) = match part.split_once('=') {
                        Some((label, floor)) => match EscaleTopology::from_label(label) {
                            Some(topology) => (Some(topology), floor),
                            None => return Err(format!("bad {flag}: unknown topology `{label}`")),
                        },
                        None => (None, part),
                    };
                    let floor = parse_value(&flag, floor.trim())?;
                    args.assert_min_events_per_sec.push((topology, floor));
                }
            }
            "--assert-peak-rss-mb" => args.assert_peak_rss_mb = Some(flags.value(&flag)?),
            "--cell" => {
                let label: String = flags.value(&flag)?;
                let topology = EscaleTopology::from_label(&label)
                    .ok_or_else(|| format!("unknown --cell topology `{label}`"))?;
                let n = parse_value("--cell size", &flags.value::<String>(&flag)?)?;
                args.cell = Some((topology, n));
            }
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(args)
}

/// One emitted row of the scaling curve.
struct Row {
    topology: EscaleTopology,
    n: usize,
    cell: CellResult,
}

/// Runs one cell in a child process so its `VmHWM` is per-cell, or in
/// this process when no child can be spawned.
fn run_cell_in_child(topology: EscaleTopology, n: usize) -> Result<CellResult, String> {
    let spawned = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--cell", topology.label(), &n.to_string()])
            .output()
    });
    match spawned {
        Ok(output) => cell_from_child(&output)
            .map_err(|e| format!("cell {}/n={n} failed: {e}", topology.label())),
        // No child: correct timings, but the process-lifetime RSS peak.
        Err(_) => Ok(CellResult::measure(topology, n)),
    }
}

/// The bench JSON, labelled `bench`.
fn document(bench: &str, rows: &[Row]) -> String {
    let mut json = JsonWriter::new(bench);
    json.open(Some("escale"), '[');
    for row in rows {
        let (o, cell) = (&row.cell.outcome, &row.cell);
        json.open(None, '{')
            .field("topology", format_args!("\"{}\"", row.topology.label()))
            .field("n", row.n)
            .field("events_processed", o.events_processed)
            .field("peak_queue_depth", o.peak_queue_depth)
            .field("rounds", o.rounds_executed)
            .field("converged", o.converged)
            .field("wall_seconds", format_args!("{:.6}", cell.wall_seconds))
            .field("setup_seconds", format_args!("{:.6}", cell.setup_seconds))
            .field(
                "events_per_sec",
                format_args!("{:.1}", cell.events_per_sec()),
            )
            .field("peak_rss_kb", kb_or_null(cell.peak_rss_kb))
            .close('}');
    }
    json.close(']');
    json.finish()
}

fn gates(args: &Args, rows: &[Row]) -> Result<(), String> {
    for &(topology, floor) in &args.assert_min_events_per_sec {
        for row in rows {
            if topology.is_some_and(|t| t != row.topology) {
                continue;
            }
            let events_per_sec = row.cell.events_per_sec();
            gate(events_per_sec, Bound::AtLeast(floor), || {
                format!(
                    "{}/n={} ran at {events_per_sec:.0} events/s, below the \
                     {floor:.0} events/s floor — the event loop has slowed down",
                    row.topology.label(),
                    row.n
                )
            })?;
        }
    }
    if let Some(bound) = args.assert_peak_rss_mb {
        for row in rows {
            if let Some(kb) = row.cell.peak_rss_kb {
                gate(kb as f64, Bound::AtMost(bound as f64 * 1024.0), || {
                    format!(
                        "{}/n={} peaked at {kb} KiB, over the {bound} MiB bound — \
                         the large cells are materialising dense per-agent or edge state again",
                        row.topology.label(),
                        row.n
                    )
                })?;
            }
        }
    }
    Ok(())
}

fn run(args: Args) -> Result<(), String> {
    if let Some((topology, n)) = args.cell {
        println!("{}", format_cell(&CellResult::measure(topology, n)));
        return Ok(());
    }
    let mut rows = Vec::new();
    for topology in EscaleTopology::ALL {
        for &n in args.sizes.iter().filter(|&&n| n <= topology.max_n()) {
            let cell = run_cell_in_child(topology, n)?;
            eprintln!(
                "escale: {}/n={n}: {} events in {:.4}s = {:.0} events/s, \
                 set-up {:.4}s, {} rounds, converged={}, peak RSS {}",
                topology.label(),
                cell.outcome.events_processed,
                cell.wall_seconds,
                cell.events_per_sec(),
                cell.setup_seconds,
                cell.outcome.rounds_executed,
                cell.outcome.converged,
                cell.peak_rss_kb
                    .map_or("unavailable".into(), |kb| format!("{kb} KiB")),
            );
            rows.push(Row { topology, n, cell });
        }
    }
    // The file's own name labels it, so a curve regenerated under a new
    // name does not claim to be an older one.
    let label = std::path::Path::new(&args.out)
        .file_stem()
        .map_or("BENCH".into(), |stem| stem.to_string_lossy());
    write_file(&args.out, &document(&label, &rows))?;
    eprintln!("escale: wrote {}", args.out);
    gates(&args, &rows)
}

fn main() -> ExitCode {
    harness::main(USAGE, parse_args, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_bench::escale::EscaleOutcome;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&mut Flags::new(
            args.iter().map(|a| a.to_string()).collect(),
        ))
    }

    fn error(args: &[&str]) -> String {
        parse(args).err().expect("the flags are rejected")
    }

    #[test]
    fn flag_errors_name_the_flag() {
        assert_eq!(error(&["--seed", "1"]), "unknown flag `--seed`");
        assert_eq!(error(&["--out"]), "--out expects a value");
        assert!(error(&["--assert-peak-rss-mb", "lots"]).starts_with("bad --assert-peak-rss-mb: "));
        assert!(error(&["--sizes", "10,x"]).starts_with("bad --sizes: "));
        assert_eq!(
            error(&["--assert-min-events-per-sec", "25,ring=3"]),
            "bad --assert-min-events-per-sec: unknown topology `ring`"
        );
        for small in ["0", "1", "1000,1"] {
            let message = error(&["--sizes", small]);
            assert!(
                message.starts_with("--sizes values must be at least 2"),
                "{message}"
            );
        }
        let args = parse(&["--assert-min-events-per-sec", "25,partitioned-ring=277"])
            .expect("valid floors");
        assert_eq!(
            args.assert_min_events_per_sec,
            [(None, 25.0), (Some(EscaleTopology::PartitionedRing), 277.0)]
        );
    }

    /// A bare run writes the current scaling curve, the file CI commits.
    #[test]
    fn default_out_is_the_current_curve() {
        assert_eq!(parse(&[]).expect("no flags").out, "BENCH_12.json");
        assert!(USAGE.contains("(default BENCH_12.json)"));
    }

    fn row(
        topology: EscaleTopology,
        n: usize,
        outcome: [usize; 3],
        [wall, setup]: [f64; 2],
    ) -> Row {
        let [events_processed, peak_queue_depth, rounds_executed] = outcome;
        let converged = topology == EscaleTopology::CompleteStatic;
        let outcome = EscaleOutcome {
            events_processed,
            peak_queue_depth,
            rounds_executed,
            converged,
        };
        let peak_rss_kb = converged.then_some(2700);
        let cell = CellResult {
            outcome,
            wall_seconds: wall,
            setup_seconds: setup,
            peak_rss_kb,
        };
        Row { topology, n, cell }
    }

    /// Fixed numbers render to fixed bytes: the committed file's key order,
    /// indent and per-field precision.
    #[test]
    fn document_matches_the_golden() {
        let rows = [
            row(
                EscaleTopology::CompleteStatic,
                1000,
                [516, 2, 257],
                [0.000078, 0.000113],
            ),
            row(
                EscaleTopology::PartitionedRing,
                1_000_000,
                [3265, 33, 64],
                [10.015625, 0.072],
            ),
        ];
        assert_eq!(document("BENCH_12", &rows), GOLDEN);
        assert_eq!(document("BENCH_X", &[]), GOLDEN_EMPTY);
    }

    const GOLDEN: &str = r#"{
  "bench": "BENCH_12",
  "escale": [
    {
      "topology": "complete-static",
      "n": 1000,
      "events_processed": 516,
      "peak_queue_depth": 2,
      "rounds": 257,
      "converged": true,
      "wall_seconds": 0.000078,
      "setup_seconds": 0.000113,
      "events_per_sec": 6615384.6,
      "peak_rss_kb": 2700
    },
    {
      "topology": "partitioned-ring",
      "n": 1000000,
      "events_processed": 3265,
      "peak_queue_depth": 33,
      "rounds": 64,
      "converged": false,
      "wall_seconds": 10.015625,
      "setup_seconds": 0.072000,
      "events_per_sec": 326.0,
      "peak_rss_kb": null
    }
  ]
}
"#;

    const GOLDEN_EMPTY: &str = r#"{
  "bench": "BENCH_X",
  "escale": [
  ]
}
"#;
}
