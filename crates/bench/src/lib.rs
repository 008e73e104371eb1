//! Benchmark kernels and harness for the binaries in `src/bin/`.
//!
//! The `bench_campaign` binary times the [`hotpath`] kernels into
//! `BENCH_3.json`, and the `escale` binary sweeps the [`escale`] kernels
//! into `BENCH_12.json`; CI gates on both.  The two binaries read flags,
//! time, write JSON and check gates through [`harness`].  The repository
//! benchmark (`perfbench/`) builds its engine cells on [`escale`] too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The hot-path benchmark kernels: convergence checking (target multiset
/// cached per instance) and full simulator runs that exercise fixpoint
/// elision on unchanging connectivity.  Each function is setup, excluded
/// from timing; a call of the closure it returns is one measured iteration.
pub mod hotpath {
    use selfsim_algorithms::minimum;
    use selfsim_env::{AdversarialEnv, StaticEnv, Topology};
    use selfsim_runtime::ExecutionMode;

    /// Deterministic pseudo-values for `n` agents.
    pub fn values_for(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 37 + 11) % 199) + 1).collect()
    }

    /// The convergence check on a min-consensus system of `n` agents
    /// (every check hits the cached target multiset).
    pub fn is_converged(n: usize) -> impl Fn() -> bool {
        let values = values_for(n);
        let target = vec![values.iter().copied().min().expect("non-empty"); n];
        let system = minimum::system(&values, Topology::ring(n));
        move || system.is_converged(&target)
    }

    /// A 128-agent ring run to convergence, then 512 cooldown rounds on an
    /// unchanging environment: every round keeps the connectivity and
    /// elides the one converged (fixpoint) group.
    pub fn static_cooldown() -> impl Fn() -> bool {
        let system = minimum::system(&values_for(128), Topology::ring(128));
        move || {
            let mut env = StaticEnv::new(Topology::ring(128));
            ExecutionMode::Sync { cooldown: 512 }
                .run(&system, &mut env, 1, 10_000)
                .converged()
        }
    }

    /// A 32-agent ring run to convergence against the silence-3 adversary.
    /// The single-edge adversary repeats its silent (fully-disabled) state
    /// between activations, so in every 4-round cycle the two silent rounds
    /// after the first keep the partition unchanged.
    pub fn adversary_run() -> impl Fn() -> bool {
        let system = minimum::system(&values_for(32), Topology::ring(32));
        move || {
            let mut env = AdversarialEnv::new(Topology::ring(32), 3);
            ExecutionMode::sync()
                .run(&system, &mut env, 2, 10_000)
                .converged()
        }
    }
}

/// The E-series event-runtime scaling kernels: full
/// [`ExecutionMode::Event`] runs at large `n`, swept by the `escale`
/// binary, which CI runs to write `BENCH_12.json` (up to a million agents).
/// Construction (`new`) is setup and excluded from timing; `run` is one
/// measured iteration.
///
/// [`ExecutionMode::Event`]: selfsim_runtime::ExecutionMode::Event
pub mod escale {
    use rand::SeedableRng;
    use selfsim_algorithms::minimum;
    use selfsim_core::SelfSimilarSystem;
    use selfsim_env::{Environment, PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology};
    use selfsim_runtime::ExecutionMode;

    use super::hotpath::values_for;

    /// Which cell of the E-series curve a kernel instance measures.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum EscaleTopology {
        /// Min-consensus on a symbolic complete graph under a static
        /// environment with a 256-round cooldown: converges in one round,
        /// after which every idle round costs two events regardless of
        /// `n` — the sparse-scheduling claim, measured.
        CompleteStatic,
        /// Min-consensus by random partial descent on a ring that a
        /// two-block periodic partition keeps splitting and healing:
        /// every phase flip is an incremental connectivity delta plus a
        /// group recomputation, every round re-draws one random value per
        /// unconverged agent, so each event's cost grows with `n`.
        PartitionedRing,
        /// Min-consensus on a sparse random connected graph (expected
        /// degree 16) under per-round Bernoulli churn that flips ~0.1% of
        /// the edges each round: every round is an `EnvDelta::Changes`
        /// batch of scattered edge-down/edge-up events, the incremental
        /// group-maintenance path the periodic partition never exercises.
        /// Meaningful up to n = 10^5 (see [`EscaleTopology::max_n`]).
        RandomChurn,
    }

    impl EscaleTopology {
        /// Every cell, in sweep order.
        pub const ALL: [EscaleTopology; 3] = [
            EscaleTopology::CompleteStatic,
            EscaleTopology::PartitionedRing,
            EscaleTopology::RandomChurn,
        ];

        /// The label used in `BENCH_12.json` and by `escale --cell`.
        pub fn label(self) -> &'static str {
            match self {
                EscaleTopology::CompleteStatic => "complete-static",
                EscaleTopology::PartitionedRing => "partitioned-ring",
                EscaleTopology::RandomChurn => "random-churn",
            }
        }

        /// The inverse of [`Self::label`], for the `escale --cell` child
        /// process protocol.
        pub fn from_label(label: &str) -> Option<Self> {
            Self::ALL.into_iter().find(|t| t.label() == label)
        }

        /// Largest size this cell is swept at.  The churn cell stops at
        /// 10^5: generating and churning a random sparse graph at 10^6
        /// measures the RNG more than the connectivity core.
        pub fn max_n(self) -> usize {
            match self {
                EscaleTopology::CompleteStatic | EscaleTopology::PartitionedRing => 1_000_000,
                EscaleTopology::RandomChurn => 100_000,
            }
        }
    }

    /// What one measured run produced, for the events/sec computation and
    /// the emitted scaling row.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct EscaleOutcome {
        /// The run's event count (`RunMetrics::events_processed`).
        pub events_processed: usize,
        /// The run's peak round (`RunMetrics::peak_queue_depth`).
        pub peak_queue_depth: usize,
        /// Rounds the run executed.
        pub rounds_executed: usize,
        /// Whether the run reached (and held) the target multiset.
        pub converged: bool,
    }

    /// The pre-built environment a run is cloned from.  Cloning is O(1):
    /// topologies share their edge set and CSR adjacency copy-on-write,
    /// and `PeriodicPartitionEnv`'s phase states are `Arc`-backed.
    enum PrototypeEnv {
        Static(StaticEnv),
        Periodic(PeriodicPartitionEnv),
        Churn(RandomChurnEnv),
    }

    /// The run seed of every cell.
    const SEED: u64 = 9;

    /// One cell of the E-series sweep: an event-driven run of
    /// min-consensus at size `n` on the chosen topology/environment pair.
    pub struct EscaleRun {
        system: SelfSimilarSystem<i64>,
        mode: ExecutionMode,
        max_rounds: usize,
        env: PrototypeEnv,
    }

    impl EscaleRun {
        /// Builds the system (values, topology, cached target) and the
        /// prototype environment for size `n`; nothing here is timed.
        /// Following the kernel protocol (construction is setup), the ring
        /// topology's CSR adjacency and the partition env's phase states
        /// are built here once — `run` clones them in O(1).
        pub fn new(topology: EscaleTopology, n: usize) -> Self {
            // Adopt-min converges in one round on a connected group, which
            // is exactly the sparse-cooldown story the complete cell
            // measures; the ring cell wants sustained per-round work, so
            // it descends by random partial steps instead.
            let (system, (cooldown, max_rounds), env) = match topology {
                EscaleTopology::CompleteStatic => (
                    minimum::system(&values_for(n), Topology::complete(n)),
                    (256, 300),
                    // Symbolic: the static env never expands the clique.
                    PrototypeEnv::Static(StaticEnv::new(Topology::complete(n))),
                ),
                EscaleTopology::PartitionedRing => {
                    let ring = Topology::ring(n);
                    // Warm the flat adjacency; clones share it.
                    let _ = ring.csr();
                    (
                        minimum::system_with_step(
                            &values_for(n),
                            ring.clone(),
                            minimum::partial_descent_step(),
                        ),
                        (0, 64),
                        PrototypeEnv::Periodic(PeriodicPartitionEnv::new(ring, 2, 8)),
                    )
                }
                EscaleTopology::RandomChurn => {
                    // The graph is part of the cell definition, so its seed
                    // is fixed per size; the run seed stays `SEED`.
                    let mut graph_rng = rand::rngs::StdRng::seed_from_u64(100 + n as u64);
                    let graph = Topology::random_connected_sparse(n, 16.0, &mut graph_rng);
                    let _ = graph.csr();
                    (
                        minimum::system(&values_for(n), graph.clone()),
                        (64, 128),
                        // 0.1% of ~8n edges flip per round: scattered
                        // incremental deltas, all agents stay up.
                        PrototypeEnv::Churn(RandomChurnEnv::new(graph, 0.999, 1.0)),
                    )
                }
            };
            EscaleRun {
                system,
                mode: ExecutionMode::Event { cooldown },
                max_rounds,
                env,
            }
        }

        /// One measured iteration: a full event-driven run.
        pub fn run(&self) -> EscaleOutcome {
            let mut env: Box<dyn Environment> = match &self.env {
                PrototypeEnv::Static(e) => Box::new(e.clone()),
                PrototypeEnv::Periodic(e) => Box::new(e.clone()),
                PrototypeEnv::Churn(e) => Box::new(e.clone()),
            };
            let report = self
                .mode
                .run(&self.system, env.as_mut(), SEED, self.max_rounds);
            EscaleOutcome {
                events_processed: report.metrics.events_processed,
                peak_queue_depth: report.metrics.peak_queue_depth,
                rounds_executed: report.metrics.rounds_executed,
                converged: report.converged(),
            }
        }
    }

    /// What one cell of the sweep measured.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct CellResult {
        /// The last run's outcome.
        pub outcome: EscaleOutcome,
        /// The best of three runs' wall time.
        pub wall_seconds: f64,
        /// Peak RSS after the runs (per cell in an `escale --cell` child).
        pub peak_rss_kb: Option<u64>,
    }

    impl CellResult {
        /// Runs a cell in this process: the best of three single runs, the
        /// first doubling as warm-up, then an RSS sample.
        pub fn measure(topology: EscaleTopology, n: usize) -> Self {
            let kernel = EscaleRun::new(topology, n);
            let (outcome, best) = crate::harness::best_of_3(0, 1, || kernel.run());
            CellResult {
                outcome,
                wall_seconds: best.as_secs_f64(),
                peak_rss_kb: crate::peak_rss_kb(),
            }
        }

        /// The throughput the events/sec floors gate.
        pub fn events_per_sec(&self) -> f64 {
            self.outcome.events_processed as f64 / self.wall_seconds.max(f64::EPSILON)
        }
    }

    /// The `escale --cell` child's single stdout line.
    pub fn format_cell(cell: &CellResult) -> String {
        let o = &cell.outcome;
        format!(
            "cell events={} peak_queue={} rounds={} converged={} wall={:.6} rss_kb={}",
            o.events_processed,
            o.peak_queue_depth,
            o.rounds_executed,
            o.converged,
            cell.wall_seconds,
            cell.peak_rss_kb.map_or("none".into(), |kb| kb.to_string()),
        )
    }

    /// Parses [`format_cell`]'s line back; `None` on any mismatch.
    pub fn parse_cell(line: &str) -> Option<CellResult> {
        let mut fields = line.strip_prefix("cell ")?.split_whitespace();
        let mut field = |name: &str| fields.next()?.strip_prefix(name)?.strip_prefix('=');
        Some(CellResult {
            outcome: EscaleOutcome {
                events_processed: field("events")?.parse().ok()?,
                peak_queue_depth: field("peak_queue")?.parse().ok()?,
                rounds_executed: field("rounds")?.parse().ok()?,
                converged: field("converged")?.parse().ok()?,
            },
            wall_seconds: field("wall")?.parse().ok()?,
            peak_rss_kb: match field("rss_kb")? {
                "none" => None,
                kb => Some(kb.parse().ok()?),
            },
        })
    }

    /// The cell an `escale --cell` child measured; an error that carries
    /// the child's stderr when it failed or printed no row.
    pub fn cell_from_child(output: &std::process::Output) -> Result<CellResult, String> {
        let stdout = String::from_utf8_lossy(&output.stdout);
        match parse_cell(stdout.trim()) {
            Some(cell) if output.status.success() => Ok(cell),
            _ => Err(format!(
                "the child ended with {} and stdout {:?}; its stderr:\n{}",
                output.status,
                stdout.trim(),
                String::from_utf8_lossy(&output.stderr).trim_end()
            )),
        }
    }
}

pub mod harness;

/// Peak resident set size of this process in KiB, from
/// `/proc/self/status` (`VmHWM`); `None` off Linux.  Monotone over the
/// process lifetime.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::{escale, hotpath};
    use escale::{cell_from_child, format_cell, parse_cell, CellResult, EscaleOutcome};

    #[test]
    fn kernels_converge() {
        assert!(hotpath::is_converged(64)());
        assert!(hotpath::static_cooldown()());
        assert!(hotpath::adversary_run()());
    }

    #[test]
    fn escale_kernels_run() {
        let complete = escale::EscaleRun::new(escale::EscaleTopology::CompleteStatic, 64).run();
        assert!(complete.converged);
        // One convergence round plus the 256-round cooldown.
        assert_eq!(complete.rounds_executed, 257);
        // Idle rounds cost two events each, independent of n.
        assert!(complete.events_processed < 2 * 257 + 8);
        let ring = escale::EscaleRun::new(escale::EscaleTopology::PartitionedRing, 64).run();
        // Random partial descent is sustained multi-round work.
        assert!(ring.rounds_executed > 4, "{}", ring.rounds_executed);
        assert!(ring.events_processed > ring.rounds_executed);
        let churn = escale::EscaleRun::new(escale::EscaleTopology::RandomChurn, 64).run();
        // Adopt-min converges and then holds through the 64-round cooldown.
        assert!(churn.converged);
        assert!(churn.rounds_executed >= 64, "{}", churn.rounds_executed);
    }

    fn cell() -> CellResult {
        CellResult {
            outcome: EscaleOutcome {
                events_processed: 3265,
                peak_queue_depth: 33,
                rounds_executed: 64,
                converged: false,
            },
            wall_seconds: 10.015625,
            peak_rss_kb: None,
        }
    }

    #[test]
    fn cell_rows_round_trip() {
        let with_rss = CellResult {
            wall_seconds: 0.000078,
            peak_rss_kb: Some(2700),
            ..cell()
        };
        for cell in [cell(), with_rss] {
            assert_eq!(parse_cell(&format_cell(&cell)), Some(cell));
        }
        let row = format_cell(&cell());
        let truncated = &row[..row.find(" wall=").expect("the row has a wall field")];
        assert_eq!(parse_cell(truncated), None);
    }

    #[cfg(unix)]
    #[test]
    fn failed_children_are_errors() {
        use std::os::unix::process::ExitStatusExt;
        use std::process::{ExitStatus, Output};

        let output = |code: i32, stdout: &str| Output {
            status: ExitStatus::from_raw(code << 8),
            stdout: stdout.as_bytes().to_vec(),
            stderr: b"need at least one agent\n".to_vec(),
        };
        let row = format_cell(&cell());
        assert_eq!(cell_from_child(&output(0, &format!("{row}\n"))), Ok(cell()));
        let crashed = cell_from_child(&output(101, "")).expect_err("non-zero status");
        assert!(crashed.contains("101"), "{crashed}");
        assert!(
            crashed.ends_with("its stderr:\nneed at least one agent"),
            "{crashed}"
        );
        let garbled = cell_from_child(&output(0, "cell events=1")).expect_err("no row");
        assert!(garbled.contains("stdout \"cell events=1\""), "{garbled}");
        assert!(garbled.ends_with("need at least one agent"), "{garbled}");
    }
}
