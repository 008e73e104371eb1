//! Benchmark harness support (see benches/ and src/bin/).
//!
//! The [`hotpath`] kernels are shared between the criterion benches
//! (`benches/experiments.rs`) and the `bench_campaign` binary that CI runs
//! to emit `BENCH_3.json`, so both measure exactly the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The hot-path benchmark kernels: convergence checking (target multiset
/// cached per instance) and full simulator runs that exercise fixpoint
/// elision on unchanging connectivity.  Construction (`new`) is setup and excluded from
/// timing; `run` is one measured iteration.
pub mod hotpath {
    use selfsim_algorithms::minimum;
    use selfsim_core::SelfSimilarSystem;
    use selfsim_env::{AdversarialEnv, StaticEnv, Topology};
    use selfsim_runtime::{SyncConfig, SyncSimulator};

    /// Deterministic pseudo-values for `n` agents.
    pub fn values_for(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 37 + 11) % 199) + 1).collect()
    }

    /// The convergence check on a min-consensus system of `n` agents
    /// (every check hits the cached target multiset).
    pub struct IsConverged {
        system: SelfSimilarSystem<i64>,
        target: Vec<i64>,
    }

    impl IsConverged {
        /// Builds the system and its converged target state.
        pub fn new(n: usize) -> Self {
            let values = values_for(n);
            let target = vec![values.iter().copied().min().expect("non-empty"); n];
            IsConverged {
                system: minimum::system(&values, Topology::ring(n)),
                target,
            }
        }

        /// One measured iteration: is the target state converged?
        pub fn run(&self) -> bool {
            self.system.is_converged(&self.target)
        }
    }

    /// 512 cooldown rounds on an unchanging environment: every round keeps
    /// the connectivity and elides the one converged (fixpoint) group.
    pub struct StaticCooldown {
        system: SelfSimilarSystem<i64>,
        n: usize,
    }

    impl StaticCooldown {
        /// A 128-agent ring with a 512-round cooldown.
        pub fn new() -> Self {
            let n = 128;
            StaticCooldown {
                system: minimum::system(&values_for(n), Topology::ring(n)),
                n,
            }
        }

        /// One measured iteration: a full run to convergence plus cooldown.
        pub fn run(&self) -> bool {
            let mut env = StaticEnv::new(Topology::ring(self.n));
            let config = SyncConfig {
                cooldown_rounds: 512,
                seed: 1,
                ..SyncConfig::default()
            };
            SyncSimulator::new(config)
                .run(&self.system, &mut env)
                .converged()
        }
    }

    impl Default for StaticCooldown {
        fn default() -> Self {
            StaticCooldown::new()
        }
    }

    /// The single-edge adversary repeats its silent (fully-disabled) state
    /// between activations, so in every 4-round cycle the two silent rounds
    /// after the first keep the partition unchanged.
    pub struct AdversaryRun {
        system: SelfSimilarSystem<i64>,
        n: usize,
    }

    impl AdversaryRun {
        /// A 32-agent ring against the silence-3 adversary.
        pub fn new() -> Self {
            let n = 32;
            AdversaryRun {
                system: minimum::system(&values_for(n), Topology::ring(n)),
                n,
            }
        }

        /// One measured iteration: a full adversarial run to convergence.
        pub fn run(&self) -> bool {
            let mut env = AdversarialEnv::new(Topology::ring(self.n), 3);
            SyncSimulator::with_seed(2)
                .run(&self.system, &mut env)
                .converged()
        }
    }

    impl Default for AdversaryRun {
        fn default() -> Self {
            AdversaryRun::new()
        }
    }
}

/// The E-series event-runtime scaling kernels: full [`EventSimulator`]
/// runs at large `n`, shared between the criterion benches
/// (`benches/experiments.rs`, reduced sizes) and the `escale` binary that
/// emits `BENCH_10.json` in CI (up to a million agents).  Construction
/// (`new`) is setup and excluded from timing; `run` is one measured
/// iteration.
///
/// [`EventSimulator`]: selfsim_runtime::EventSimulator
pub mod escale {
    use rand::SeedableRng;
    use selfsim_algorithms::minimum;
    use selfsim_core::SelfSimilarSystem;
    use selfsim_env::{Environment, PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology};
    use selfsim_runtime::{EventConfig, EventSimulator};

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
        /// The label used in `BENCH_10.json` and the criterion group.
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
            match label {
                "complete-static" => Some(EscaleTopology::CompleteStatic),
                "partitioned-ring" => Some(EscaleTopology::PartitionedRing),
                "random-churn" => Some(EscaleTopology::RandomChurn),
                _ => None,
            }
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
    #[derive(Clone, Copy, Debug)]
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

    /// One cell of the E-series sweep: an event-driven run of
    /// min-consensus at size `n` on the chosen topology/environment pair.
    pub struct EscaleRun {
        system: SelfSimilarSystem<i64>,
        config: EventConfig,
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
            let (system, config, env) = match topology {
                EscaleTopology::CompleteStatic => (
                    minimum::system(&values_for(n), Topology::complete(n)),
                    EventConfig {
                        max_rounds: 300,
                        cooldown_rounds: 256,
                        seed: 9,
                        ..EventConfig::default()
                    },
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
                        EventConfig {
                            max_rounds: 64,
                            cooldown_rounds: 0,
                            seed: 9,
                            ..EventConfig::default()
                        },
                        PrototypeEnv::Periodic(PeriodicPartitionEnv::new(ring, 2, 8)),
                    )
                }
                EscaleTopology::RandomChurn => {
                    // The graph is part of the cell definition, so its seed
                    // is fixed per size; the run seed stays 9 like the rest.
                    let mut graph_rng = rand::rngs::StdRng::seed_from_u64(100 + n as u64);
                    let graph = Topology::random_connected_sparse(n, 16.0, &mut graph_rng);
                    let _ = graph.csr();
                    (
                        minimum::system(&values_for(n), graph.clone()),
                        EventConfig {
                            max_rounds: 128,
                            cooldown_rounds: 64,
                            seed: 9,
                            ..EventConfig::default()
                        },
                        // 0.1% of ~8n edges flip per round: scattered
                        // incremental deltas, all agents stay up.
                        PrototypeEnv::Churn(RandomChurnEnv::new(graph, 0.999, 1.0)),
                    )
                }
            };
            EscaleRun {
                system,
                config,
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
            let report = EventSimulator::new(self.config.clone()).run(&self.system, env.as_mut());
            EscaleOutcome {
                events_processed: report.metrics.events_processed,
                peak_queue_depth: report.metrics.peak_queue_depth,
                rounds_executed: report.metrics.rounds_executed,
                converged: report.converged(),
            }
        }
    }
}

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

    #[test]
    fn kernels_converge() {
        assert!(hotpath::IsConverged::new(64).run());
        assert!(hotpath::StaticCooldown::new().run());
        assert!(hotpath::AdversaryRun::new().run());
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
}
