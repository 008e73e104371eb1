//! The open-registry path, end to end: register a *user* environment and a
//! *user* topology by label and sweep them through a campaign grid — no
//! enum edited, no crate patched.
//!
//! The environment is a "day/night duty cycle": for `day` rounds each edge
//! is up with probability `p`, then the network is fully down for `night`
//! rounds (sensors sleeping to save battery — the paper's motivating
//! scenario).  The topology is a
//! "double ring": a cycle plus its chords two hops apart.  Both register
//! under parameterised labels (`daynight(d=…,n=…,p=…)`, `double-ring`) that
//! round-trip through `resolve`, exactly like the builtin families — the
//! same way `--envs`/`--topologies` resolve labels in the `campaign` CLI.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_environment
//! ```

use rand::RngCore;
use self_similar::env::{EnvState, Environment, Params, Topology};
use selfsim_campaign::{
    emit, Campaign, EnvFactory, EnvRef, EnvRegistry, Registry, ScenarioGrid, TopoRef,
    TopologyFactory, TopologyRegistry,
};

/// Factory for the day/night duty-cycle environment:
/// `daynight(d=…,n=…,p=…)`.
struct DayNight {
    day: usize,
    night: usize,
    p: f64,
}

struct DayNightEnv {
    topology: Topology,
    day: usize,
    night: usize,
    p: f64,
    tick: usize,
}

impl Environment for DayNightEnv {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn step(&mut self, rng: &mut dyn RngCore) -> EnvState {
        use rand::Rng;
        let phase = self.tick % (self.day + self.night);
        self.tick += 1;
        if phase < self.day {
            let edges: Vec<_> = self
                .topology
                .edges()
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(self.p))
                .collect();
            EnvState::new(self.topology.agent_count(), edges, self.topology.agents())
        } else {
            EnvState::fully_disabled(self.topology.agent_count())
        }
    }

    fn name(&self) -> &'static str {
        "day-night"
    }
}

impl EnvFactory for DayNight {
    fn family(&self) -> &str {
        "daynight"
    }
    fn description(&self) -> &str {
        "user example — edges up w.p. p for d rounds, all asleep for n rounds"
    }
    fn label(&self) -> String {
        format!("daynight(d={},n={},p={})", self.day, self.night, self.p)
    }
    fn can_fragment(&self) -> bool {
        // Day-phase churn can isolate subgroups unless every edge is up.
        self.p < 1.0
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(DayNightEnv {
            topology,
            day: self.day,
            night: self.night,
            p: self.p,
            tick: 0,
        })
    }
    fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
        let day = params.take_positive("d")?.unwrap_or(self.day);
        let night = params.take_positive("n")?.unwrap_or(self.night);
        let p = params.take_probability("p")?.unwrap_or(self.p);
        params.finish(&["d", "n", "p"])?;
        Ok(EnvRef::new(DayNight { day, night, p }))
    }
}

/// Factory for the chord-augmented cycle: `double-ring`.
struct DoubleRing;

impl TopologyFactory for DoubleRing {
    fn family(&self) -> &str {
        "double-ring"
    }
    fn description(&self) -> &str {
        "user example — a cycle plus chords two hops apart"
    }
    fn label(&self) -> String {
        "double-ring".into()
    }
    fn build(&self, n: usize, _rng: &mut dyn RngCore) -> Topology {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            if n > 4 {
                edges.push((i, (i + 2) % n));
            }
        }
        Topology::from_edges(n, edges)
    }
    fn instantiate(&self, params: Params) -> Result<TopoRef, String> {
        params.finish(&[])?;
        Ok(TopoRef::new(DoubleRing))
    }
}

fn main() {
    // Register the user families alongside the builtins.
    let mut envs = EnvRegistry::builtin();
    envs.register(EnvRef::new(DayNight {
        day: 4,
        night: 4,
        p: 0.5,
    }));
    let mut topologies = TopologyRegistry::builtin();
    topologies.register(TopoRef::new(DoubleRing));

    // Address everything by label — including a parameterisation never
    // constructed explicitly anywhere (a long 12-round night).
    let night_heavy = envs
        .resolve("daynight(d=2,n=12,p=0.4)")
        .expect("registered");
    let double_ring = topologies.resolve("double-ring").expect("registered");
    println!(
        "user families registered: env `{}`, topology `{}`",
        night_heavy.label(),
        double_ring.label(),
    );

    // The round-trip law holds for user families exactly as for builtins.
    assert_eq!(
        envs.resolve(&night_heavy.label()).unwrap().label(),
        night_heavy.label(),
    );

    let scenarios = ScenarioGrid::new()
        .algorithms(["minimum", "second-smallest"].map(|label| {
            Registry::builtin_ref()
                .resolve(label)
                .expect("builtin label")
        }))
        .topologies([double_ring])
        .envs([envs.resolve("daynight").expect("defaults"), night_heavy])
        .sizes([8, 16])
        .trials(5)
        .max_rounds(50_000)
        .expand();
    println!("expanded {} cells; running…\n", scenarios.len());

    let result = Campaign::new(scenarios).seed(42).run();
    print!("{}", emit::markdown_summary(&result.summaries));

    // Self-similar algorithms shrug off the duty cycle: progress pauses at
    // night and resumes by day, so every cell converges.
    for summary in &result.summaries {
        assert_eq!(
            summary.converged, summary.trials,
            "{} should converge",
            summary.scenario
        );
        assert!(summary.environment.starts_with("daynight("));
        assert_eq!(summary.topology, "double-ring");
    }
    println!("\nall cells converged under the user environment and topology.");
}
