//! The round-trip law, property-tested: for every builtin environment,
//! topology family, execution mode and delivery rule — over *randomly
//! drawn parameters*, not just the defaults — `parse(label(x)) == x`.
//!
//! This is the contract that makes emitted output re-runnable: the
//! `environment`, `topology` and `mode` columns of any JSONL record or
//! markdown row feed back into `--envs`/`--topologies`/`--modes` (or the
//! registries' `resolve`) and reconstruct the *identical* grid cell; the
//! `delivery` column is the `dv` field of the async mode label.  Rust's
//! shortest-round-trip float formatting is what makes this hold for
//! probability parameters.

use proptest::prelude::*;
use proptest::TestCaseError;
use selfsim_campaign::{
    parse_label, AsyncKnobs, DeliveryRule, EnvRegistry, ExecutionMode, TopologyRegistry,
};

/// `family(k=v,…)` over the drawn probabilities, then the drawn counts.
fn format_label(family: &str, probabilities: &[(&str, f64)], counts: &[(&str, usize)]) -> String {
    let params: Vec<String> = probabilities
        .iter()
        .map(|(key, value)| format!("{key}={value}"))
        .chain(counts.iter().map(|(key, value)| format!("{key}={value}")))
        .collect();
    format!("{family}({})", params.join(","))
}

/// Checks that `label` names `family` and carries exactly the drawn
/// parameter values — the typed-field guarantee, read back from text.
fn assert_params_read_back(
    label: &str,
    family: &str,
    probabilities: &[(&str, f64)],
    counts: &[(&str, usize)],
) -> Result<(), TestCaseError> {
    let (name, mut params) = parse_label(label).map_err(TestCaseError::fail)?;
    prop_assert_eq!(name, family);
    for &(key, drawn) in probabilities {
        prop_assert_eq!(
            params.take_probability(key).map_err(TestCaseError::fail)?,
            Some(drawn)
        );
    }
    for &(key, drawn) in counts {
        prop_assert_eq!(
            params.take::<usize>(key).map_err(TestCaseError::fail)?,
            Some(drawn)
        );
    }
    params.finish(&[]).map_err(TestCaseError::fail)?;
    Ok(())
}

/// Resolves the environment cell named by the drawn parameters, feeds its
/// label back through the registry, and checks the reconstruction is
/// identical in label *and* behaviourally relevant metadata, with every
/// drawn value readable from the label.
fn assert_env_round_trips(
    family: &str,
    probabilities: &[(&str, f64)],
    counts: &[(&str, usize)],
) -> Result<(), TestCaseError> {
    let envs = EnvRegistry::builtin_ref();
    let cell = envs
        .resolve(&format_label(family, probabilities, counts))
        .map_err(TestCaseError::fail)?;
    let reparsed = envs.resolve(&cell.label()).map_err(TestCaseError::fail)?;
    prop_assert_eq!(reparsed.label(), cell.label());
    prop_assert_eq!(reparsed.can_fragment(), cell.can_fragment());
    prop_assert_eq!(&reparsed, &cell);
    assert_params_read_back(&cell.label(), family, probabilities, counts)
}

proptest! {
    #[test]
    fn churn_labels_round_trip(e in 0.0..=1.0f64, a in 0.0..=1.0f64) {
        assert_env_round_trips("churn", &[("e", e), ("a", a)], &[])?;
    }

    #[test]
    fn markov_labels_round_trip(up in 0.0..=1.0f64, down in 0.0..=1.0f64) {
        assert_env_round_trips("markov", &[("up", up), ("down", down)], &[])?;
    }

    #[test]
    fn partition_labels_round_trip(blocks in 1usize..=8, period in 1usize..=64) {
        assert_env_round_trips("partition", &[], &[("b", blocks), ("t", period)])?;
    }

    #[test]
    fn crash_labels_round_trip(c in 0.0..=1.0f64, r in 0.0..=1.0f64) {
        assert_env_round_trips("crash", &[("c", c), ("r", r)], &[])?;
    }

    #[test]
    fn adversary_labels_round_trip(silence in 0usize..=32) {
        assert_env_round_trips("adversary", &[], &[("s", silence)])?;
    }

    #[test]
    fn churn_plus_crash_labels_round_trip(
        e in 0.0..=1.0f64,
        c in 0.0..=1.0f64,
        r in 0.0..=1.0f64,
    ) {
        assert_env_round_trips("churn+crash", &[("e", e), ("c", c), ("r", r)], &[])?;
    }

    #[test]
    fn random_topology_labels_round_trip(p in 0.0..=1.0f64) {
        let topos = TopologyRegistry::builtin_ref();
        let cell = topos
            .resolve(&format_label("random", &[("p", p)], &[]))
            .map_err(TestCaseError::fail)?;
        let reparsed = topos.resolve(&cell.label()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(reparsed.label(), cell.label());
        prop_assert_eq!(&reparsed, &cell);
        assert_params_read_back(&cell.label(), "random", &[("p", p)], &[])?;
    }

    #[test]
    fn sync_mode_labels_round_trip(cooldown in 0usize..=256) {
        let mode = ExecutionMode::Sync { cooldown };
        prop_assert_eq!(ExecutionMode::parse_label(&mode.label()), Ok(mode));
    }

    #[test]
    fn async_mode_labels_round_trip(
        interaction_rate in f64::EPSILON..=1.0f64,
        max_latency in 1usize..=32,
        drop_rate in 0.0..=1.0f64,
        grace in 0usize..=64,
        which_rule in 0usize..=2,
    ) {
        let delivery = match which_rule {
            0 => DeliveryRule::ValidAtDelivery,
            1 => DeliveryRule::ValidAtSend,
            _ => DeliveryRule::AnyOverlap { grace },
        };
        let knobs = AsyncKnobs::new(interaction_rate, max_latency, drop_rate, delivery)
            .expect("in-range knobs");
        let mode = ExecutionMode::Async(knobs);
        // Covers both the collapsed default label (`async`) and the fully
        // parameterised nested form (`async(i=…,l=…,d=…,dv=…)`).
        prop_assert_eq!(ExecutionMode::parse_label(&mode.label()), Ok(mode));
    }

    #[test]
    fn delivery_rule_labels_round_trip(grace in 0usize..=256, which_rule in 0usize..=2) {
        let rule = match which_rule {
            0 => DeliveryRule::ValidAtDelivery,
            1 => DeliveryRule::ValidAtSend,
            _ => DeliveryRule::AnyOverlap { grace },
        };
        prop_assert_eq!(DeliveryRule::parse_label(&rule.label()), Ok(rule));
    }
}

/// Every *default* builtin instance round-trips too (the bare-label path).
#[test]
fn builtin_defaults_round_trip() {
    let envs = EnvRegistry::builtin();
    assert_eq!(envs.len(), 7);
    for entry in envs.iter() {
        let reparsed = envs.resolve(&entry.label()).expect("own label resolves");
        assert_eq!(reparsed.label(), entry.label());
        // The bare family name resolves to exactly the registered default.
        let bare = envs.resolve(entry.family()).expect("bare family resolves");
        assert_eq!(bare.label(), entry.label());
    }
    let topos = TopologyRegistry::builtin();
    assert_eq!(topos.len(), 6);
    for entry in topos.iter() {
        assert_eq!(
            topos.resolve(&entry.label()).expect("resolves").label(),
            entry.label()
        );
    }
}

/// Unknown labels and malformed parameters fail with messages that name
/// the problem — the registry-listing style of the algorithm registry.
#[test]
fn unknown_and_malformed_labels_are_rejected_with_named_errors() {
    let envs = EnvRegistry::builtin();
    let err = envs.resolve("quantum-foam").unwrap_err();
    assert!(err.contains("unknown environment `quantum-foam`"), "{err}");
    assert!(err.contains("churn"), "error lists the registry: {err}");

    // Malformed grammar.
    let err = envs.resolve("churn(e=0.5").unwrap_err();
    assert!(err.contains("missing closing"), "{err}");
    // Unparseable value, field named.
    let err = envs.resolve("churn(e=banana)").unwrap_err();
    assert!(err.contains("`e`") && err.contains("banana"), "{err}");
    // Out-of-range probability, field named.
    let err = envs.resolve("churn(a=1.01)").unwrap_err();
    assert!(err.contains("`a`") && err.contains("[0, 1]"), "{err}");
    // Unknown parameter, expected list given.
    let err = envs.resolve("partition(b=2,q=9)").unwrap_err();
    assert!(err.contains("unknown parameter q"), "{err}");
    assert!(err.contains("expected b, t"), "{err}");
    // Zero where at least 1 is required.
    let err = envs.resolve("partition(t=0)").unwrap_err();
    assert!(err.contains("`t` must be at least 1"), "{err}");

    let topos = TopologyRegistry::builtin();
    let err = topos.resolve("torus").unwrap_err();
    assert!(err.contains("unknown topology `torus`"), "{err}");
    let err = topos.resolve("ring(p=0.5)").unwrap_err();
    assert!(err.contains("unknown parameter p"), "{err}");

    let err = ExecutionMode::parse_label("async(i=2)").unwrap_err();
    assert!(err.contains("interaction_rate"), "{err}");
    let err = DeliveryRule::parse_label("any-overlap(g=-1)").unwrap_err();
    assert!(err.contains("`g`"), "{err}");
}
