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
    parse_label, split_top_level, AsyncKnobs, DeliveryRule, EnvRegistry, ExecutionMode, Registry,
    TopologyRegistry,
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

/// A non-default sample of `mode`'s variant.  The `match` is exhaustive
/// with no `_` arm, so a new `ExecutionMode` variant stops this file from
/// compiling until it has a sample here.
fn mode_sample(mode: ExecutionMode) -> ExecutionMode {
    match mode {
        ExecutionMode::Sync { .. } => ExecutionMode::Sync { cooldown: 7 },
        ExecutionMode::Event { .. } => ExecutionMode::Event { cooldown: 9 },
        ExecutionMode::Async(_) => ExecutionMode::Async(
            AsyncKnobs::new(0.25, 4, 0.125, delivery_sample(DeliveryRule::any_overlap()))
                .expect("in-range knobs"),
        ),
    }
}

/// A sample of `rule`'s variant, non-default where the variant has a
/// parameter; exhaustive like [`mode_sample`].
fn delivery_sample(rule: DeliveryRule) -> DeliveryRule {
    match rule {
        DeliveryRule::ValidAtDelivery => DeliveryRule::ValidAtDelivery,
        DeliveryRule::ValidAtSend => DeliveryRule::ValidAtSend,
        DeliveryRule::AnyOverlap { .. } => DeliveryRule::AnyOverlap { grace: 5 },
    }
}

/// Every variant of the two runtime-side label grammars round-trips, in
/// its default form and in its sample form — the enum half of the
/// round-trip law, checked per variant rather than per drawn value.
#[test]
fn every_mode_and_delivery_variant_round_trips() {
    for rule in DeliveryRule::all() {
        for rule in [rule, delivery_sample(rule)] {
            assert_eq!(DeliveryRule::parse_label(&rule.label()), Ok(rule));
            let mode = ExecutionMode::asynchronous_with(rule);
            assert_eq!(ExecutionMode::parse_label(&mode.label()), Ok(mode));
        }
    }
    for mode in [
        ExecutionMode::sync(),
        ExecutionMode::event(),
        ExecutionMode::asynchronous(),
    ] {
        for mode in [mode, mode_sample(mode)] {
            assert_eq!(ExecutionMode::parse_label(&mode.label()), Ok(mode));
        }
    }
}

/// The characters the label grammar is built from, plus space.
const LABEL_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789()=,.-+ ";

/// Random strings over [`LABEL_ALPHABET`] with a length in `len`.
fn label_soup(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..LABEL_ALPHABET.len(), len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| char::from(LABEL_ALPHABET[i]))
            .collect()
    })
}

/// Well-formed labels from every grammar the soup is fed to; splicing
/// soup into them reaches the `Ok` paths that pure soup rarely hits.
fn valid_labels() -> Vec<String> {
    let mut labels: Vec<String> = EnvRegistry::builtin_ref()
        .iter()
        .map(|entry| entry.label())
        .chain(TopologyRegistry::builtin_ref().iter().map(|t| t.label()))
        .chain(Registry::builtin_ref().families())
        .collect();
    labels.extend(
        [
            "sync(cd=16)",
            "event(cd=4)",
            "async(i=0.6,l=2,d=0.1,dv=any-overlap(g=4))",
            "valid-at-send",
        ]
        .map(String::from),
    );
    labels
}

/// `valid[pick % len]` with `cut` characters at `at` replaced by `insert`.
fn splice(valid: &[String], (pick, at, cut, insert): (usize, usize, usize, String)) -> String {
    let base = &valid[pick % valid.len()];
    let at = at % (base.len() + 1);
    let end = (at + cut).min(base.len());
    format!("{}{insert}{}", &base[..at], &base[end..])
}

/// The label-grammar law over arbitrary input: no parser panics, and
/// every label a resolver accepts re-labels to a label that resolves to
/// the same label.
fn labels_resolve_stably(s: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(split_top_level(s).join(","), s);
    if let Ok((name, _)) = parse_label(s) {
        prop_assert!(!name.is_empty() && !name.contains('('), "name `{}`", name);
    }
    let envs = EnvRegistry::builtin_ref();
    if let Ok(cell) = envs.resolve(s) {
        let label = cell.label();
        prop_assert_eq!(envs.resolve(&label).map(|c| c.label()), Ok(label));
    }
    let topos = TopologyRegistry::builtin_ref();
    if let Ok(cell) = topos.resolve(s) {
        let label = cell.label();
        prop_assert_eq!(topos.resolve(&label).map(|c| c.label()), Ok(label));
    }
    let algorithms = Registry::builtin_ref();
    if let Ok(algorithm) = algorithms.resolve(s) {
        let label = algorithm.label().to_string();
        prop_assert_eq!(
            algorithms.resolve(&label).map(|a| a.label().to_string()),
            Ok(label)
        );
    }
    if let Ok(mode) = ExecutionMode::parse_label(s) {
        let label = mode.label();
        prop_assert_eq!(
            ExecutionMode::parse_label(&label).map(|m| m.label()),
            Ok(label)
        );
    }
    if let Ok(rule) = DeliveryRule::parse_label(s) {
        let label = rule.label();
        prop_assert_eq!(
            DeliveryRule::parse_label(&label).map(|r| r.label()),
            Ok(label)
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn label_soup_never_panics_and_resolves_stably(
        soup in proptest::collection::vec(label_soup(0..24), 1..32),
    ) {
        for s in &soup {
            labels_resolve_stably(s)?;
        }
    }

    #[test]
    fn spliced_labels_never_panic_and_resolve_stably(
        edits in proptest::collection::vec(
            (0usize..1024, 0usize..64, 0usize..4, label_soup(0..4)),
            1..32,
        ),
    ) {
        let valid = valid_labels();
        for edit in edits {
            labels_resolve_stably(&splice(&valid, edit))?;
        }
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
