//! The archived artifacts' JSON, pinned byte for byte.
//!
//! Two small seeded explanations — a regression one and a logit one
//! with one tensor pair — are rebuilt from scratch, and the FNV-1a
//! digest of each `to_json()` output is compared with the digest of
//! the bytes this format has always produced. The fixture runs every
//! seeded stage (synthetic data, bagged GBDT training, `D*` sampling),
//! so a change to the generator's stream fails here too.
//!
//! Wall-clock fields (stage timings) and the resolved thread count are
//! zeroed before hashing; everything else is a function of the seeds.
//!
//! Each artifact also has a *layout* digest: the same bytes with every
//! number token masked (and the explanation's GAM digest, a hash of the
//! coefficients, fixed). It pins field names, nesting, array lengths and
//! strings, so a change that only moves fitted numbers in their last bits
//! re-records the full digests above while the layout digests hold.

use gef_core::{
    DegradationAction, ExplanationReport, FitFloor, GefConfig, GefExplainer, GefExplanation,
    StageTimings,
};
use gef_forest::{Forest, GbdtParams, GbdtTrainer, Objective};
use gef_trace::hash::fnv1a;
use gef_trace::json::{self, ToJson};

fn explain(forest: &Forest, config: GefConfig) -> GefExplanation {
    let mut exp = GefExplainer::new(config).explain(forest).unwrap();
    exp.telemetry = StageTimings::default();
    exp.provenance.stage_timings = StageTimings::default();
    exp.provenance.threads = 1;
    exp
}

/// `[explanation, gam, forest, report]` digests.
fn digests(forest: &Forest, exp: &GefExplanation) -> [u64; 4] {
    let report = ExplanationReport::from_explanation(exp, None, 8);
    [
        fnv1a(&exp.to_json()),
        fnv1a(&exp.gam.to_json()),
        fnv1a(&gef_forest::io::to_json(forest)),
        fnv1a(&report.to_json()),
    ]
}

/// Replace every JSON number token (outside strings) with `#`.
fn mask_numbers(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let (mut in_string, mut escaped, mut in_number) = (false, false, false);
    for c in text.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        if in_number && matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-') {
            continue;
        }
        in_number = matches!(c, '0'..='9' | '-');
        if in_number {
            out.push('#');
            continue;
        }
        in_string = c == '"';
        out.push(c);
    }
    out
}

/// `[explanation, gam, forest, report]` layout digests: number tokens
/// masked, the GAM digest string fixed.
fn layout_digests(forest: &Forest, exp: &GefExplanation) -> [u64; 4] {
    let mut exp = exp.clone();
    exp.provenance.gam_digest = "0".repeat(16);
    let report = ExplanationReport::from_explanation(&exp, None, 8);
    [
        fnv1a(&mask_numbers(&exp.to_json())),
        fnv1a(&mask_numbers(&exp.gam.to_json())),
        fnv1a(&mask_numbers(&gef_forest::io::to_json(forest))),
        fnv1a(&mask_numbers(&report.to_json())),
    ]
}

/// Every artifact parses back and re-serializes to the same bytes.
fn round_trips(forest: &Forest, exp: &GefExplanation) {
    let text = exp.to_json();
    assert_eq!(GefExplanation::from_json(&text).unwrap().to_json(), text);
    let gam = exp.gam.to_json();
    assert_eq!(gef_gam::Gam::from_json(&gam).unwrap().to_json(), gam);
    let f = gef_forest::io::to_json(forest);
    assert_eq!(
        gef_forest::io::to_json(&gef_forest::io::from_json(&f).unwrap()),
        f
    );
    let report = ExplanationReport::from_explanation(exp, None, 8);
    assert_eq!(
        ExplanationReport::from_json(&report.to_json()).unwrap(),
        report
    );
}

#[test]
fn regression_explanation_bytes_are_pinned() {
    let d = gef_data::synthetic::make_d_second(800, &[(0, 1)], 5);
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 30,
        num_leaves: 8,
        bagging_fraction: 0.8,
        feature_fraction: 0.8,
        seed: 3,
        ..Default::default()
    })
    .fit(&d.xs, &d.ys)
    .unwrap();
    let exp = explain(
        &forest,
        GefConfig {
            num_univariate: 5,
            num_interactions: 0,
            n_samples: 2_000,
            seed: 11,
            ..Default::default()
        },
    );
    assert_eq!(exp.selected_features, [1, 2, 3, 0, 4]);
    assert_eq!(
        digests(&forest, &exp),
        [
            0x83dc16816a4ed177,
            0xdffbcc6b67765a08,
            0xe1fd09b9d6eddc29,
            0xeed2c1aef10a0364
        ]
    );
    assert_eq!(
        layout_digests(&forest, &exp),
        [
            0x89c80cdf00907447,
            0xcf975cd78dca16ee,
            0xb0595fce02821cd7,
            0xa452d7ddce69ed5a
        ]
    );
    round_trips(&forest, &exp);
}

#[test]
fn logit_explanation_with_a_pair_bytes_are_pinned() {
    let d = gef_data::census::census_sim_sized(800, 7);
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 30,
        num_leaves: 8,
        objective: Objective::BinaryLogistic,
        bagging_fraction: 0.8,
        seed: 4,
        ..Default::default()
    })
    .fit(&d.xs, &d.ys)
    .unwrap();
    let exp = explain(
        &forest,
        GefConfig {
            num_univariate: 4,
            num_interactions: 1,
            n_samples: 2_000,
            // Above 2^53: written as a decimal string.
            seed: u64::MAX - 5,
            ..Default::default()
        },
    );
    assert_eq!(exp.interactions, [(0, 3)]);
    assert_eq!(
        digests(&forest, &exp),
        [
            0x14f456b76206f23e,
            0x0cfbf7c4abf2971a,
            0x4fd3f9303479bc93,
            0x5b5b792f5084ef54
        ]
    );
    assert_eq!(
        layout_digests(&forest, &exp),
        [
            0x468ae511be5e28d1,
            0x19f77bc3ae5c68cb,
            0x542009e00cbbae8f,
            0xeff44fd27f04ac3d
        ]
    );
    round_trips(&forest, &exp);
    let back = GefExplanation::from_json(&exp.to_json()).unwrap();
    assert_eq!(back.provenance.seed, u64::MAX - 5);
}

#[test]
fn enum_shapes_are_externally_tagged() {
    let actions = [
        DegradationAction::UnivariateOnly,
        DegradationAction::DroppedTensor { features: (1, 4) },
        DegradationAction::WidenedLambdaGrid { lo: 1e-9, hi: 1e9 },
    ];
    for a in &actions {
        let text = a.to_value().to_json();
        assert_eq!(&json::decode::<DegradationAction>(&text).unwrap(), a);
    }
    assert_eq!(actions[0].to_value().to_json(), r#""UnivariateOnly""#);
    assert_eq!(
        actions[1].to_value().to_json(),
        r#"{"DroppedTensor":{"features":[1.0,4.0]}}"#
    );
    assert_eq!(
        FitFloor::UnivariateOnly.to_value().to_json(),
        r#""UnivariateOnly""#
    );
    assert!(json::decode::<FitFloor>(r#""Sideways""#).is_err());
    assert!(json::decode::<FitFloor>(r#"{"Full":{},"x":1}"#).is_err());
}

#[test]
fn archives_without_defaulted_fields_still_load() {
    let forest = GbdtTrainer::new(GbdtParams {
        num_trees: 10,
        num_leaves: 4,
        ..Default::default()
    })
    .fit(
        &(0..200).map(|i| vec![i as f64 / 200.0]).collect::<Vec<_>>(),
        &(0..200)
            .map(|i| (i as f64 / 40.0).sin())
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let exp = explain(
        &forest,
        GefConfig {
            num_univariate: 1,
            num_interactions: 0,
            n_samples: 500,
            ..Default::default()
        },
    );
    let mut doc = json::parse(&exp.to_json()).unwrap();
    if let json::JsonValue::Object(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "provenance" && k != "degradations" && k != "telemetry");
    }
    let old = GefExplanation::from_json(&doc.to_json()).unwrap();
    assert_eq!(old.provenance, gef_core::Provenance::default());
    assert!(old.degradations.is_empty());
    assert_eq!(old.telemetry, StageTimings::default());
}
