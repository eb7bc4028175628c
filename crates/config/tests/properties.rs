//! Property-based tests for the configuration model: parser/printer
//! round-trip, the algebraic laws of Algorithm 1 layering, and the flat
//! [`ConfigMap`] against the `BTreeMap` it replaced.

use proptest::prelude::*;
use std::collections::BTreeMap;
use turbine_config::{layer_configs, parse, to_text, ConfigMap, ConfigValue};

/// A map value from generated entries.
fn map_value(entries: BTreeMap<String, ConfigValue>) -> ConfigValue {
    ConfigValue::Map(entries.into_iter().collect())
}

/// Strategy generating arbitrary configuration values up to a bounded
/// depth/size, covering every variant.
fn arb_value() -> impl Strategy<Value = ConfigValue> {
    let leaf = prop_oneof![
        Just(ConfigValue::Null),
        any::<bool>().prop_map(ConfigValue::Bool),
        any::<i64>().prop_map(ConfigValue::Int),
        // Finite floats only: the printer rejects NaN/inf by design.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(ConfigValue::Float),
        "[a-zA-Z0-9 _./\\-\"\\\\\u{e9}\u{4f60}]{0,12}".prop_map(ConfigValue::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(ConfigValue::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(map_value),
        ]
    })
}

/// Maps-only strategy (layering operates on map roots in practice).
fn arb_map() -> impl Strategy<Value = ConfigValue> {
    prop::collection::btree_map("[a-z]{1,4}", arb_value(), 0..5).prop_map(map_value)
}

/// A map over three keys whose values are scalars or such maps again,
/// three deep: two of these share keys, and maps under shared keys, often
/// enough that layering them recurses.
fn arb_overlapping_map() -> impl Strategy<Value = ConfigValue> {
    let layer = |inner| prop::collection::btree_map("[a-c]{1}", inner, 1..4).prop_map(map_value);
    let leaf = prop_oneof![
        Just(ConfigValue::Null),
        any::<i64>().prop_map(ConfigValue::Int),
    ];
    layer(leaf.prop_recursive(2, 24, 4, layer))
}

/// Structural equality that treats `Float(x)` and `Int(x)` as distinct but
/// compares floats bit-exactly (so -0.0 vs 0.0 round-trips are visible).
fn eq_bits(a: &ConfigValue, b: &ConfigValue) -> bool {
    match (a, b) {
        (ConfigValue::Float(x), ConfigValue::Float(y)) => x.to_bits() == y.to_bits(),
        (ConfigValue::Array(x), ConfigValue::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| eq_bits(a, b))
        }
        (ConfigValue::Map(x), ConfigValue::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && eq_bits(va, vb))
        }
        _ => a == b,
    }
}

proptest! {
    /// print ∘ parse is the identity on the value model.
    #[test]
    fn text_roundtrip(v in arb_value()) {
        let text = to_text(&v);
        let reparsed = parse(&text).expect("printer output must parse");
        prop_assert!(eq_bits(&reparsed, &v), "{text}");
    }

    /// Printing is deterministic: equal values print identically.
    #[test]
    fn printing_is_deterministic(v in arb_value()) {
        prop_assert_eq!(to_text(&v), to_text(&v.clone()));
    }

    /// Layering a config over itself changes nothing.
    #[test]
    fn layering_is_idempotent(v in arb_map()) {
        prop_assert_eq!(layer_configs(&v, &v), v);
    }

    /// The empty map is a two-sided identity for map-rooted configs.
    #[test]
    fn empty_map_is_identity(v in arb_map()) {
        let empty = ConfigValue::empty_map();
        prop_assert_eq!(layer_configs(&v, &empty), v.clone());
        prop_assert_eq!(layer_configs(&empty, &v), v);
    }

    /// Right precedence: every key present in the top layer is present in
    /// the merged result, and scalar top values appear verbatim.
    #[test]
    fn top_layer_wins(bottom in arb_map(), top in arb_map()) {
        let merged = layer_configs(&bottom, &top);
        let merged_map = merged.as_map().expect("merging maps yields a map");
        let top_map = top.as_map().expect("strategy yields maps");
        for (k, tv) in top_map {
            let mv = merged_map.get(k).expect("top key must survive merge");
            if !tv.is_map() {
                prop_assert_eq!(mv, tv);
            }
        }
    }

    /// Keys only in the bottom layer survive unchanged.
    #[test]
    fn bottom_only_keys_survive(bottom in arb_map(), top in arb_map()) {
        let merged = layer_configs(&bottom, &top);
        let merged_map = merged.as_map().expect("map");
        let top_map = top.as_map().expect("map");
        for (k, bv) in bottom.as_map().expect("map") {
            if !top_map.contains_key(k) {
                prop_assert_eq!(merged_map.get(k).expect("bottom-only key"), bv);
            }
        }
    }

    /// Merging never invents keys: merged keyset == union of inputs.
    #[test]
    fn merge_keyset_is_union(bottom in arb_map(), top in arb_map()) {
        let merged = layer_configs(&bottom, &top);
        let mut expected: BTreeMap<&String, ()> = BTreeMap::new();
        for k in bottom.as_map().expect("map").keys() {
            expected.insert(k, ());
        }
        for k in top.as_map().expect("map").keys() {
            expected.insert(k, ());
        }
        let merged_keys: Vec<&String> = merged.as_map().expect("map").keys().collect();
        let expected_keys: Vec<&String> = expected.keys().copied().collect();
        prop_assert_eq!(merged_keys, expected_keys);
    }

    /// Any run of inserts, removes and look-ups leaves the flat map holding
    /// what a `BTreeMap` holds, in the same order, answering the same.
    #[test]
    fn flat_map_is_a_btree_map(
        ops in prop::collection::vec((0u8..4, "[a-e]{1,2}", arb_value()), 0..60),
    ) {
        let mut flat = ConfigMap::new();
        let mut model: BTreeMap<String, ConfigValue> = BTreeMap::new();
        for (op, key, value) in ops {
            match op {
                0 | 1 => prop_assert_eq!(
                    flat.insert(key.clone(), value.clone()),
                    model.insert(key, value)
                ),
                2 => prop_assert_eq!(flat.remove(&key), model.remove(&key)),
                _ => {
                    prop_assert_eq!(flat.get(&key), model.get(&key));
                    prop_assert_eq!(flat.contains_key(&key), model.contains_key(&key));
                    prop_assert_eq!(flat.get_mut(&key), model.get_mut(&key));
                }
            }
            prop_assert_eq!(flat.len(), model.len());
            prop_assert_eq!(flat.is_empty(), model.is_empty());
            prop_assert!(flat.iter().eq(model.iter()));
            prop_assert!(flat.keys().eq(model.keys()));
            prop_assert_eq!(format!("{flat:?}"), format!("{model:?}"));
        }
        // Collected from any order with repeats: sorted, last value wins.
        let shuffled: Vec<(String, ConfigValue)> = model
            .iter()
            .rev()
            .map(|(k, _)| (k.clone(), ConfigValue::Null))
            .chain(model.iter().rev().map(|(k, v)| (k.clone(), v.clone())))
            .collect();
        prop_assert_eq!(shuffled.into_iter().collect::<ConfigMap>(), flat);
    }

    /// Layering as one merge of two sorted runs is Algorithm 1 as it was
    /// written first: clone the bottom, then insert the top key by key.
    #[test]
    fn layering_equals_clone_then_insert(
        bottom in arb_overlapping_map(),
        top in arb_overlapping_map(),
    ) {
        fn clone_then_insert(bottom: &ConfigValue, top: &ConfigValue) -> ConfigValue {
            match (bottom, top) {
                (ConfigValue::Map(bottom_map), ConfigValue::Map(top_map)) => {
                    let mut layered: BTreeMap<String, ConfigValue> =
                        bottom_map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                    for (key, top_value) in top_map {
                        match (bottom_map.get(key), top_value) {
                            (Some(bottom_value @ ConfigValue::Map(_)), ConfigValue::Map(_)) => {
                                layered.insert(key.clone(), clone_then_insert(bottom_value, top_value));
                            }
                            _ => {
                                layered.insert(key.clone(), top_value.clone());
                            }
                        }
                    }
                    map_value(layered)
                }
                _ => top.clone(),
            }
        }
        let merged = layer_configs(&bottom, &top);
        prop_assert!(eq_bits(&merged, &clone_then_insert(&bottom, &top)));
    }
}
