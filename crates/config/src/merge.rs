//! Config layering — the paper's **Algorithm 1** (`layerConfigs`).
//!
//! Multiple configurations are layered over each other by recursively
//! traversing nested JSON structure while overriding values of the bottom
//! layer with the top layer. This is what lets the Provision Service, the
//! Auto Scaler, and oncall operators update the *same* job concurrently
//! without knowing about each other: each writes its own level, and the
//! merged view is deterministic.
//!
//! One clarification relative to the paper's pseudocode: Algorithm 1
//! recurses whenever the *top* value is a map and the key exists in the
//! bottom; if the bottom value at that key is a scalar the recursion would
//! be ill-typed. We recurse only when **both** sides are maps and override
//! otherwise, which is the standard JSON-merge behaviour the pseudocode
//! abbreviates.
//!
//! Properties (enforced by property tests):
//! * right precedence — any scalar present in the top layer wins;
//! * idempotence — `layer(c, c) == c`;
//! * identity — layering an empty map on top (or below) changes nothing;
//! * left-fold composition — `layer_all` equals repeated `layer_configs`
//!   in precedence order. (The merge is deliberately *not* associative:
//!   a scalar override wipes a subtree, so order of application matters —
//!   which is exactly why Turbine fixes the precedence order
//!   Base < Provisioner < Scaler < Oncall.)

use crate::value::ConfigValue;

/// Layer `top` over `bottom` (Algorithm 1). Returns the merged config;
/// neither input is modified.
pub fn layer_configs(bottom: &ConfigValue, top: &ConfigValue) -> ConfigValue {
    match (bottom, top) {
        // Both sides are maps: recurse into the keys they share, per
        // Algorithm 1 line 5; everything else the top layer has overrides
        // (line 8), inside `layer_configs` again.
        (ConfigValue::Map(bottom_map), ConfigValue::Map(top_map)) => {
            ConfigValue::Map(bottom_map.layered(top_map, layer_configs))
        }
        // A non-map top layer replaces the bottom wholesale.
        _ => top.clone(),
    }
}

/// Fold a precedence-ordered slice of layers (lowest first) into one merged
/// config. An empty slice yields an empty map.
pub fn layer_all(layers: &[&ConfigValue]) -> ConfigValue {
    let mut merged = ConfigValue::empty_map();
    for layer in layers {
        merged = layer_configs(&merged, layer);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse;

    fn v(s: &str) -> ConfigValue {
        parse(s).expect("test literal must parse")
    }

    #[test]
    fn top_scalar_overrides_bottom_scalar() {
        let merged = layer_configs(&v(r#"{"n": 10}"#), &v(r#"{"n": 15}"#));
        assert_eq!(merged, v(r#"{"n": 15}"#));
    }

    #[test]
    fn nested_maps_merge_recursively() {
        let bottom = v(r#"{"package": {"name": "tailer", "version": 1}, "tasks": 4}"#);
        let top = v(r#"{"package": {"version": 2}}"#);
        let merged = layer_configs(&bottom, &top);
        assert_eq!(
            merged,
            v(r#"{"package": {"name": "tailer", "version": 2}, "tasks": 4}"#)
        );
    }

    #[test]
    fn top_scalar_wipes_bottom_subtree() {
        let merged = layer_configs(&v(r#"{"k": {"x": 1}}"#), &v(r#"{"k": 2}"#));
        assert_eq!(merged, v(r#"{"k": 2}"#));
    }

    #[test]
    fn top_map_over_bottom_scalar_overrides_wholesale() {
        let merged = layer_configs(&v(r#"{"k": 2}"#), &v(r#"{"k": {"x": 1}}"#));
        assert_eq!(merged, v(r#"{"k": {"x": 1}}"#));
    }

    #[test]
    fn arrays_are_replaced_not_merged() {
        let merged = layer_configs(&v(r#"{"args": [1, 2, 3]}"#), &v(r#"{"args": [9]}"#));
        assert_eq!(merged, v(r#"{"args": [9]}"#));
    }

    #[test]
    fn keys_only_in_bottom_survive() {
        let merged = layer_configs(&v(r#"{"a": 1, "b": 2}"#), &v(r#"{"b": 3}"#));
        assert_eq!(merged, v(r#"{"a": 1, "b": 3}"#));
    }

    #[test]
    fn empty_top_is_identity() {
        let bottom = v(r#"{"a": {"b": [1, {"c": null}]}}"#);
        assert_eq!(layer_configs(&bottom, &ConfigValue::empty_map()), bottom);
    }

    #[test]
    fn layer_all_respects_precedence_order() {
        // Mirrors the paper's example: a job running 10 tasks; the Auto
        // Scaler asks for 15, Oncall asks for 30. Oncall wins because its
        // level has the highest precedence, regardless of wall-clock order.
        let base = v(r#"{"task_count": 10, "package": {"name": "tailer"}}"#);
        let scaler = v(r#"{"task_count": 15}"#);
        let oncall = v(r#"{"task_count": 30}"#);
        let merged = layer_all(&[&base, &scaler, &oncall]);
        assert_eq!(
            merged.get_path("task_count").and_then(|x| x.as_int()),
            Some(30)
        );
        assert_eq!(
            merged.get_path("package.name").and_then(|x| x.as_str()),
            Some("tailer")
        );
    }

    #[test]
    fn layer_all_of_nothing_is_empty_map() {
        assert_eq!(layer_all(&[]), ConfigValue::empty_map());
    }

    #[test]
    fn merge_is_not_associative_by_design() {
        // Documents why precedence order matters: scalar overrides wipe
        // subtrees, so ((a ⊕ b) ⊕ c) != (a ⊕ (b ⊕ c)) in general.
        let a = v(r#"{"k": {"x": 1}}"#);
        let b = v(r#"{"k": 2}"#);
        let c = v(r#"{"k": {"y": 3}}"#);
        let left = layer_configs(&layer_configs(&a, &b), &c);
        let right = layer_configs(&a, &layer_configs(&b, &c));
        assert_eq!(left, v(r#"{"k": {"y": 3}}"#));
        assert_eq!(right, v(r#"{"k": {"x": 1, "y": 3}}"#));
        assert_ne!(left, right);
    }
}
