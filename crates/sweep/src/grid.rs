//! Grid specs: declarative axis lists cross-expanded into sweep cells.
//!
//! A grid spec is a JSON document:
//!
//! ```json
//! {"name": "bits-x-lambda",
//!  "max_cells": 128,
//!  "base": {"dataset": {"kind": "cifar", "size": 8, "classes": 4,
//!                       "count": 96, "seed": 5},
//!           "flow": {"epochs": 1,
//!                    "quant": {"method": "kmeans", "bits": 4}}},
//!  "axes": [{"axis": "bits", "values": [2, 4, 6]},
//!           {"axis": "lambda", "values": [3, 5, 10]}]}
//! ```
//!
//! `base` is a [`Scenario`](qce_harness::Scenario) body without a name;
//! each axis names a knob from the registry ([`AXIS_NAMES`]) and lists
//! the values it sweeps. Expansion is the cross product in listed order
//! (the last axis varies fastest); cell `i` overlays its combination
//! onto `base`, parses the result through the harness scenario schema,
//! and takes the *canonical* scenario JSON as its identity — the cell
//! key is a hash of content, not position, so editing one axis value
//! leaves every other cell's key (and its cached work) untouched.

use std::collections::BTreeMap;

use qce_harness::Scenario;
use qce_telemetry::fnv1a;
use qce_telemetry::json::{parse, write_escaped, write_num, JsonValue};

use crate::{Result, SweepError};

/// Default expansion ceiling when the spec does not set `max_cells`.
pub const MAX_CELLS_DEFAULT: usize = 512;

/// Hard expansion ceiling; `max_cells` cannot raise it further.
pub const MAX_CELLS_CEILING: usize = 4096;

/// The axis registry: every name a grid spec may sweep.
pub const AXIS_NAMES: &[&str] = &[
    "bits",
    "quant_method",
    "quant",
    "lambda",
    "lambda_schedule",
    "channel",
    "defense",
    "fault",
    "dataset_count",
    "dataset_size",
    "seed",
    "epochs",
];

/// Version tag folded into every cell key; bump when cell semantics
/// change incompatibly so stale cached cell results are not reused.
const CELL_KEY_VERSION: &str = "qce-sweep-cell-v1";

/// One expanded sweep cell: a concrete scenario plus the axis labels
/// that produced it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Position in row-major expansion order (also the report order).
    pub index: usize,
    /// Stable cell name (`c0007`-style, from the index).
    pub name: String,
    /// `(axis, value label)` pairs in spec order.
    pub axes: Vec<(String, String)>,
    /// The fully-resolved scenario this cell runs.
    pub scenario: Scenario,
    /// Canonical scenario JSON ([`Scenario::to_json`]) — the cell's
    /// content identity.
    pub canonical: String,
    /// Content-addressed cell key: FNV-1a over the versioned canonical
    /// form. Drives shard assignment and the cell-result cache entry.
    pub key: u64,
}

/// A parsed, fully-expanded grid.
#[derive(Debug)]
pub struct Grid {
    /// Grid name (also names the merged report).
    pub name: String,
    /// Swept axis names in spec order.
    pub axes: Vec<String>,
    /// Every cell, in expansion order.
    pub cells: Vec<Cell>,
    /// Fingerprint of the whole expansion (name + every cell key);
    /// partials carry it so merges reject mixed-grid inputs.
    pub spec_digest: u64,
}

impl Grid {
    /// The cells assigned to shard `shard` of `shards`: those with
    /// `key % shards == shard`. With `shards == 1` this is every cell.
    #[must_use]
    pub fn shard_cells(&self, shard: u64, shards: u64) -> Vec<Cell> {
        self.cells
            .iter()
            .filter(|c| c.key % shards.max(1) == shard)
            .cloned()
            .collect()
    }
}

/// Parses and fully expands a grid spec.
///
/// # Errors
///
/// [`SweepError::Spec`] for: unknown/duplicate/empty axes, an expansion
/// larger than `max_cells` (or the hard ceiling), duplicate cells,
/// malformed base documents, and axis values a knob cannot accept.
pub fn parse_grid(body: &str) -> Result<Grid> {
    let doc = parse(body).map_err(|e| SweepError::spec(format!("grid JSON: {e}")))?;
    let name = doc
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| SweepError::spec("grid needs a string \"name\""))?
        .to_string();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(SweepError::spec(format!(
            "grid name {name:?} must be non-empty and filesystem-safe ([A-Za-z0-9_-])"
        )));
    }
    let max_cells = match doc.get("max_cells") {
        None => MAX_CELLS_DEFAULT,
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| SweepError::spec("\"max_cells\" must be a non-negative integer"))?
                as usize;
            if n == 0 || n > MAX_CELLS_CEILING {
                return Err(SweepError::spec(format!(
                    "\"max_cells\" {n} outside 1..={MAX_CELLS_CEILING}"
                )));
            }
            n
        }
    };

    let base = doc
        .get("base")
        .ok_or_else(|| SweepError::spec("grid needs a \"base\" object"))?;
    let JsonValue::Obj(base_map) = base else {
        return Err(SweepError::spec("\"base\" must be an object"));
    };
    for key in ["dataset", "flow"] {
        if !matches!(base_map.get(key), Some(JsonValue::Obj(_))) {
            return Err(SweepError::spec(format!("\"base\" needs a {key:?} object")));
        }
    }

    let Some(JsonValue::Arr(axis_docs)) = doc.get("axes") else {
        return Err(SweepError::spec("grid needs an \"axes\" array"));
    };
    let mut axes: Vec<(String, Vec<JsonValue>)> = Vec::with_capacity(axis_docs.len());
    for axis_doc in axis_docs {
        let axis = axis_doc
            .get("axis")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| SweepError::spec("each axis needs a string \"axis\" name"))?
            .to_string();
        if !AXIS_NAMES.contains(&axis.as_str()) {
            return Err(SweepError::spec(format!(
                "unknown axis {axis:?} (known: {})",
                AXIS_NAMES.join(", ")
            )));
        }
        if axes.iter().any(|(a, _)| *a == axis) {
            return Err(SweepError::spec(format!("duplicate axis {axis:?}")));
        }
        let Some(JsonValue::Arr(values)) = axis_doc.get("values") else {
            return Err(SweepError::spec(format!(
                "axis {axis:?} needs a \"values\" array"
            )));
        };
        if values.is_empty() {
            return Err(SweepError::spec(format!(
                "axis {axis:?} has an empty \"values\" list"
            )));
        }
        axes.push((axis, values.clone()));
    }

    let mut total: usize = 1;
    for (axis, values) in &axes {
        total = total.checked_mul(values.len()).ok_or_else(|| {
            SweepError::spec(format!("grid size overflows while expanding axis {axis:?}"))
        })?;
    }
    if total > max_cells {
        return Err(SweepError::spec(format!(
            "grid expands to {total} cells, over the limit of {max_cells} \
             (raise \"max_cells\", up to {MAX_CELLS_CEILING})"
        )));
    }

    // Row-major odometer over the axes: the last axis varies fastest.
    let mut cells = Vec::with_capacity(total);
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for index in 0..total {
        let mut remainder = index;
        let mut picks: Vec<(usize, &JsonValue)> = Vec::with_capacity(axes.len());
        for (pos, (_, values)) in axes.iter().enumerate().rev() {
            picks.push((pos, &values[remainder % values.len()]));
            remainder /= values.len();
        }
        picks.reverse();

        let name = format!("c{index:04}");
        let mut cell_doc = base_map.clone();
        // Canonicalize under a fixed placeholder name: the cell key must
        // be a function of *content* only, so the same combination keeps
        // its key (and its cached work) when the grid around it changes
        // and it lands at a different index.
        cell_doc.insert("name".to_string(), JsonValue::Str("cell".to_string()));
        let mut labels = Vec::with_capacity(axes.len());
        for (pos, value) in picks {
            let axis = axes[pos].0.as_str();
            apply_axis(&mut cell_doc, axis, value)?;
            labels.push((axis.to_string(), value_label(value)));
        }
        let rendered = render(&JsonValue::Obj(cell_doc));
        let mut scenario = Scenario::from_json(&rendered).map_err(|e| {
            SweepError::spec(format!("cell {name} ({}): {e}", label_summary(&labels)))
        })?;
        let canonical = scenario.to_json();
        let key = fnv1a(&format!("{CELL_KEY_VERSION}\u{0}{canonical}"));
        scenario.name = name.clone();
        if let Some(&other) = seen.get(&key) {
            return Err(SweepError::spec(format!(
                "duplicate cells: index {other} and {index} expand to the same scenario \
                 ({})",
                label_summary(&labels)
            )));
        }
        seen.insert(key, index);
        cells.push(Cell {
            index,
            name,
            axes: labels,
            scenario,
            canonical,
            key,
        });
    }

    let mut digest_input = format!("qce-sweep-grid-v1\u{0}{name}");
    for cell in &cells {
        digest_input.push('\u{0}');
        digest_input.push_str(&format!("{:016x}", cell.key));
    }
    Ok(Grid {
        name,
        axes: axes.into_iter().map(|(a, _)| a).collect(),
        cells,
        spec_digest: fnv1a(&digest_input),
    })
}

/// Overlays one axis value onto a cell document.
fn apply_axis(doc: &mut BTreeMap<String, JsonValue>, axis: &str, value: &JsonValue) -> Result<()> {
    let bad = |what: &str| SweepError::spec(format!("axis {axis:?}: {what}"));
    match axis {
        "bits" => {
            let bits = value
                .as_u64()
                .ok_or_else(|| bad("values must be integers"))?;
            let quant = obj_entry(doc, "flow")?
                .get_mut("quant")
                .ok_or_else(|| bad("base flow needs a \"quant\" object to sweep bits"))?;
            let JsonValue::Obj(quant) = quant else {
                return Err(bad("base flow \"quant\" must be an object to sweep bits"));
            };
            quant.insert("bits".to_string(), JsonValue::Num(bits as f64));
        }
        "quant_method" => {
            let method = value
                .as_str()
                .ok_or_else(|| bad("values must be method-name strings"))?;
            let quant = obj_entry(doc, "flow")?
                .get_mut("quant")
                .ok_or_else(|| bad("base flow needs a \"quant\" object to sweep the method"))?;
            let JsonValue::Obj(quant) = quant else {
                return Err(bad("base flow \"quant\" must be an object"));
            };
            quant.insert("method".to_string(), JsonValue::Str(method.to_string()));
        }
        "quant" => {
            // A whole quant config (or null for a float release point).
            obj_entry(doc, "flow")?.insert("quant".to_string(), value.clone());
        }
        "lambda" => {
            let lambda = value
                .as_f64()
                .ok_or_else(|| bad("values must be numbers"))?;
            let flow = obj_entry(doc, "flow")?;
            let grouping = flow.entry("grouping".to_string()).or_insert_with(|| {
                // The flow default is the paper's layer-wise [0, 0, λ].
                let mut g = BTreeMap::new();
                g.insert("kind".to_string(), JsonValue::Str("layer_wise".into()));
                g.insert(
                    "lambdas".to_string(),
                    JsonValue::Arr(vec![
                        JsonValue::Num(0.0),
                        JsonValue::Num(0.0),
                        JsonValue::Num(0.0),
                    ]),
                );
                JsonValue::Obj(g)
            });
            let JsonValue::Obj(grouping) = grouping else {
                return Err(bad("base flow \"grouping\" must be an object"));
            };
            match grouping.get("kind").and_then(JsonValue::as_str) {
                Some("uniform") => {
                    grouping.insert("lambda".to_string(), JsonValue::Num(lambda));
                }
                Some("layer_wise") => {
                    let Some(JsonValue::Arr(lambdas)) = grouping.get_mut("lambdas") else {
                        return Err(bad("layer_wise grouping needs \"lambdas\""));
                    };
                    let Some(last) = lambdas.last_mut() else {
                        return Err(bad("layer_wise \"lambdas\" is empty"));
                    };
                    *last = JsonValue::Num(lambda);
                }
                Some("benign") => {
                    return Err(bad("a benign base grouping has no λ to sweep"));
                }
                _ => return Err(bad("base grouping has an unknown \"kind\"")),
            }
        }
        "lambda_schedule" => {
            let schedule = value
                .as_str()
                .ok_or_else(|| bad("values must be \"warmup\" or \"constant\""))?;
            obj_entry(doc, "flow")?.insert(
                "lambda_schedule".to_string(),
                JsonValue::Str(schedule.to_string()),
            );
        }
        "channel" => {
            let resolved = match value {
                JsonValue::Str(kind) => {
                    let mut c = BTreeMap::new();
                    c.insert("kind".to_string(), JsonValue::Str(kind.clone()));
                    JsonValue::Obj(c)
                }
                JsonValue::Obj(_) => value.clone(),
                _ => return Err(bad("values must be channel names or objects")),
            };
            obj_entry(doc, "flow")?.insert("channel".to_string(), resolved);
        }
        "defense" => match value {
            JsonValue::Null | JsonValue::Str(_) if value_label(value) == "none" => {
                obj_entry(doc, "flow")?.remove("defense");
            }
            JsonValue::Obj(_) => {
                obj_entry(doc, "flow")?.insert("defense".to_string(), value.clone());
            }
            _ => {
                return Err(bad(
                    "values must be null, \"none\", or a defense plan object",
                ))
            }
        },
        "fault" => match value {
            JsonValue::Null | JsonValue::Str(_) if value_label(value) == "none" => {
                doc.remove("fault");
            }
            JsonValue::Obj(_) => {
                doc.insert("fault".to_string(), value.clone());
            }
            _ => return Err(bad("values must be null, \"none\", or a fault plan object")),
        },
        "dataset_count" | "dataset_size" => {
            let n = value
                .as_u64()
                .ok_or_else(|| bad("values must be integers"))?;
            let field = if axis == "dataset_count" {
                "count"
            } else {
                "size"
            };
            obj_entry(doc, "dataset")?.insert(field.to_string(), JsonValue::Num(n as f64));
        }
        "seed" => {
            let seed = value
                .as_u64()
                .ok_or_else(|| bad("values must be integers"))?;
            obj_entry(doc, "flow")?.insert("seed".to_string(), JsonValue::Num(seed as f64));
        }
        "epochs" => {
            let epochs = value
                .as_u64()
                .ok_or_else(|| bad("values must be integers"))?;
            obj_entry(doc, "flow")?.insert("epochs".to_string(), JsonValue::Num(epochs as f64));
        }
        other => {
            return Err(SweepError::spec(format!(
                "unknown axis {other:?} (known: {})",
                AXIS_NAMES.join(", ")
            )))
        }
    }
    Ok(())
}

/// Mutable access to a top-level object member that parse-time
/// validation already guaranteed exists.
fn obj_entry<'a>(
    doc: &'a mut BTreeMap<String, JsonValue>,
    key: &str,
) -> Result<&'a mut BTreeMap<String, JsonValue>> {
    match doc.get_mut(key) {
        Some(JsonValue::Obj(map)) => Ok(map),
        _ => Err(SweepError::spec(format!("\"{key}\" must be an object"))),
    }
}

/// A short human label for an axis value, used in reports: strings
/// verbatim, numbers compact, `null` as `none`, objects by their `name`
/// or `kind` (falling back to `seed`), arrays rendered.
fn value_label(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => "none".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => {
            let mut s = String::new();
            write_num(&mut s, *n);
            s
        }
        JsonValue::Str(s) => s.clone(),
        JsonValue::Obj(map) => {
            for key in ["name", "kind"] {
                if let Some(JsonValue::Str(s)) = map.get(key) {
                    return s.clone();
                }
            }
            if let Some(seed) = map.get("seed").and_then(JsonValue::as_u64) {
                return format!("seed{seed}");
            }
            render(value)
        }
        JsonValue::Arr(_) => render(value),
    }
}

fn label_summary(labels: &[(String, String)]) -> String {
    labels
        .iter()
        .map(|(a, v)| format!("{a}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a [`JsonValue`] back to compact JSON. Object keys come out in
/// `BTreeMap` order; the canonical cell form is [`Scenario::to_json`],
/// not this, so render order only needs to be *stable*, which it is.
pub(crate) fn render(value: &JsonValue) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => write_num(out, *n),
        JsonValue::Str(s) => write_escaped(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const TINY_BASE: &str = r#"
        "base": {"dataset": {"kind": "cifar", "size": 8, "classes": 2,
                             "count": 32, "seed": 5},
                 "flow": {"epochs": 1, "batch_size": 16,
                          "grouping": {"kind": "uniform", "lambda": 5},
                          "band": {"kind": "first_n"},
                          "quant": {"method": "kmeans", "bits": 4,
                                    "finetune_epochs": 0}}}"#;

    fn grid_json(axes: &str) -> String {
        format!(r#"{{"name": "t", {TINY_BASE}, "axes": {axes}}}"#)
    }

    #[test]
    fn expansion_is_row_major_with_last_axis_fastest() {
        let grid = parse_grid(&grid_json(
            r#"[{"axis": "bits", "values": [2, 4]},
                {"axis": "lambda", "values": [3, 5, 10]}]"#,
        ))
        .unwrap();
        assert_eq!(grid.cells.len(), 6);
        assert_eq!(grid.axes, ["bits", "lambda"]);
        let labels: Vec<String> = grid.cells.iter().map(|c| label_summary(&c.axes)).collect();
        assert_eq!(
            labels,
            [
                "bits=2 lambda=3",
                "bits=2 lambda=5",
                "bits=2 lambda=10",
                "bits=4 lambda=3",
                "bits=4 lambda=5",
                "bits=4 lambda=10"
            ]
        );
        assert_eq!(grid.cells[0].name, "c0000");
        assert_eq!(grid.cells[5].name, "c0005");
        assert_eq!(grid.cells[3].scenario.flow.quant.unwrap().bits, 4);
        assert_eq!(
            grid.cells[2].scenario.flow.grouping,
            qce::Grouping::Uniform(10.0)
        );
    }

    #[test]
    fn invalid_axis_name_is_rejected() {
        let err = parse_grid(&grid_json(r#"[{"axis": "temperature", "values": [1]}]"#))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown axis") && err.contains("temperature"),
            "{err}"
        );
    }

    #[test]
    fn empty_axis_is_rejected() {
        let err = parse_grid(&grid_json(r#"[{"axis": "bits", "values": []}]"#))
            .unwrap_err()
            .to_string();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn duplicate_axis_and_duplicate_cells_are_rejected() {
        let err = parse_grid(&grid_json(
            r#"[{"axis": "bits", "values": [2]}, {"axis": "bits", "values": [4]}]"#,
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("duplicate axis"), "{err}");

        let err = parse_grid(&grid_json(r#"[{"axis": "bits", "values": [2, 2]}]"#))
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate cells"), "{err}");
    }

    #[test]
    fn oversized_grids_are_rejected() {
        let values: Vec<String> = (1..=30).map(|v| v.to_string()).collect();
        let axes = format!(
            r#"[{{"axis": "seed", "values": [{}]}},
                {{"axis": "epochs", "values": [1, 2]}},
                {{"axis": "bits", "values": [2, 3, 4, 5, 6, 7, 8, 9, 10]}}]"#,
            values.join(",")
        );
        let err = parse_grid(&format!(
            r#"{{"name": "big", "max_cells": 256, {TINY_BASE}, "axes": {axes}}}"#
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("over the limit of 256"), "{err}");
        // The default ceiling applies when max_cells is absent…
        let err = parse_grid(&grid_json(&axes)).unwrap_err().to_string();
        assert!(err.contains("over the limit of 512"), "{err}");
        // …and max_cells cannot exceed the hard ceiling.
        let err = parse_grid(&format!(
            r#"{{"name": "big", "max_cells": 100000, {TINY_BASE}, "axes": {axes}}}"#
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("max_cells"), "{err}");
    }

    #[test]
    fn cell_keys_are_content_addressed_not_positional() {
        let a = parse_grid(&grid_json(r#"[{"axis": "bits", "values": [2, 4]}]"#)).unwrap();
        let b = parse_grid(&grid_json(r#"[{"axis": "bits", "values": [3, 2, 4]}]"#)).unwrap();
        // bits=2 sits at index 0 in grid a and index 1 in grid b, with
        // the same key either way.
        assert_eq!(a.cells[0].key, b.cells[1].key);
        assert_eq!(a.cells[1].key, b.cells[2].key);
        assert_ne!(a.spec_digest, b.spec_digest);
    }

    #[test]
    fn fault_defense_and_schedule_axes_resolve() {
        let grid = parse_grid(&grid_json(
            r#"[{"axis": "lambda_schedule", "values": ["warmup", "constant"]},
                {"axis": "fault", "values": [null, {"seed": 3, "faults":
                    [{"kind": "bit_flip", "rate": 0.001}]}]},
                {"axis": "defense", "values": ["none"]}]"#,
        ))
        .unwrap();
        assert_eq!(grid.cells.len(), 4);
        assert!(grid.cells[0].scenario.fault.is_none());
        assert!(grid.cells[1].scenario.fault.is_some());
        assert_eq!(
            grid.cells[2].scenario.flow.lambda_schedule,
            qce::LambdaSchedule::Constant
        );
        assert_eq!(grid.cells[1].axes[1].1, "seed3");
        // All four cells get distinct keys (the fault axis lives outside
        // FlowConfig but inside the scenario canonical form).
        let mut keys: Vec<u64> = grid.cells.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn a_defense_by_fault_grid_is_rejected_naming_the_cell() {
        let err = parse_grid(&grid_json(
            r#"[{"axis": "defense", "values": ["none", {"seed": 2, "defenses":
                    [{"kind": "rotation", "mode": "permute"}]}]},
                {"axis": "fault", "values": [null, {"seed": 3, "faults":
                    [{"kind": "bit_flip", "rate": 0.001}]}]}]"#,
        ))
        .unwrap_err();
        assert!(matches!(err, SweepError::Spec(_)), "{err}");
        let err = err.to_string();
        assert!(err.contains("cell c0003"), "{err}");
        assert!(err.contains("flow.defense"), "{err}");
    }

    #[test]
    fn shards_partition_the_grid() {
        let grid = parse_grid(&grid_json(
            r#"[{"axis": "bits", "values": [2, 3, 4, 5]},
                {"axis": "lambda", "values": [3, 5, 8]}]"#,
        ))
        .unwrap();
        for shards in 1..=5u64 {
            let mut union: Vec<usize> = (0..shards)
                .flat_map(|s| grid.shard_cells(s, shards))
                .map(|c| c.index)
                .collect();
            union.sort_unstable();
            let full: Vec<usize> = (0..grid.cells.len()).collect();
            assert_eq!(union, full, "shards={shards}");
        }
    }

    #[test]
    fn malformed_cells_name_their_axes() {
        // Sweeping bits without a base quant config is a spec error.
        let err = parse_grid(
            r#"{"name": "t",
                 "base": {"dataset": {"kind": "cifar", "size": 8, "classes": 2,
                                        "count": 32, "seed": 5},
                           "flow": {"quant": null}},
                 "axes": [{"axis": "bits", "values": [2]}]}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("quant"), "{err}");
    }
}
