//! Declarative conformance scenarios: JSON specs resolved into the
//! workspace's real configuration types.
//!
//! A scenario names everything a run depends on — dataset synthesis
//! parameters, the full [`FlowConfig`], and an optional
//! [`FaultPlan`] — so a committed `.json` file plus this crate's runner
//! *is* the experiment. Parsing goes through the zero-dependency
//! [`qce_telemetry::json`] reader (the vendored serde is a marker stub),
//! and [`Scenario::to_json`] emits the same schema back, so specs
//! round-trip exactly.

use qce::faults::{FaultKind, FaultPlan};
use qce::{
    Architecture, BandRule, EncodingChannel, FlowConfig, Grouping, LambdaSchedule, QuantConfig,
    QuantMethod, SignConvention,
};
use qce_data::Dataset;
use qce_data::{SynthCifar, SynthFaces};
use qce_defense::{DefenseKind, DefensePlan, RotationMode};
use qce_telemetry::json::{parse, JsonValue, ObjWriter};

use crate::{HarnessError, Result};

/// Which synthetic dataset family a scenario trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// CIFAR-like object images ([`SynthCifar`]).
    Cifar,
    /// Face-like identity images ([`SynthFaces`]); `classes` doubles as
    /// the identity count.
    Faces,
}

/// Dataset synthesis parameters of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Generator family.
    pub kind: DatasetKind,
    /// Square image edge length in pixels.
    pub size: usize,
    /// Class (or identity) count.
    pub classes: usize,
    /// Number of images to synthesize.
    pub count: usize,
    /// Generation seed.
    pub seed: u64,
    /// RGB images (`false` = grayscale; CIFAR generator only).
    pub rgb: bool,
}

impl DatasetSpec {
    /// Synthesizes the dataset this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors.
    pub fn generate(&self) -> Result<Dataset> {
        let data = match self.kind {
            DatasetKind::Cifar => SynthCifar::new(self.size)
                .classes(self.classes)
                .rgb(self.rgb)
                .generate(self.count, self.seed)?,
            DatasetKind::Faces => {
                SynthFaces::new(self.size, self.classes).generate(self.count, self.seed)?
            }
        };
        Ok(data)
    }
}

/// One executable conformance scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique scenario name; golden files are addressed by it.
    pub name: String,
    /// Dataset synthesis parameters.
    pub dataset: DatasetSpec,
    /// The resolved flow configuration.
    pub flow: FlowConfig,
    /// Release perturbation applied before the final evaluation
    /// (`None` for clean scenarios).
    pub fault: Option<FaultPlan>,
    /// Named data-holder countermeasures, each evaluated as its own
    /// stage against the same trained release (the tournament axis).
    /// Mutually exclusive with `fault`.
    pub defenses: Vec<(String, DefensePlan)>,
    /// Per-metric tolerance overrides layered over
    /// [`Tolerances::default`](crate::Tolerances) (absolute bands;
    /// longest matching prefix wins).
    pub tolerance_overrides: Vec<(String, f64)>,
}

impl Scenario {
    /// Parses a scenario from its JSON spec. Flow fields not present in
    /// the document keep the [`FlowConfig::tiny`] defaults.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Spec`] naming the first malformed field.
    pub fn from_json(body: &str) -> Result<Scenario> {
        let doc = parse(body).map_err(|e| HarnessError::spec(format!("scenario JSON: {e}")))?;
        let name = req_str(&doc, "name")?;
        let dataset = parse_dataset(req(&doc, "dataset")?)?;
        let flow = parse_flow(req(&doc, "flow")?)?;
        flow.validate()
            .map_err(|e| HarnessError::spec(format!("flow config: {e}")))?;
        let fault = match doc.get("fault") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(parse_fault(v)?),
        };
        let defenses = match doc.get("defenses") {
            None | Some(JsonValue::Null) => Vec::new(),
            Some(JsonValue::Arr(items)) => {
                let mut out = Vec::new();
                for item in items {
                    out.push(parse_defense_plan(item)?);
                }
                out
            }
            Some(_) => return Err(HarnessError::spec("\"defenses\" must be an array")),
        };
        let tolerance_overrides = match doc.get("tolerances") {
            None | Some(JsonValue::Null) => Vec::new(),
            Some(JsonValue::Obj(map)) => {
                let mut out = Vec::new();
                for (k, v) in map {
                    let band = v
                        .as_f64()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| {
                            HarnessError::spec(format!(
                                "tolerance {k:?} must be a non-negative number"
                            ))
                        })?;
                    out.push((k.clone(), band));
                }
                out
            }
            Some(_) => return Err(HarnessError::spec("\"tolerances\" must be an object")),
        };
        let scenario = Scenario {
            name,
            dataset,
            flow,
            fault,
            defenses,
            tolerance_overrides,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Checks that the scenario's perturbations can all run.
    ///
    /// `fault` and `defenses` are mutually exclusive: each selects the
    /// arms run against the trained release, and a scenario has one arm
    /// axis. A `flow.defense` plan runs only on the plain flow, so it may
    /// not be combined with either; the arms path would drop it and
    /// report undefended metrics under a defended name.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Spec`] naming the conflicting fields.
    pub fn validate(&self) -> Result<()> {
        if self.fault.is_some() && !self.defenses.is_empty() {
            return Err(HarnessError::spec(format!(
                "scenario {:?}: \"fault\" and \"defenses\" are mutually exclusive",
                self.name
            )));
        }
        if self.flow.defense.is_some() && (self.fault.is_some() || !self.defenses.is_empty()) {
            let other = if self.fault.is_some() {
                "fault"
            } else {
                "defenses"
            };
            return Err(HarnessError::spec(format!(
                "scenario {:?}: \"flow.defense\" cannot be combined with \"{other}\"; \
                 the defense would not run on those arms",
                self.name
            )));
        }
        Ok(())
    }

    /// Renders the scenario back to its JSON spec (the inverse of
    /// [`Scenario::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut dataset = ObjWriter::new();
        dataset
            .str(
                "kind",
                match self.dataset.kind {
                    DatasetKind::Cifar => "cifar",
                    DatasetKind::Faces => "faces",
                },
            )
            .uint("size", self.dataset.size as u64)
            .uint("classes", self.dataset.classes as u64)
            .uint("count", self.dataset.count as u64)
            .uint("seed", self.dataset.seed)
            .bool("rgb", self.dataset.rgb);

        let mut flow = ObjWriter::new();
        flow.uint("seed", self.flow.seed).str(
            "arch",
            match self.flow.arch {
                Architecture::ResNetLite => "resnet_lite",
                Architecture::ConvNet => "conv_net",
            },
        );
        let channels: Vec<String> = self
            .flow
            .stage_channels
            .iter()
            .map(|c| c.to_string())
            .collect();
        flow.raw("stage_channels", &format!("[{}]", channels.join(",")))
            .uint("blocks_per_stage", self.flow.blocks_per_stage as u64)
            .num("train_fraction", f64::from(self.flow.train_fraction))
            .uint("epochs", self.flow.epochs as u64)
            .uint("batch_size", self.flow.batch_size as u64)
            .num("lr", f64::from(self.flow.lr))
            .num("lambda_scale", f64::from(self.flow.lambda_scale))
            .str(
                "lambda_schedule",
                match self.flow.lambda_schedule {
                    LambdaSchedule::Warmup => "warmup",
                    LambdaSchedule::Constant => "constant",
                },
            );
        let mut grouping = ObjWriter::new();
        match self.flow.grouping {
            Grouping::Benign => {
                grouping.str("kind", "benign");
            }
            Grouping::Uniform(l) => {
                grouping.str("kind", "uniform").num("lambda", f64::from(l));
            }
            Grouping::LayerWise(ls) => {
                let lambdas: Vec<String> =
                    ls.iter().map(|l| format!("{}", f64::from(*l))).collect();
                grouping
                    .str("kind", "layer_wise")
                    .raw("lambdas", &format!("[{}]", lambdas.join(",")));
            }
        }
        flow.raw("grouping", &grouping.finish());
        let mut band = ObjWriter::new();
        match self.flow.band {
            BandRule::Auto { width } => {
                band.str("kind", "auto").num("width", f64::from(width));
            }
            BandRule::Explicit { min, max } => {
                band.str("kind", "explicit")
                    .num("min", f64::from(min))
                    .num("max", f64::from(max));
            }
            BandRule::FirstN => {
                band.str("kind", "first_n");
            }
        }
        flow.raw("band", &band.finish());
        flow.str(
            "sign",
            match self.flow.sign {
                SignConvention::Positive => "positive",
                SignConvention::Absolute => "absolute",
            },
        );
        let mut channel = ObjWriter::new();
        match self.flow.channel {
            EncodingChannel::Correlation => {
                channel.str("kind", "correlation");
            }
            EncodingChannel::StatSign { lambda } => {
                channel
                    .str("kind", "statsign")
                    .num("lambda", f64::from(lambda));
            }
        }
        flow.raw("channel", &channel.finish());
        if let Some(plan) = &self.flow.defense {
            let mut defense = ObjWriter::new();
            defense.uint("seed", plan.seed());
            let kinds: Vec<String> = plan.defenses().iter().map(defense_kind_to_json).collect();
            defense.raw("defenses", &format!("[{}]", kinds.join(",")));
            flow.raw("defense", &defense.finish());
        }
        match self.flow.quant {
            None => {
                flow.raw("quant", "null");
            }
            Some(q) => {
                let mut quant = ObjWriter::new();
                quant
                    .str(
                        "method",
                        match q.method {
                            QuantMethod::Linear => "linear",
                            QuantMethod::KMeans => "kmeans",
                            QuantMethod::WeightedEntropy => "weighted_entropy",
                            QuantMethod::TargetCorrelated => "target_correlated",
                        },
                    )
                    .uint("bits", u64::from(q.bits))
                    .uint("finetune_epochs", q.finetune_epochs as u64)
                    .num("finetune_lr", f64::from(q.finetune_lr))
                    .bool("regularize_finetune", q.regularize_finetune);
                flow.raw("quant", &quant.finish());
            }
        }

        let mut root = ObjWriter::new();
        root.str("name", &self.name)
            .raw("dataset", &dataset.finish())
            .raw("flow", &flow.finish());
        if let Some(plan) = &self.fault {
            let mut fault = ObjWriter::new();
            fault.uint("seed", plan.seed());
            let faults: Vec<String> = plan.faults().iter().map(fault_to_json).collect();
            fault.raw("faults", &format!("[{}]", faults.join(",")));
            root.raw("fault", &fault.finish());
        }
        if !self.defenses.is_empty() {
            let entries: Vec<String> = self
                .defenses
                .iter()
                .map(|(name, plan)| defense_plan_to_json(name, plan))
                .collect();
            root.raw("defenses", &format!("[{}]", entries.join(",")));
        }
        if !self.tolerance_overrides.is_empty() {
            let mut tol = ObjWriter::new();
            for (k, v) in &self.tolerance_overrides {
                tol.num(k, *v);
            }
            root.raw("tolerances", &tol.finish());
        }
        root.finish()
    }
}

fn fault_to_json(f: &FaultKind) -> String {
    let mut o = ObjWriter::new();
    match *f {
        FaultKind::BitFlip { rate } => {
            o.str("kind", "bit_flip").num("rate", rate);
        }
        FaultKind::GaussianNoise { fraction } => {
            o.str("kind", "gaussian_noise")
                .num("fraction", f64::from(fraction));
        }
        FaultKind::UniformNoise { fraction } => {
            o.str("kind", "uniform_noise")
                .num("fraction", f64::from(fraction));
        }
        FaultKind::Prune { fraction } => {
            o.str("kind", "prune").num("fraction", f64::from(fraction));
        }
        FaultKind::CentroidJitter { fraction } => {
            o.str("kind", "centroid_jitter")
                .num("fraction", f64::from(fraction));
        }
        FaultKind::FinetuneDrift { strength } => {
            o.str("kind", "finetune_drift")
                .num("strength", f64::from(strength));
        }
    }
    o.finish()
}

fn defense_plan_to_json(name: &str, plan: &DefensePlan) -> String {
    let mut o = ObjWriter::new();
    o.str("name", name).uint("seed", plan.seed());
    let kinds: Vec<String> = plan.defenses().iter().map(defense_kind_to_json).collect();
    o.raw("defenses", &format!("[{}]", kinds.join(",")));
    o.finish()
}

fn defense_kind_to_json(kind: &DefenseKind) -> String {
    let mut o = ObjWriter::new();
    match *kind {
        DefenseKind::Rotation {
            mode: RotationMode::Permute,
        } => {
            o.str("kind", "rotation").str("mode", "permute");
        }
        DefenseKind::Rotation {
            mode: RotationMode::QrBlend { strength },
        } => {
            o.str("kind", "rotation")
                .str("mode", "qr_blend")
                .num("strength", f64::from(strength));
        }
        DefenseKind::FinetuneScrub { epochs, lr } => {
            o.str("kind", "finetune_scrub")
                .uint("epochs", epochs as u64)
                .num("lr", f64::from(lr));
        }
        DefenseKind::PruneScrub { fraction } => {
            o.str("kind", "prune_scrub")
                .num("fraction", f64::from(fraction));
        }
        DefenseKind::Requantize { bits } => {
            o.str("kind", "requantize").uint("bits", u64::from(bits));
        }
        DefenseKind::NoiseWeights { fraction } => {
            o.str("kind", "noise_weights")
                .num("fraction", f64::from(fraction));
        }
    }
    o.finish()
}

fn parse_defense_plan(doc: &JsonValue) -> Result<(String, DefensePlan)> {
    let name = req_str(doc, "name")?;
    let seed = req(doc, "seed")?
        .as_u64()
        .ok_or_else(|| HarnessError::spec("defense \"seed\" must be a non-negative integer"))?;
    let Some(JsonValue::Arr(items)) = doc.get("defenses") else {
        return Err(HarnessError::spec(format!(
            "defense plan {name:?} needs a \"defenses\" array (may be empty)"
        )));
    };
    let mut plan = DefensePlan::new(seed);
    for item in items {
        plan = plan.with(parse_defense_kind(item)?);
    }
    plan.validate()
        .map_err(|e| HarnessError::spec(format!("defense plan {name:?}: {e}")))?;
    Ok((name, plan))
}

fn parse_defense_kind(doc: &JsonValue) -> Result<DefenseKind> {
    let kind = match req_str(doc, "kind")?.as_str() {
        "rotation" => {
            let mode = match req_str(doc, "mode")?.as_str() {
                "permute" => RotationMode::Permute,
                "qr_blend" => RotationMode::QrBlend {
                    strength: req_f32(doc, "strength")?,
                },
                other => {
                    return Err(HarnessError::spec(format!(
                        "unknown rotation mode {other:?} (permute | qr_blend)"
                    )))
                }
            };
            DefenseKind::Rotation { mode }
        }
        "finetune_scrub" => DefenseKind::FinetuneScrub {
            epochs: req_usize(doc, "epochs")?,
            lr: req_f32(doc, "lr")?,
        },
        "prune_scrub" => DefenseKind::PruneScrub {
            fraction: req_f32(doc, "fraction")?,
        },
        "requantize" => DefenseKind::Requantize {
            bits: u32::try_from(req_usize(doc, "bits")?)
                .map_err(|_| HarnessError::spec("requantize \"bits\" out of range"))?,
        },
        "noise_weights" => DefenseKind::NoiseWeights {
            fraction: req_f32(doc, "fraction")?,
        },
        other => {
            return Err(HarnessError::spec(format!(
                "unknown defense kind {other:?}"
            )))
        }
    };
    Ok(kind)
}

fn req<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue> {
    doc.get(key)
        .ok_or_else(|| HarnessError::spec(format!("missing field {key:?}")))
}

fn req_str(doc: &JsonValue, key: &str) -> Result<String> {
    req(doc, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| HarnessError::spec(format!("field {key:?} must be a string")))
}

fn req_usize(doc: &JsonValue, key: &str) -> Result<usize> {
    req(doc, key)?
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| HarnessError::spec(format!("field {key:?} must be a non-negative integer")))
}

fn req_f32(doc: &JsonValue, key: &str) -> Result<f32> {
    req(doc, key)?
        .as_f64()
        .map(|v| v as f32)
        .ok_or_else(|| HarnessError::spec(format!("field {key:?} must be a number")))
}

fn parse_dataset(doc: &JsonValue) -> Result<DatasetSpec> {
    let kind = match req_str(doc, "kind")?.as_str() {
        "cifar" => DatasetKind::Cifar,
        "faces" => DatasetKind::Faces,
        other => {
            return Err(HarnessError::spec(format!(
                "unknown dataset kind {other:?} (cifar | faces)"
            )))
        }
    };
    Ok(DatasetSpec {
        kind,
        size: req_usize(doc, "size")?,
        classes: req_usize(doc, "classes")?,
        count: req_usize(doc, "count")?,
        seed: req(doc, "seed")?
            .as_u64()
            .ok_or_else(|| HarnessError::spec("dataset \"seed\" must be a non-negative integer"))?,
        rgb: matches!(doc.get("rgb"), Some(JsonValue::Bool(true))),
    })
}

fn parse_flow(doc: &JsonValue) -> Result<FlowConfig> {
    let mut cfg = FlowConfig::tiny();
    if doc.get("seed").is_some() {
        cfg.seed = req(doc, "seed")?
            .as_u64()
            .ok_or_else(|| HarnessError::spec("flow \"seed\" must be a non-negative integer"))?;
    }
    if let Some(v) = doc.get("arch") {
        cfg.arch = match v.as_str() {
            Some("resnet_lite") => Architecture::ResNetLite,
            Some("conv_net") => Architecture::ConvNet,
            _ => {
                return Err(HarnessError::spec(
                    "flow \"arch\" must be \"resnet_lite\" or \"conv_net\"",
                ))
            }
        };
    }
    if let Some(v) = doc.get("stage_channels") {
        let JsonValue::Arr(items) = v else {
            return Err(HarnessError::spec("\"stage_channels\" must be an array"));
        };
        cfg.stage_channels = items
            .iter()
            .map(|c| c.as_u64().map(|c| c as usize))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| HarnessError::spec("\"stage_channels\" entries must be integers"))?;
    }
    if doc.get("blocks_per_stage").is_some() {
        cfg.blocks_per_stage = req_usize(doc, "blocks_per_stage")?;
    }
    if doc.get("train_fraction").is_some() {
        cfg.train_fraction = req_f32(doc, "train_fraction")?;
    }
    if doc.get("epochs").is_some() {
        cfg.epochs = req_usize(doc, "epochs")?;
    }
    if doc.get("batch_size").is_some() {
        cfg.batch_size = req_usize(doc, "batch_size")?;
    }
    if doc.get("lr").is_some() {
        cfg.lr = req_f32(doc, "lr")?;
    }
    if doc.get("lambda_scale").is_some() {
        cfg.lambda_scale = req_f32(doc, "lambda_scale")?;
    }
    if let Some(v) = doc.get("lambda_schedule") {
        cfg.lambda_schedule = match v.as_str() {
            Some("warmup") => LambdaSchedule::Warmup,
            Some("constant") => LambdaSchedule::Constant,
            _ => {
                return Err(HarnessError::spec(
                    "flow \"lambda_schedule\" must be \"warmup\" or \"constant\"",
                ))
            }
        };
    }
    if let Some(v) = doc.get("grouping") {
        cfg.grouping = match req_str(v, "kind")?.as_str() {
            "benign" => Grouping::Benign,
            "uniform" => Grouping::Uniform(req_f32(v, "lambda")?),
            "layer_wise" => {
                let Some(JsonValue::Arr(items)) = v.get("lambdas") else {
                    return Err(HarnessError::spec("layer_wise grouping needs \"lambdas\""));
                };
                let ls: Vec<f32> = items
                    .iter()
                    .map(|l| l.as_f64().map(|l| l as f32))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| HarnessError::spec("\"lambdas\" entries must be numbers"))?;
                let [a, b, c] = ls[..] else {
                    return Err(HarnessError::spec(
                        "\"lambdas\" must have exactly 3 entries",
                    ));
                };
                Grouping::LayerWise([a, b, c])
            }
            other => {
                return Err(HarnessError::spec(format!(
                    "unknown grouping kind {other:?}"
                )))
            }
        };
    }
    if let Some(v) = doc.get("band") {
        cfg.band = match req_str(v, "kind")?.as_str() {
            "auto" => BandRule::Auto {
                width: req_f32(v, "width")?,
            },
            "explicit" => BandRule::Explicit {
                min: req_f32(v, "min")?,
                max: req_f32(v, "max")?,
            },
            "first_n" => BandRule::FirstN,
            other => return Err(HarnessError::spec(format!("unknown band kind {other:?}"))),
        };
    }
    if let Some(v) = doc.get("sign") {
        cfg.sign = match v.as_str() {
            Some("positive") => SignConvention::Positive,
            Some("absolute") => SignConvention::Absolute,
            _ => {
                return Err(HarnessError::spec(
                    "flow \"sign\" must be \"positive\" or \"absolute\"",
                ))
            }
        };
    }
    if let Some(v) = doc.get("channel") {
        cfg.channel = match req_str(v, "kind")?.as_str() {
            "correlation" => EncodingChannel::Correlation,
            "statsign" => EncodingChannel::StatSign {
                lambda: req_f32(v, "lambda")?,
            },
            other => {
                return Err(HarnessError::spec(format!(
                    "unknown channel kind {other:?} (correlation | statsign)"
                )))
            }
        };
    }
    match doc.get("defense") {
        None | Some(JsonValue::Null) => {}
        Some(v) => {
            let seed = req(v, "seed")?.as_u64().ok_or_else(|| {
                HarnessError::spec("flow defense \"seed\" must be a non-negative integer")
            })?;
            let Some(JsonValue::Arr(items)) = v.get("defenses") else {
                return Err(HarnessError::spec(
                    "flow \"defense\" needs a \"defenses\" array (may be empty)",
                ));
            };
            let mut plan = DefensePlan::new(seed);
            for item in items {
                plan = plan.with(parse_defense_kind(item)?);
            }
            cfg.defense = Some(plan);
        }
    }
    match doc.get("quant") {
        None => {}
        Some(JsonValue::Null) => cfg.quant = None,
        Some(v) => {
            let method = match req_str(v, "method")?.as_str() {
                "linear" => QuantMethod::Linear,
                "kmeans" => QuantMethod::KMeans,
                "weighted_entropy" => QuantMethod::WeightedEntropy,
                "target_correlated" => QuantMethod::TargetCorrelated,
                other => {
                    return Err(HarnessError::spec(format!(
                        "unknown quant method {other:?}"
                    )))
                }
            };
            let bits = u32::try_from(req_usize(v, "bits")?)
                .map_err(|_| HarnessError::spec("quant \"bits\" out of range"))?;
            let mut q = QuantConfig::new(method, bits);
            if v.get("finetune_epochs").is_some() {
                q.finetune_epochs = req_usize(v, "finetune_epochs")?;
            }
            if v.get("finetune_lr").is_some() {
                q.finetune_lr = req_f32(v, "finetune_lr")?;
            }
            if let Some(b) = v.get("regularize_finetune") {
                let JsonValue::Bool(b) = b else {
                    return Err(HarnessError::spec("\"regularize_finetune\" must be a bool"));
                };
                q.regularize_finetune = *b;
            }
            cfg.quant = Some(q);
        }
    }
    Ok(cfg)
}

fn parse_fault(doc: &JsonValue) -> Result<FaultPlan> {
    let seed = req(doc, "seed")?
        .as_u64()
        .ok_or_else(|| HarnessError::spec("fault \"seed\" must be a non-negative integer"))?;
    let Some(JsonValue::Arr(items)) = doc.get("faults") else {
        return Err(HarnessError::spec("fault plan needs a \"faults\" array"));
    };
    let mut plan = FaultPlan::new(seed);
    for item in items {
        let kind = match req_str(item, "kind")?.as_str() {
            "bit_flip" => FaultKind::BitFlip {
                rate: req(item, "rate")?
                    .as_f64()
                    .ok_or_else(|| HarnessError::spec("bit_flip \"rate\" must be a number"))?,
            },
            "gaussian_noise" => FaultKind::GaussianNoise {
                fraction: req_f32(item, "fraction")?,
            },
            "uniform_noise" => FaultKind::UniformNoise {
                fraction: req_f32(item, "fraction")?,
            },
            "prune" => FaultKind::Prune {
                fraction: req_f32(item, "fraction")?,
            },
            "centroid_jitter" => FaultKind::CentroidJitter {
                fraction: req_f32(item, "fraction")?,
            },
            "finetune_drift" => FaultKind::FinetuneDrift {
                strength: req_f32(item, "strength")?,
            },
            other => return Err(HarnessError::spec(format!("unknown fault kind {other:?}"))),
        };
        plan = plan.with(kind);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed scenario specs of one set: `""` for the conformance
    /// set, `"tournament"` for the defense tournament.
    fn committed(set: &str) -> Vec<Scenario> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../conformance")
            .join(set)
            .join("scenarios");
        crate::load_scenarios(&dir).unwrap()
    }

    #[test]
    fn builtin_scenarios_round_trip_through_json() {
        for scenario in committed("").into_iter().chain(committed("tournament")) {
            let json = scenario.to_json();
            let back = Scenario::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: {e}\n{json}", scenario.name));
            assert_eq!(back, scenario, "{json}");
        }
    }

    #[test]
    fn tournament_covers_both_variants_and_shares_the_roster() {
        let cells = committed("tournament");
        assert_eq!(cells.len(), 4);
        let statsign = |s: &Scenario| matches!(s.flow.channel, EncodingChannel::StatSign { .. });
        assert_eq!(cells.iter().filter(|s| statsign(s)).count(), 2);
        let roster: Vec<&str> = cells[0].defenses.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            roster,
            [
                "none",
                "rotation",
                "finetune-scrub",
                "prune-scrub",
                "requantize"
            ]
        );
        for cell in &cells {
            assert_eq!(cell.defenses, cells[0].defenses, "{}", cell.name);
            assert!(cell.fault.is_none());
            cell.flow.validate().unwrap();
            // The "none" entry is the undefended leaderboard baseline.
            assert!(cell.defenses[0].1.is_benign());
            assert!(!cell.defenses[1].1.is_benign());
        }
    }

    #[test]
    fn builtin_names_are_unique_and_filesystem_safe() {
        let mut scenarios = committed("");
        scenarios.extend(committed("tournament"));
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for name in names {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'));
        }
    }

    #[test]
    fn minimal_scenario_uses_tiny_defaults() {
        let s = Scenario::from_json(
            r#"{"name":"mini",
                "dataset":{"kind":"cifar","size":8,"classes":3,"count":64,"seed":1},
                "flow":{"epochs":1}}"#,
        )
        .unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.flow.epochs, 1);
        assert_eq!(s.flow.batch_size, FlowConfig::tiny().batch_size);
        assert!(s.fault.is_none());
        assert!(s.defenses.is_empty());
        assert_eq!(s.flow.channel, EncodingChannel::Correlation);
        assert!(!s.dataset.rgb);
    }

    #[test]
    fn channel_and_defenses_parse() {
        let s = Scenario::from_json(
            r#"{"name":"hardened",
                "dataset":{"kind":"cifar","size":8,"classes":4,"count":64,"seed":1},
                "flow":{"channel":{"kind":"statsign","lambda":30000},
                        "quant":{"method":"kmeans","bits":4}},
                "defenses":[
                    {"name":"none","seed":0,"defenses":[]},
                    {"name":"rotation","seed":11,
                     "defenses":[{"kind":"rotation","mode":"permute"}]},
                    {"name":"blend","seed":12,
                     "defenses":[{"kind":"rotation","mode":"qr_blend","strength":0.5}]},
                    {"name":"combo","seed":13,
                     "defenses":[{"kind":"prune_scrub","fraction":0.2},
                                 {"kind":"noise_weights","fraction":0.05},
                                 {"kind":"requantize","bits":6},
                                 {"kind":"finetune_scrub","epochs":1,"lr":0.01}]}]}"#,
        )
        .unwrap();
        assert_eq!(s.flow.channel, EncodingChannel::StatSign { lambda: 3e4 });
        assert_eq!(s.defenses.len(), 4);
        assert!(s.defenses[0].1.is_benign());
        assert_eq!(s.defenses[3].1.defenses().len(), 4);
        // And it round-trips.
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn bad_defense_specs_are_rejected_with_context() {
        let wrap = |defenses: &str| {
            format!(
                r#"{{"name":"x",
                     "dataset":{{"kind":"cifar","size":8,"classes":2,"count":8,"seed":0}},
                     "flow":{{}},"defenses":{defenses}}}"#
            )
        };
        for (defenses, needle) in [
            (r#"[{"name":"d","seed":1}]"#, "defenses"),
            (
                r#"[{"name":"d","seed":1,"defenses":[{"kind":"melt"}]}]"#,
                "defense kind",
            ),
            (
                r#"[{"name":"d","seed":1,"defenses":[{"kind":"rotation","mode":"spin"}]}]"#,
                "rotation mode",
            ),
            (
                r#"[{"name":"d","seed":1,"defenses":[{"kind":"prune_scrub","fraction":1.5}]}]"#,
                "fraction",
            ),
        ] {
            let err = Scenario::from_json(&wrap(defenses))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{defenses} -> {err}");
        }
        // fault + defenses is ambiguous; the spec must pick one axis.
        let both = r#"{"name":"x",
            "dataset":{"kind":"cifar","size":8,"classes":2,"count":8,"seed":0},
            "flow":{},
            "fault":{"seed":1,"faults":[{"kind":"prune","fraction":0.1}]},
            "defenses":[{"name":"none","seed":0,"defenses":[]}]}"#;
        let err = Scenario::from_json(both).unwrap_err().to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn flow_defense_parses_and_round_trips() {
        let s = Scenario::from_json(
            r#"{"name":"release-defended",
                "dataset":{"kind":"cifar","size":8,"classes":2,"count":16,"seed":0},
                "flow":{"defense":{"seed":11,
                        "defenses":[{"kind":"rotation","mode":"permute"}]}}}"#,
        )
        .unwrap();
        let plan = s.flow.defense.as_ref().unwrap();
        assert_eq!(plan.seed(), 11);
        assert_eq!(plan.defenses().len(), 1);
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        // An invalid plan is caught by flow validation.
        let err = Scenario::from_json(
            r#"{"name":"x",
                "dataset":{"kind":"cifar","size":8,"classes":2,"count":16,"seed":0},
                "flow":{"defense":{"seed":1,
                        "defenses":[{"kind":"prune_scrub","fraction":2.0}]}}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("defense plan"), "{err}");
    }

    #[test]
    fn flow_defense_with_arms_is_a_spec_error() {
        let with = |extra: &str| {
            format!(
                r#"{{"name":"x",
                    "dataset":{{"kind":"cifar","size":8,"classes":2,"count":16,"seed":0}},
                    "flow":{{"defense":{{"seed":11,
                            "defenses":[{{"kind":"rotation","mode":"permute"}}]}}}},
                    {extra}}}"#
            )
        };
        for (extra, field) in [
            (
                r#""fault":{"seed":1,"faults":[{"kind":"prune","fraction":0.1}]}"#,
                "fault",
            ),
            (
                r#""defenses":[{"name":"none","seed":0,"defenses":[]}]"#,
                "defenses",
            ),
        ] {
            let err = Scenario::from_json(&with(extra)).unwrap_err();
            assert!(matches!(err, HarnessError::Spec { .. }), "{err}");
            let err = err.to_string();
            assert!(err.contains("flow.defense"), "{err}");
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn lambda_schedule_parses_and_round_trips() {
        let wrap = |schedule: &str| {
            format!(
                r#"{{"name":"sched",
                     "dataset":{{"kind":"cifar","size":8,"classes":2,"count":8,"seed":0}},
                     "flow":{{"lambda_schedule":{schedule}}}}}"#
            )
        };
        let s = Scenario::from_json(&wrap("\"constant\"")).unwrap();
        assert_eq!(s.flow.lambda_schedule, LambdaSchedule::Constant);
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
        // Absent keeps the default.
        let s = Scenario::from_json(&wrap("\"warmup\"")).unwrap();
        assert_eq!(s.flow.lambda_schedule, LambdaSchedule::Warmup);
        let err = Scenario::from_json(&wrap("\"ramp\""))
            .unwrap_err()
            .to_string();
        assert!(err.contains("lambda_schedule"), "{err}");
    }

    #[test]
    fn faces_and_layer_wise_parse() {
        let s = Scenario::from_json(
            r#"{"name":"faces",
                "dataset":{"kind":"faces","size":8,"classes":4,"count":64,"seed":2},
                "flow":{"grouping":{"kind":"layer_wise","lambdas":[0,0,5]},
                        "band":{"kind":"explicit","min":10,"max":90},
                        "quant":null},
                "tolerances":{"accuracy":0.1}}"#,
        )
        .unwrap();
        assert_eq!(s.dataset.kind, DatasetKind::Faces);
        assert_eq!(s.flow.grouping, Grouping::LayerWise([0.0, 0.0, 5.0]));
        assert!(s.flow.quant.is_none());
        assert_eq!(s.tolerance_overrides, vec![("accuracy".to_string(), 0.1)]);
        s.dataset.generate().unwrap();
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for (body, needle) in [
            ("{", "scenario JSON"),
            (r#"{"dataset":{},"flow":{}}"#, "name"),
            (
                r#"{"name":"x","dataset":{"kind":"mnist","size":8,"classes":2,"count":8,"seed":0},"flow":{}}"#,
                "dataset kind",
            ),
            (
                r#"{"name":"x","dataset":{"kind":"cifar","size":8,"classes":2,"count":8,"seed":0},"flow":{"epochs":0}}"#,
                "flow config",
            ),
            (
                r#"{"name":"x","dataset":{"kind":"cifar","size":8,"classes":2,"count":8,"seed":0},"flow":{},"fault":{"seed":1,"faults":[{"kind":"melt"}]}}"#,
                "fault kind",
            ),
        ] {
            let err = Scenario::from_json(body).unwrap_err().to_string();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }
}
