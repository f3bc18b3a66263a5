//! Layer drives for the traced run: one training step of the flow's
//! model taken apart layer by layer, the model's convolutions at their
//! three stage shapes, and the codebook assignment kernel.
//!
//! The per-layer model is assembled by hand from the public layer
//! constructors, in the order and with the random stream
//! `ResNetLite::builder()` uses. [`check_equivalence`] proves on one
//! batch that its logits and input gradient are bit-identical to the
//! built model's, so the per-layer numbers belong to the real model.

use qce::SignConvention;
use qce_attack::{CorrelationRegularizer, EncodingLayout, GroupSpec};
use qce_data::Dataset;
use qce_nn::layers::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, ReLU, ResidualBlock};
use qce_nn::loss::softmax_cross_entropy;
use qce_nn::models::ResNetLite;
use qce_nn::{gather_batch, Layer, Mode, Network, Regularizer, Sgd};
use qce_quant::{KMeansQuantizer, Quantizer};
use qce_tensor::conv::{conv2d, conv2d_backward, ConvGeometry};
use qce_tensor::{init, Tensor};

use crate::stats::median;
#[cfg(test)]
use crate::stats::NN_LAYERS;
use crate::trace;
use crate::workloads::{self, flow_config, flow_dataset, Ctx, FLOW_IMAGES};

type Result<T> = std::result::Result<T, String>;

/// Timed repetitions of each drive; medians are reported.
const REPS: usize = 6;

/// The flow model's geometry: input channels and edge, classes, stage
/// widths, blocks per stage, initialization seed and batch size.
struct ModelShape {
    in_channels: usize,
    size: usize,
    classes: usize,
    stages: Vec<usize>,
    blocks: usize,
    seed: u64,
    batch: usize,
}

fn model_shape(data: &Dataset) -> ModelShape {
    let cfg = flow_config(0);
    let first = &data.images()[0];
    ModelShape {
        in_channels: first.channels(),
        size: first.height(),
        classes: data.classes(),
        stages: cfg.stage_channels.clone(),
        blocks: cfg.blocks_per_stage,
        seed: cfg.seed.wrapping_add(1),
        batch: cfg.batch_size,
    }
}

fn built(shape: &ModelShape) -> Result<Network> {
    ResNetLite::builder()
        .input(shape.in_channels, shape.size)
        .classes(shape.classes)
        .stage_channels(&shape.stages)
        .blocks_per_stage(shape.blocks)
        .build(shape.seed)
        .map_err(|e| format!("building ResNetLite: {e}"))
}

/// The same model as named layer groups, each a list of layers (the
/// no-op flatten rides with the global pool).
fn assembled(shape: &ModelShape) -> Vec<(String, Vec<Box<dyn Layer>>)> {
    let mut rng = init::seeded_rng(shape.seed);
    let c0 = shape.stages[0];
    let mut out: Vec<(String, Vec<Box<dyn Layer>>)> = vec![
        (
            "stem_conv".to_string(),
            vec![Box::new(Conv2d::new(
                shape.in_channels,
                c0,
                3,
                ConvGeometry::new(1, 1),
                &mut rng,
            ))],
        ),
        ("stem_bn".to_string(), vec![Box::new(BatchNorm2d::new(c0))]),
        ("stem_relu".to_string(), vec![Box::new(ReLU::new())]),
    ];
    let mut prev = c0;
    for (i, &ch) in shape.stages.iter().enumerate() {
        for b in 0..shape.blocks {
            let stride = if i > 0 && b == 0 { 2 } else { 1 };
            out.push((
                format!("s{i}b{b}"),
                vec![Box::new(ResidualBlock::new(prev, ch, stride, &mut rng))],
            ));
            prev = ch;
        }
    }
    out.push((
        "gap".to_string(),
        vec![Box::new(GlobalAvgPool::new()), Box::new(Flatten::new())],
    ));
    out.push((
        "fc".to_string(),
        vec![Box::new(Linear::new(prev, shape.classes, &mut rng))],
    ));
    out
}

fn first_batch(data: &Dataset, batch: usize) -> Result<(Tensor, Vec<usize>)> {
    let x = data.to_tensor();
    let idx: Vec<usize> = (0..batch.min(data.len())).collect();
    let bx = gather_batch(&x, &idx).map_err(|e| e.to_string())?;
    let by = idx.iter().map(|&i| data.label(i)).collect();
    Ok((bx, by))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One forward + backward of the hand-assembled layers on `(x, y)`,
/// returning the logits and the input gradient. Each layer group's
/// forward and backward gets its own span.
fn layered_step(
    groups: &mut [(String, Vec<Box<dyn Layer>>)],
    x: &Tensor,
    y: &[usize],
) -> Result<(Tensor, Tensor)> {
    for (_, layers) in groups.iter_mut() {
        for layer in layers.iter_mut() {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }
    let mut h = x.clone();
    for (name, layers) in groups.iter_mut() {
        let _s = trace::span(&format!("nn.layer.{name}.fwd"));
        for layer in layers.iter_mut() {
            h = layer.forward(&h, Mode::Train).map_err(|e| e.to_string())?;
        }
    }
    let logits = h;
    let loss = softmax_cross_entropy(&logits, y).map_err(|e| e.to_string())?;
    let mut g = loss.grad;
    for (name, layers) in groups.iter_mut().rev() {
        let _s = trace::span(&format!("nn.layer.{name}.bwd"));
        for layer in layers.iter_mut().rev() {
            g = layer.backward(&g).map_err(|e| e.to_string())?;
        }
    }
    Ok((logits, g))
}

/// Checks that the hand-assembled layers compute exactly what the built
/// model computes: logits and input gradient, bit for bit, on one batch.
pub fn check_equivalence(data: &Dataset) -> Result<()> {
    let shape = model_shape(data);
    let (x, y) = first_batch(data, shape.batch)?;
    let mut net = built(&shape)?;
    net.zero_grad();
    let logits = net.forward(&x, Mode::Train).map_err(|e| e.to_string())?;
    let loss = softmax_cross_entropy(&logits, &y).map_err(|e| e.to_string())?;
    let input_grad = net.backward(&loss.grad).map_err(|e| e.to_string())?;
    let mut groups = assembled(&shape);
    let (l2, g2) = layered_step(&mut groups, &x, &y)?;
    if bits(&logits) != bits(&l2) {
        return Err("hand-assembled layers: logits differ from ResNetLite".to_string());
    }
    if bits(&input_grad) != bits(&g2) {
        return Err("hand-assembled layers: input gradient differs from ResNetLite".to_string());
    }
    Ok(())
}

/// One training step of the built model in the trainer's order:
/// forward, loss, backward, the attack's correlation regularizer,
/// optimizer, each in its own span.
fn network_step(
    net: &mut Network,
    reg: &mut CorrelationRegularizer,
    opt: &mut Sgd,
    x: &Tensor,
    y: &[usize],
) -> Result<()> {
    let _step = trace::span("nn.step");
    net.zero_grad();
    let logits = {
        let _s = trace::span("nn.fwd");
        net.forward(x, Mode::Train).map_err(|e| e.to_string())?
    };
    let loss = {
        let _s = trace::span("nn.loss");
        softmax_cross_entropy(&logits, y).map_err(|e| e.to_string())?
    };
    {
        let _s = trace::span("nn.bwd");
        net.backward(&loss.grad).map_err(|e| e.to_string())?;
    }
    {
        let _s = trace::span("attack.reg");
        reg.apply(net).map_err(|e| e.to_string())?;
    }
    let _s = trace::span("nn.optim");
    opt.step(&mut net.params_mut());
    Ok(())
}

/// Runs every layer drive, with tracing on after one untraced warm-up
/// of the training step, and returns the figures that are not span
/// medians. Besides the nn and tensor drives, one small pass over every
/// other layer runs too, so each per-layer metric is measured in every
/// traced run; where the workload exercises a layer, its own spans
/// outnumber these.
pub fn drive(ctx: &Ctx) -> Result<Vec<(String, f64)>> {
    let data = flow_dataset(FLOW_IMAGES)?;
    check_equivalence(&data)?;
    let shape = model_shape(&data);
    let (x, y) = first_batch(&data, shape.batch)?;
    let mut groups = assembled(&shape);
    let mut net = built(&shape)?;
    let specs = GroupSpec::paper_thirds(net.weight_slots().len(), [0.0, 0.0, 5.0 * 40.0]);
    let layout = EncodingLayout::plan(&net, &specs, data.images()).map_err(|e| e.to_string())?;
    let mut reg = CorrelationRegularizer::new(layout, SignConvention::Positive);
    let mut opt = Sgd::with_momentum(0.05, 0.9, 5e-4);
    layered_step(&mut groups, &x, &y)?;
    network_step(&mut net, &mut reg, &mut opt, &x, &y)?;

    trace::enable();
    let measured = measured_drives(&shape, &x, &y, &mut groups, &mut net, &mut reg, &mut opt)
        .and_then(|mut extra| {
            extra.extend(module_drives(ctx)?);
            Ok(extra)
        });
    trace::disable();
    measured
}

/// One small pass over the layers below the workloads: a flow, the
/// release roster, a few serve jobs and a round of the sweep grid, plus the
/// stage-cache counter deltas they cause.
fn module_drives(ctx: &Ctx) -> Result<Vec<(String, f64)>> {
    const STORE: [&str; 3] = ["store.hit", "store.miss", "store.write"];
    let before = STORE.map(|name| qce_telemetry::counter(name).get());
    let mut extra = workloads::attack_flow::drive_once()?;
    extra.extend(workloads::release_arms::drive_once()?);
    extra.extend(workloads::serve_mix::drive_once(ctx)?);
    extra.extend(workloads::sweep_grid::drive_once(ctx)?);
    let mut delta = [0.0; 3];
    for (d, (name, b)) in delta.iter_mut().zip(STORE.iter().zip(before)) {
        *d = (qce_telemetry::counter(name).get() - b) as f64;
    }
    let [hit, miss, write] = delta;
    extra.extend([
        ("store.hit".to_string(), hit),
        ("store.miss".to_string(), miss),
        ("store.write".to_string(), write),
        ("store.hit_ratio".to_string(), hit / (hit + miss).max(1.0)),
    ]);
    Ok(extra)
}

fn measured_drives(
    shape: &ModelShape,
    x: &Tensor,
    y: &[usize],
    groups: &mut [(String, Vec<Box<dyn Layer>>)],
    net: &mut Network,
    reg: &mut CorrelationRegularizer,
    opt: &mut Sgd,
) -> Result<Vec<(String, f64)>> {
    for _ in 0..3 {
        let _s = trace::span("data.synth");
        std::hint::black_box(flow_dataset(FLOW_IMAGES)?);
    }
    for _ in 0..REPS {
        layered_step(groups, x, y)?;
        network_step(net, reg, opt, x, y)?;
    }

    // Convolutions at the model's stage shapes: batch × width × edge².
    let mut extra = Vec::new();
    for (stage, &ch) in shape.stages.iter().enumerate() {
        let edge = shape.size >> stage;
        let mut rng = init::seeded_rng(17 + stage as u64);
        let input = init::normal(&[shape.batch, ch, edge, edge], 1.0, &mut rng);
        let weight = init::normal(&[ch, ch, 3, 3], 0.1, &mut rng);
        let geom = ConvGeometry::new(1, 1);
        // 2·N·O·C·k²·H·W multiply-adds forward; backward computes the
        // input and the weight gradient, twice that.
        let flops = 2.0 * (shape.batch * ch * ch * 9 * edge * edge) as f64;
        let out = conv2d(&input, &weight, None, geom).map_err(|e| e.to_string())?;
        let mut fwd = Vec::new();
        let mut bwd = Vec::new();
        for _ in 0..REPS {
            let t = std::time::Instant::now();
            let _s = trace::span(&format!("tensor.conv_fwd.s{stage}"));
            std::hint::black_box(conv2d(&input, &weight, None, geom).map_err(|e| e.to_string())?);
            fwd.push(t.elapsed().as_secs_f64());
        }
        for _ in 0..REPS {
            let t = std::time::Instant::now();
            let _s = trace::span(&format!("tensor.conv_bwd.s{stage}"));
            std::hint::black_box(
                conv2d_backward(&input, &weight, &out, geom).map_err(|e| e.to_string())?,
            );
            bwd.push(t.elapsed().as_secs_f64());
        }
        let gflops = |secs: &[f64], f: f64| f / median(secs).unwrap_or(f64::NAN) / 1e9;
        extra.push((
            format!("tensor.conv_fwd.s{stage}_gflops"),
            gflops(&fwd, flops),
        ));
        extra.push((
            format!("tensor.conv_bwd.s{stage}_gflops"),
            gflops(&bwd, 2.0 * flops),
        ));
    }

    // Codebook assignment of the model's weights to a 16-level codebook.
    let flat = net.flat_weights();
    let codebook = KMeansQuantizer::new(16)
        .and_then(|q| q.fit(&flat))
        .map_err(|e| e.to_string())?;
    std::hint::black_box(codebook.assign(&flat));
    for _ in 0..REPS {
        let _s = trace::span("tensor.codebook_assign");
        std::hint::black_box(codebook.assign(&flat));
    }
    Ok(extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_assembled_layers_match_the_built_model() {
        let data = flow_dataset(FLOW_IMAGES).unwrap();
        check_equivalence(&data).unwrap();
        let names: Vec<String> = assembled(&model_shape(&data))
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, NN_LAYERS);
    }

    #[test]
    fn a_different_initialization_is_caught() {
        let data = flow_dataset(FLOW_IMAGES).unwrap();
        let mut shape = model_shape(&data);
        let (x, y) = first_batch(&data, shape.batch).unwrap();
        let mut net = built(&shape).unwrap();
        let logits = net.forward(&x, Mode::Train).unwrap();
        shape.seed += 1;
        let (other, _) = layered_step(&mut assembled(&shape), &x, &y).unwrap();
        assert_ne!(bits(&logits), bits(&other));
    }
}
