//! `paper_ladder`: the paper's optimisation ladder on both clocks.
//!
//! One pass synthesises a rewrite of the naive 28-byte AoS force kernel
//! (`analyze::synth`, block 192, the rediscovery target), then prices each of
//! the 6 `OptLevel`s with `analyze::cost::estimate` and models its frame
//! with `gravit_app::model::model_frame` at n = 24576 under CUDA 1.0. An op
//! is one such pass (the sweep); passes repeat for the requested seconds,
//! at least one. The levels differ in cost, so a per-level op would make
//! the latency median jump between levels from run to run. The traced pass replays `model_frame` through the public calls
//! so the timed engine and its inputs get their own spans.
//!
//! Correctness: every pass gives identical results; the static and measured
//! rankings agree under table_verify's 3% tie rule; synthesis finds the
//! SoAoaS-16 rewrite within the ladder's band; and every deterministic
//! device figure equals its value recorded in `recorded_device.txt`.

use crate::report::Outcome;
use crate::stats::{median, ms_since, peak_rss_mib, percentile};
use crate::trace::Tracer;
use crate::Args;
use bench::tables::rank_disagreements;
use gpu_kernels::force::{build_force_kernel, force_params, OptLevel};
use gpu_kernels::synthset::{force_unopt_target, within_ladder_band, SynthTarget};
use gpu_sim::analyze::{cost, AnalysisConfig};
use gpu_sim::exec::launch::extrapolate_linear;
use gpu_sim::exec::timed::{time_resident_lowered, TimedRun};
use gpu_sim::ir::lower::lower;
use gpu_sim::ir::regalloc::register_demand;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::occupancy::occupancy;
use gpu_sim::transfer::PcieModel;
use gpu_sim::{DeviceConfig, DriverModel, Kernel, TimingParams};
use gravit_app::model::{model_frame, FramePoint};
use particle_layouts::device::alloc_accel_out;
use particle_layouts::{DeviceImage, Particle};
use simcore::Vec3;
use std::time::{Duration, Instant};

const N: u32 = 24_576;
const DRIVER: DriverModel = DriverModel::Cuda10;
/// Blocks of the static-analysis launch (the model normalises per pair).
const VGRID: u32 = 2;
/// table_verify's tie rule: measured gaps within 3% are not rankings.
const TIE: f64 = 0.03;
/// Tile counts `model_frame` fits its steady state at.
const FIT_TILES: [u32; 2] = [4, 8];
/// Set-up samples taken before each pass.
const SETUPS: usize = 5;
/// Deterministic device figures, recorded from the current model.
const RECORDED: &str = include_str!("../recorded_device.txt");

/// Everything built before the first timed op.
struct Setup {
    target: SynthTarget,
    levels: Vec<(OptLevel, Kernel, AnalysisConfig)>,
}

fn setup() -> Setup {
    let levels = OptLevel::ALL
        .iter()
        .map(|&level| {
            let cfg = level.config();
            let kernel = build_force_kernel(cfg);
            let mut params: Vec<u32> = (0..cfg.layout.buffers().len() as u32)
                .map(|i| 0x1_0000 * (i + 1))
                .collect();
            params.push(0x20_0000); // out
            params.push(VGRID * cfg.block); // n
            params.push(0.05f32.to_bits()); // eps
            params.push(0); // smem0
            let acfg = AnalysisConfig::new(VGRID, cfg.block, params).with_driver(DRIVER);
            (level, kernel, acfg)
        })
        .collect();
    Setup {
        target: force_unopt_target(DRIVER),
        levels,
    }
}

/// [`setup`], with its wall time in ms pushed to `setup_ms`.
fn timed_setup(setup_ms: &mut Vec<f64>) -> Setup {
    let t = Instant::now();
    let s = setup();
    setup_ms.push(ms_since(t));
    s
}

/// The deterministic outcome of one pass.
#[derive(Debug, Clone, PartialEq)]
struct Sweep {
    winner: Option<(String, f64)>,
    candidates: usize,
    proved: usize,
    skipped: usize,
    /// Static cycles per pairwise interaction, per level.
    cycles_per_pair: Vec<f64>,
    frames: Vec<FramePoint>,
}

impl Sweep {
    fn ladder_speedup(&self) -> f64 {
        self.frames[0].kernel_s / self.frames[5].kernel_s
    }

    fn predicted_speedup(&self) -> f64 {
        self.cycles_per_pair[0] / self.cycles_per_pair[5]
    }

    fn model_error(&self) -> f64 {
        (self.predicted_speedup() - self.ladder_speedup()).abs() / self.ladder_speedup()
    }

    /// The deterministic figures checked against `recorded_device.txt`.
    fn device_figures(&self) -> Vec<(&'static str, f64)> {
        let w = &self.frames[5];
        vec![
            ("device_frame_ms", w.total_s() * 1e3),
            ("ladder_speedup", self.ladder_speedup()),
            ("model_error", self.model_error()),
            ("device.upload_ms", w.upload_s * 1e3),
            ("device.kernel_ms", w.kernel_s * 1e3),
            ("device.download_ms", w.download_s * 1e3),
            ("device.regs", w.regs as f64),
            (
                "device.occupancy",
                w.occupancy.active_warps as f64 / w.occupancy.max_warps as f64,
            ),
            ("analyze.predicted_cycles_per_pair", self.cycles_per_pair[5]),
        ]
    }
}

/// One timed pass.
struct Pass {
    wall_ms: f64,
    sweep: Sweep,
    /// Timed-engine counters of the winning level (traced pass only).
    device: Vec<(&'static str, f64)>,
}

fn pass(s: &Setup, t: &mut Tracer, out: &mut Outcome) -> Pass {
    let t0 = Instant::now();
    let (sweep, device) = t.span("ladder.pass", 0, |t| {
        let report = t.span("analyze.synth", 0, |_| s.target.synthesize());
        out.attempted += 1;
        let (winner, candidates, proved, skipped) = match &report {
            Ok(r) => (
                r.winner().map(|w| (w.label.clone(), w.predicted_speedup)),
                r.candidates.len(),
                r.suggestions.len(),
                r.skipped.len(),
            ),
            Err(e) => {
                out.fail(format!("synthesis failed: {e:?}"));
                (None, 0, 0, 0)
            }
        };
        let mut cycles_per_pair = Vec::new();
        let mut frames = Vec::new();
        let mut device = Vec::new();
        for (k, (level, kernel, acfg)) in s.levels.iter().enumerate() {
            let id = k as u64;
            out.attempted += 1;
            match t.span("analyze.cost", id, |_| cost::estimate(kernel, acfg)) {
                Ok(c) => {
                    let vn = (VGRID * level.config().block) as f64;
                    cycles_per_pair.push(c.total_cycles() / (vn * vn));
                }
                Err(e) => {
                    out.fail(format!("{}: cost estimate failed: {e:?}", level.label()));
                    cycles_per_pair.push(0.0);
                }
            }
            let frame = if t.enabled() {
                let (frame, counters) = t.span("model.frame", id, |t| replica_frame(t, id, *level));
                if *level == OptLevel::Full {
                    device = counters;
                }
                frame
            } else {
                model_frame(*level, N, DRIVER)
            };
            frames.push(frame);
        }
        let sweep = Sweep {
            winner,
            candidates,
            proved,
            skipped,
            cycles_per_pair,
            frames,
        };
        (sweep, device)
    });
    Pass {
        wall_ms: ms_since(t0),
        sweep,
        device,
    }
}

/// `model_frame` driven through its public calls, with spans. Returns the
/// frame and the timed engine's whole-grid counters.
fn replica_frame(
    t: &mut Tracer,
    id: u64,
    level: OptLevel,
) -> (FramePoint, Vec<(&'static str, f64)>) {
    let cfg = level.config();
    let dev = DeviceConfig::g8800gtx();
    let tp = TimingParams::for_driver(DRIVER);
    let pcie = PcieModel::pcie1_x16();
    let kernel = t.span("kernels.build", id, |_| build_force_kernel(cfg));
    let regs = register_demand(&kernel).regs_per_thread as u32;
    let occ = occupancy(&dev, cfg.block, regs, kernel.smem_bytes);
    let prog = t.span("ir.lower", id, |_| lower(&kernel));
    let padded = N.div_ceil(cfg.block) * cfg.block;
    let resident: Vec<u32> = (0..occ.active_blocks.min(FIT_TILES[0])).collect();
    let mut fits: Vec<(u64, TimedRun)> = Vec::new();
    for tiles in FIT_TILES {
        let small_n = tiles * cfg.block;
        let particles: Vec<Particle> = (0..small_n)
            .map(|i| Particle {
                pos: Vec3::new(i as f32 * 0.01, 1.0, 2.0),
                vel: Vec3::ZERO,
                mass: 1.0,
            })
            .collect();
        let (mut gmem, params) = t.span("layouts.upload", id, |t| {
            let mut gmem = GlobalMemory::new(64 << 20);
            let img = DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block)
                .expect("fit-sized upload fits in the model device");
            let out = alloc_accel_out(&mut gmem, img.padded_n).expect("output buffer fits");
            t.add("layouts.upload_bytes", img.bytes + img.padded_n as u64 * 16);
            let params = force_params(&img, out, 0.05);
            (gmem, params)
        });
        let run = t.span("exec.timed", id, |_| {
            time_resident_lowered(
                &prog,
                &resident,
                cfg.block,
                resident.len() as u32,
                &params,
                &mut gmem,
                &dev,
                DRIVER,
                &tp,
            )
        });
        let run = run.expect("the model launch is well-formed");
        t.add("exec.timed_warp_instructions", run.warp_instructions);
        fits.push((small_n as u64, run));
    }
    let extrapolate = |f: fn(&TimedRun) -> u64| {
        let pts: Vec<(u64, u64)> = fits.iter().map(|(x, r)| (*x, f(r))).collect();
        extrapolate_linear(&pts, padded as u64).expect("steady-state cost grows with tiles")
    };
    let blocks = (padded / cfg.block) as u64;
    let waves = blocks.div_ceil(dev.num_sms as u64 * resident.len() as u64);
    let cycles = extrapolate(|r| r.cycles) * waves;
    let sms = dev.num_sms as u64;
    let buffers: Vec<u64> = cfg
        .layout
        .buffers()
        .iter()
        .map(|b| b.stride() * padded as u64)
        .collect();
    let frame = FramePoint {
        level,
        n: N,
        upload_s: pcie.copies_time_s(&buffers),
        kernel_s: cycles as f64 / dev.clock_hz,
        download_s: pcie.copy_time_s(16 * padded as u64),
        regs,
        occupancy: occ,
    };
    let pairs = padded as f64 * padded as f64;
    let counters = vec![
        ("device.cycles", cycles as f64),
        ("device.cycles_per_pair", (cycles * sms) as f64 / pairs),
        (
            "device.transactions",
            (extrapolate(|r| r.transactions) * waves * sms) as f64,
        ),
        (
            "device.bus_bytes",
            (extrapolate(|r| r.bus_bytes) * waves * sms) as f64,
        ),
        (
            "device.warp_instructions",
            (extrapolate(|r| r.warp_instructions) * waves * sms) as f64,
        ),
    ];
    (frame, counters)
}

/// Compare `figures` with the recorded values: one gate, failed by any
/// figure that differs or has no recorded value.
fn check_recorded(out: &mut Outcome, figures: &[(&'static str, f64)]) {
    let mut misses = Vec::new();
    for (name, v) in figures {
        let recorded = RECORDED
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(k, _)| k == name)
            .and_then(|(_, x)| x.trim().parse::<f64>().ok());
        if recorded != Some(*v) {
            misses.push(format!("{name} is {v}, recorded {recorded:?}"));
        }
    }
    out.attempted += 1;
    out.check(misses.is_empty(), || {
        format!(
            "device figures differ from recorded_device.txt: {}",
            misses.join("; ")
        )
    });
}

/// Gate one pass's deterministic outcome.
fn check_sweep(out: &mut Outcome, sweep: &Sweep) {
    let pairs: Vec<(f64, f64)> = sweep
        .cycles_per_pair
        .iter()
        .zip(&sweep.frames)
        .map(|(&p, f)| (p, f.kernel_s))
        .collect();
    let bad = rank_disagreements(&pairs, TIE);
    out.check(bad.is_empty(), || {
        format!("static and measured rankings disagree on {bad:?}")
    });
    match &sweep.winner {
        Some((label, speedup)) => out.check(
            label.starts_with("soaoas-16") && within_ladder_band(*speedup),
            || {
                format!(
                    "synthesis winner {label} at {speedup}x is not the SoAoaS-16 rewrite in band"
                )
            },
        ),
        None => out.fail("synthesis proposed nothing".into()),
    }
    check_recorded(out, &sweep.device_figures());
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_ms = Vec::new();
    let s = timed_setup(&mut setup_ms);

    // More set-up samples before every pass, so they meet the same host
    // speed as the passes.
    let budget = Duration::from_secs(args.seconds);
    let window = if args.trace { budget / 2 } else { budget };
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed() < window {
        for _ in 0..SETUPS {
            std::hint::black_box(timed_setup(&mut setup_ms));
        }
        passes.push(pass(&s, &mut Tracer::new(false), &mut out));
    }
    let mut tracer = Tracer::new(args.trace);
    let traced = args.trace.then(|| pass(&s, &mut tracer, &mut out));
    let rss = peak_rss_mib();

    let first = passes[0].sweep.clone();
    check_sweep(&mut out, &first);
    for (k, p) in passes.iter().chain(traced.iter()).enumerate().skip(1) {
        out.check(p.sweep == first, || format!("pass {k} differs from pass 0"));
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    let wall_s = walls.iter().sum::<f64>() / 1e3;
    out.e2e.insert("setup_s", median(&setup_ms) / 1e3);
    out.e2e.insert("ops_per_s", walls.len() as f64 / wall_s);
    out.e2e.insert("op_p50_ms", median(&walls));
    out.e2e.insert("op_p90_ms", percentile(&walls, 90.0));
    out.e2e.insert("peak_rss_mb", rss);
    out.table.push(("sweep_s", median(&walls) / 1e3, "s"));
    for (name, v) in first.device_figures().into_iter().take(3) {
        out.table.push((name, v, ""));
    }
    out.op_samples = passes.len();

    if let Some(p) = &traced {
        check_recorded(&mut out, &p.device);
        ladder_layers(&mut out, &tracer, p, median(&walls));
        out.spans_jsonl = tracer.to_json_lines();
    }
    out
}

/// Analyzer, timed-engine and device metrics of the traced pass.
fn ladder_layers(out: &mut Outcome, t: &Tracer, p: &Pass, untraced_wall_ms: f64) {
    let layers = t.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let frames = get("model.frame").count.max(1) as f64;
    let timed_ns = get("exec.timed").self_ns as f64;
    let instr = t.counter("exec.timed_warp_instructions") as f64;
    let pass_ms = get("ladder.pass").wall_ns as f64 / 1e6;
    let residual = get("ladder.pass").self_ms() + get("model.frame").self_ms();
    let s = &p.sweep;
    let l = &mut out.layers;
    l.insert("kernels.build_ms", get("kernels.build").self_ms() / frames);
    l.insert("kernels.builds", get("kernels.build").count as f64);
    l.insert("ir.lower_ms", get("ir.lower").self_ms() / frames);
    l.insert("ir.lowers", get("ir.lower").count as f64);
    l.insert(
        "layouts.upload_ms",
        get("layouts.upload").self_ms() / frames,
    );
    l.insert(
        "layouts.upload_bytes",
        t.counter("layouts.upload_bytes") as f64,
    );
    l.insert("exec.timed_ms", timed_ns / 1e6);
    l.insert("exec.timed_warp_instructions", instr);
    l.insert("exec.timed_ns_per_warp_instr", timed_ns / instr.max(1.0));
    l.insert("warp_minstr_per_s", instr / timed_ns.max(1.0) * 1e3);
    l.insert("analyze.synth_ms", get("analyze.synth").self_ms());
    l.insert("analyze.synth_candidates", s.candidates as f64);
    l.insert(
        "analyze.synth_proved_ratio",
        s.proved as f64 / (s.proved + s.skipped).max(1) as f64,
    );
    l.insert("analyze.cost_ms", get("analyze.cost").self_ms());
    l.extend(s.device_figures());
    l.extend(p.device.iter().copied());
    l.insert("trace.overhead_ratio", pass_ms / untraced_wall_ms);
    l.insert("trace.coverage", 1.0 - residual / pass_ms);
    l.insert("trace.spans", t.spans().len() as f64);
}
