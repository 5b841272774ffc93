//! `single_run`: one closed-loop simulation, one caller waiting on each frame.
//!
//! n = 1024 Plummer bodies (8 blocks of 128), `GpuSim { Full, CUDA 1.0 }`,
//! leapfrog, 1 executor thread: on a shared 2-core host a second executor
//! thread makes frame times swing with the neighbours' load (spreads of 15
//! to 25% between runs against about 10% with one). The untraced run steps
//! the `Simulation` for
//! the requested seconds (at least 100 frames). The traced run replays
//! frames through the public calls (`frame::force_frame`) inside
//! `step_leapfrog`, so every layer of a frame gets its own span.
//!
//! Correctness: every frame's state is compared with the same configuration
//! run on `Backend::CpuSerial`, bit for bit.

use crate::frame::{force_frame, program_frame, Launch};
use crate::layers::frame_layers;
use crate::report::Outcome;
use crate::stats::{median, ms_since, peak_rss_mib, percentile};
use crate::trace::Tracer;
use crate::Args;
use gpu_kernels::force::OptLevel;
use gpu_sim::DriverModel;
use gravit_app::backend::{Backend, FaultPolicy};
use gravit_app::config::{Integrator, SimConfig, SpawnKind};
use gravit_app::sim::Simulation;
use nbody::integrator::step_leapfrog;
use nbody::model::Bodies;
use std::time::{Duration, Instant};

/// Executor threads this workload runs with.
pub const THREADS: usize = 1;
const N: usize = 1024;
const LEVEL: OptLevel = OptLevel::Full;
const MIN_FRAMES: usize = 100;
const SETUPS: usize = 10;
/// Frames replayed by the traced segment (a fixed count, so same-seed
/// traced runs record identical counters).
const TRACED_FRAMES: u64 = 100;

fn config(seed: u64, backend: Backend) -> SimConfig {
    SimConfig {
        n: N,
        spawn: SpawnKind::Plummer { a: 1.0 },
        seed,
        dt: 0.005,
        integrator: Integrator::Leapfrog,
        backend,
        fault_policy: FaultPolicy::FailFast,
        ..SimConfig::default()
    }
}

fn gpu() -> Backend {
    Backend::GpuSim {
        level: LEVEL,
        driver: DriverModel::Cuda10,
    }
}

/// FNV-1a over the exact bits of every body.
fn state_hash(b: &Bodies) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: f32| {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..b.len() {
        for v in [b.pos[i], b.vel[i]] {
            eat(v.x);
            eat(v.y);
            eat(v.z);
        }
        eat(b.mass[i]);
    }
    h
}

/// Time one set-up: spawn the bodies and build the simulation, which
/// computes the initial accelerations.
fn setup(cfg: &SimConfig, setup_ms: &mut Vec<f64>) -> Simulation {
    let t = Instant::now();
    let sim = Simulation::new(cfg.clone()).expect("the single_run configuration is valid");
    setup_ms.push(ms_since(t));
    sim
}

/// Step `sim` until `budget` has passed and at least `min_frames` ran.
/// Returns per-frame latencies (ms); pushes each post-frame state hash.
/// Set-up samples are taken at even intervals through the budget (outside
/// the frame timings) until `setup_ms` holds [`SETUPS`], so they meet the
/// same host speed as the frames.
fn step_for(
    sim: &mut Simulation,
    budget: Duration,
    min_frames: usize,
    hashes: &mut Vec<u64>,
    setup_ms: &mut Vec<f64>,
    out: &mut Outcome,
) -> Vec<f64> {
    let every = budget / SETUPS as u32;
    let mut frame_ms = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || frame_ms.len() < min_frames {
        if setup_ms.len() < SETUPS && t0.elapsed() >= every * setup_ms.len() as u32 {
            std::hint::black_box(setup(&sim.config, setup_ms));
        }
        let t = Instant::now();
        let r = sim.step();
        frame_ms.push(ms_since(t));
        out.attempted += 1;
        if let Err(e) = r {
            out.fail(format!("frame {}: device error {e}", sim.steps));
            break;
        }
        hashes.push(state_hash(&sim.bodies));
    }
    frame_ms
}

/// One frame replayed through the public calls, with spans. The program's
/// own force for the same bodies is computed outside the frame span and
/// compared bit for bit.
fn traced_step(sim: &mut Simulation, t: &mut Tracer, out: &mut Outcome) {
    let id = sim.steps;
    let dt = sim.config.dt;
    let fp = sim.config.force;
    let mut replica: Option<(Bodies, Vec<simcore::Vec3>)> = None;
    let mut error = None;
    let accels = sim.accels.clone();
    let new_accels = t.span("sim.frame", id, |t| {
        t.span("nbody.integrate", id, |t| {
            step_leapfrog(&mut sim.bodies, &accels, dt, None, |b| {
                let a = t.span("backend.force", id, |t| {
                    force_frame(t, id, b, &fp, LEVEL, None, Launch::Bare)
                });
                match a {
                    Ok(a) => {
                        replica = Some((b.clone(), a.clone()));
                        a
                    }
                    Err(e) => {
                        error = Some(e);
                        vec![simcore::Vec3::ZERO; b.len()]
                    }
                }
            })
        })
    });
    out.attempted += 1;
    sim.accels = new_accels;
    sim.time += dt as f64;
    sim.steps += 1;
    match (replica, error) {
        (Some((bodies, a)), None) => {
            let want = program_frame(&bodies, &fp, LEVEL, None, Launch::Bare);
            out.check(want.as_ref().ok() == Some(&a), || {
                format!("traced frame {id}: replica differs from accelerations_recovering")
            });
        }
        (_, e) => out.fail(format!("traced frame {id}: {e:?}")),
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(args.seed, gpu());

    // The first set-up builds the simulation that runs; `step_for` times
    // the others through the run.
    let mut setup_ms = Vec::new();
    let mut sim = setup(&cfg, &mut setup_ms);
    let budget = Duration::from_secs(args.seconds);

    let mut hashes = Vec::new();
    let mut tracer = Tracer::new(args.trace);
    let frame_ms = if args.trace {
        // The untraced half is the overhead baseline; the traced segment is
        // a fixed frame count.
        let base = step_for(
            &mut sim,
            budget / 2,
            10,
            &mut hashes,
            &mut setup_ms,
            &mut out,
        );
        for _ in 0..TRACED_FRAMES {
            traced_step(&mut sim, &mut tracer, &mut out);
            hashes.push(state_hash(&sim.bodies));
        }
        let traced: Vec<f64> = tracer
            .durations("sim.frame")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        out.layers
            .insert("trace.overhead_ratio", median(&traced) / median(&base));
        base
    } else {
        step_for(
            &mut sim,
            budget,
            MIN_FRAMES,
            &mut hashes,
            &mut setup_ms,
            &mut out,
        )
    };
    let rss = peak_rss_mib();

    // Reference: the same configuration on the serial CPU backend.
    let mut reference =
        Simulation::new(config(args.seed, Backend::CpuSerial)).expect("reference config is valid");
    for (k, h) in hashes.iter().enumerate() {
        reference.step().expect("the CPU backend cannot fault");
        out.check(state_hash(&reference.bodies) == *h, || {
            format!(
                "frame {}: state differs from the CpuSerial reference",
                k + 1
            )
        });
    }
    out.check(reference.bodies == sim.bodies, || {
        "final state differs from the CpuSerial reference".into()
    });

    let frames = frame_ms.len() as f64;
    let busy_s = frame_ms.iter().sum::<f64>() / 1e3;
    let setup_s = median(&setup_ms) / 1e3;
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("ops_per_s", frames / busy_s);
    out.e2e.insert("op_p50_ms", median(&frame_ms));
    out.e2e.insert("op_p90_ms", percentile(&frame_ms, 90.0));
    out.e2e.insert("peak_rss_mb", rss);

    // Warp instructions per frame: one replayed frame on the final state
    // (the force kernel's instruction count does not depend on the data).
    let mut counter = Tracer::new(true);
    let _ = force_frame(
        &mut counter,
        0,
        &sim.bodies,
        &sim.config.force,
        LEVEL,
        None,
        Launch::Bare,
    );
    let wi = counter.counter("exec.warp_instructions") as f64;
    out.table
        .push(("frames_per_s", frames / busy_s, "frames/s"));
    out.table.push(("frame_p50_ms", median(&frame_ms), "ms"));
    out.table
        .push(("frame_p90_ms", percentile(&frame_ms, 90.0), "ms"));
    out.table
        .push(("warp_minstr_per_s", frames * wi / busy_s / 1e6, "M/s"));
    out.op_samples = frame_ms.len();

    if args.trace {
        frame_layers(&mut out, &tracer);
        out.layers.insert("sim.new_ms", median(&setup_ms));
        let ckpt = sim.checkpoint();
        let t = Instant::now();
        let resumed = Simulation::resume(cfg.clone(), &ckpt);
        out.layers.insert("sim.resume_ms", ms_since(t));
        out.check(resumed.is_ok_and(|r| r.bodies == sim.bodies), || {
            "resume from the final checkpoint differs".into()
        });
        out.spans_jsonl = tracer.to_json_lines();
    }
    out
}
