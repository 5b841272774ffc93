//! One GPU force frame, driven through the public calls in the order
//! `gravit_app::backend` runs them, with a span around each layer.
//!
//! The frame plans against the device capacity (`pressure::plan_frame`),
//! then runs the full-residency rung (build, lower, upload, execute,
//! download) or the chunked rung (the same per target and source chunk), or
//! the CPU rung. Callers compare the result bit for bit with
//! `Backend::accelerations_recovering` on the same bodies, so the replica
//! cannot drift from the program it measures.
//!
//! A fleet runs every launch under its device's transient-fault plan and
//! watchdog, followed by an ECC scrub of the whole device memory;
//! [`Launch::Fleet`] replays that path with a quiet plan, so the scrub is
//! inside `exec.functional`.

use crate::trace::Tracer;
use gpu_kernels::chunk::{build_chunk_force_kernel, chunk_force_params};
use gpu_kernels::force::{build_force_kernel, force_params, OptLevel};
use gpu_sim::exec::functional::run_grid_lowered;
use gpu_sim::fault::{DeviceError, DeviceResult, FaultKind};
use gpu_sim::ir::lower::{lower, Program};
use gpu_sim::mem::GlobalMemory;
use gpu_sim::transient::{run_grid_chaos_lowered, TransientFaultPlan};
use gpu_sim::DriverModel;
use gravit_app::backend::{frame_memory_budget, Backend, FaultPolicy};
use gravit_app::pressure::{chunked_memory_budget, plan_frame, ExecMode};
use gravit_app::recovery::RecoveryPolicy;
use nbody::direct::accelerations_par;
use nbody::model::{Bodies, ForceParams};
use particle_layouts::device::{alloc_accel_out, download_accels};
use particle_layouts::{DeviceImage, Particle};
use simcore::Vec3;

fn particles(bodies: &Bodies, fp: &ForceParams) -> Vec<Particle> {
    (0..bodies.len())
        .map(|i| Particle {
            pos: bodies.pos[i],
            vel: bodies.vel[i],
            mass: fp.g * bodies.mass[i],
        })
        .collect()
}

fn finite(accels: &[Vec3]) -> DeviceResult<()> {
    match accels
        .iter()
        .position(|a| !(a.x.is_finite() && a.y.is_finite() && a.z.is_finite()))
    {
        Some(i) => Err(DeviceError::new(FaultKind::NonFiniteResult {
            index: i as u64,
        })),
        None => Ok(()),
    }
}

/// How the replayed frame launches its kernels.
#[derive(Clone, Copy)]
pub enum Launch {
    /// As a `Simulation` outside a fleet: a bare functional launch.
    Bare,
    /// As a fleet slice: under a (quiet) transient-fault plan and the
    /// device's watchdog, with the post-launch ECC scrub.
    Fleet {
        /// The device's warp-instruction watchdog.
        watchdog: Option<u64>,
    },
}

/// One functional launch, timed as `exec.functional`, with its counters.
#[allow(clippy::too_many_arguments)]
fn launch(
    t: &mut Tracer,
    id: u64,
    how: Launch,
    prog: &Program,
    grid: u32,
    block: u32,
    params: &[u32],
    gmem: &mut GlobalMemory,
) -> DeviceResult<()> {
    let run = t.span("exec.functional", id, |_| match how {
        Launch::Bare => run_grid_lowered(prog, grid, block, params, gmem),
        Launch::Fleet { watchdog } => run_grid_chaos_lowered(
            prog,
            grid,
            block,
            params,
            gmem,
            &mut TransientFaultPlan::quiet(),
            watchdog,
        ),
    })?;
    t.add("exec.launches", 1);
    t.add("exec.warp_instructions", run.warp_instructions);
    Ok(())
}

fn full_frame(
    t: &mut Tracer,
    id: u64,
    bodies: &Bodies,
    fp: &ForceParams,
    level: OptLevel,
    how: Launch,
) -> DeviceResult<Vec<Vec3>> {
    let cfg = level.config();
    let kernel = t.span("kernels.build", id, |_| build_force_kernel(cfg));
    let prog = t.span("ir.lower", id, |_| lower(&kernel));
    let parts = particles(bodies, fp);
    let (mut gmem, img, out) = t.span("layouts.upload", id, |t| -> DeviceResult<_> {
        let mut gmem = GlobalMemory::new(frame_memory_budget(level, bodies.len() as u32));
        let img = DeviceImage::upload(&mut gmem, cfg.layout, &parts, cfg.block)?;
        let out = alloc_accel_out(&mut gmem, img.padded_n)?;
        t.add("layouts.upload_bytes", img.bytes + img.padded_n as u64 * 16);
        Ok((gmem, img, out))
    })?;
    let params = force_params(&img, out, fp.softening);
    let grid = img.padded_n / cfg.block;
    launch(t, id, how, &prog, grid, cfg.block, &params, &mut gmem)?;
    let accels = t.span("layouts.download", id, |_| {
        download_accels(&gmem, out, img.n)
    })?;
    finite(&accels)?;
    Ok(accels)
}

#[allow(clippy::too_many_arguments)]
fn chunked_frame(
    t: &mut Tracer,
    id: u64,
    bodies: &Bodies,
    fp: &ForceParams,
    level: OptLevel,
    chunk: u32,
    capacity: Option<u64>,
    how: Launch,
) -> DeviceResult<Vec<Vec3>> {
    let cfg = level.config();
    let kernel = t.span("kernels.build", id, |_| build_chunk_force_kernel(cfg));
    let prog = t.span("ir.lower", id, |_| lower(&kernel));
    let parts = particles(bodies, fp);
    let mut gmem =
        GlobalMemory::new(capacity.unwrap_or_else(|| chunked_memory_budget(level, chunk)));
    let mut accels = Vec::with_capacity(parts.len());
    for tgt_lo in (0..parts.len()).step_by(chunk as usize) {
        let tgt_hi = (tgt_lo + chunk as usize).min(parts.len());
        let (tgt, out) = t.span("layouts.upload", id, |t| -> DeviceResult<_> {
            gmem.reset();
            let tgt =
                DeviceImage::upload(&mut gmem, cfg.layout, &parts[tgt_lo..tgt_hi], cfg.block)?;
            let out = alloc_accel_out(&mut gmem, tgt.padded_n)?;
            t.add("layouts.upload_bytes", tgt.bytes + tgt.padded_n as u64 * 16);
            Ok((tgt, out))
        })?;
        let grid = tgt.padded_n / cfg.block;
        for src_lo in (0..parts.len()).step_by(chunk as usize) {
            let src_hi = (src_lo + chunk as usize).min(parts.len());
            let src = t.span("layouts.upload", id, |t| {
                let src =
                    DeviceImage::upload(&mut gmem, cfg.layout, &parts[src_lo..src_hi], cfg.block);
                if let Ok(s) = &src {
                    t.add("layouts.upload_bytes", s.bytes);
                }
                src
            })?;
            let params = chunk_force_params(&tgt, &src, out, fp.softening);
            launch(t, id, how, &prog, grid, cfg.block, &params, &mut gmem)?;
            src.free(&mut gmem)?;
        }
        let part = t.span("layouts.download", id, |_| {
            download_accels(&gmem, out, tgt.n)
        })?;
        accels.extend(part);
    }
    finite(&accels)?;
    Ok(accels)
}

/// One force frame of `bodies` at `level` on a device of `capacity` bytes
/// (`None` = unconstrained), down whichever rung `plan_frame` admits.
pub fn force_frame(
    t: &mut Tracer,
    id: u64,
    bodies: &Bodies,
    fp: &ForceParams,
    level: OptLevel,
    capacity: Option<u64>,
    how: Launch,
) -> DeviceResult<Vec<Vec3>> {
    if bodies.is_empty() {
        return Ok(Vec::new());
    }
    let plan = t.span("pressure.plan", id, |_| {
        plan_frame(level, bodies.len() as u32, capacity)
    });
    match plan.mode {
        ExecMode::Full => full_frame(t, id, bodies, fp, level, how),
        ExecMode::Chunked { chunk } => {
            t.add("pressure.chunked_frames", 1);
            chunked_frame(t, id, bodies, fp, level, chunk, capacity, how)
        }
        ExecMode::Cpu => Ok(t.span("nbody.cpu_fallback", id, |_| accelerations_par(bodies, fp))),
    }
}

/// The program's own answer for the same frame: what `Simulation::step`
/// computes for a fault-free device of `capacity` bytes, launched `how`.
pub fn program_frame(
    bodies: &Bodies,
    fp: &ForceParams,
    level: OptLevel,
    capacity: Option<u64>,
    how: Launch,
) -> DeviceResult<Vec<Vec3>> {
    let (mut quiet, watchdog) = match how {
        Launch::Bare => (None, None),
        Launch::Fleet { watchdog } => (Some(TransientFaultPlan::quiet()), watchdog),
    };
    let recovery = RecoveryPolicy {
        device_capacity: capacity,
        watchdog_instructions: watchdog,
        ..RecoveryPolicy::default()
    };
    let backend = Backend::GpuSim {
        level,
        driver: DriverModel::Cuda10,
    };
    backend
        .accelerations_recovering(bodies, fp, FaultPolicy::FailFast, &recovery, quiet.as_mut())
        .map(|r| r.accels)
}
