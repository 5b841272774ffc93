//! `fleet_quiet` and `fleet_chaos`: batches of jobs through a device pool.
//!
//! `fleet_quiet` runs on one device: the fleet runs one slice worker per
//! busy device and joins them every tick, and on a shared host two workers
//! make every tick wait on the slower CPU (throughput fell by up to 40% in
//! slow spells). `fleet_chaos` keeps two devices, which its migrations and
//! quarantine drains need.
//!
//! Every job of a batch is due at t = 0; submission is gated by admission
//! (`QueueFull` is retried on the next tick), and a job's latency runs from
//! the batch start to the tick that reports its `Completed` event. Batches
//! repeat on fresh fleets for the requested seconds (at least two), all
//! from the same seed.
//!
//! Correctness: every batch completes or rejects each submitted job exactly
//! once, every completion is `physics_eq` to a solo fault-free run of its
//! spec on `Backend::CpuSerial`, and every batch replays the first bit for
//! bit (event log, per-device fault histories, final states).
//!
//! `fleet_chaos` injects launch failures and hangs at rates 0.2 / 0.1 per
//! launch, and no bit flips: on the chunked rung the program lets a flipped
//! accumulator word through its ECC scrub (see `perfbench/README.md`), so
//! with flips about 1 job in 10 completes with wrong physics. Its
//! completions are gated like any other.

use crate::frame::{force_frame, program_frame, Launch};
use crate::layers::{frame_layers, median_us};
use crate::report::Outcome;
use crate::stats::{median, ms_since, peak_rss_mib, percentile};
use crate::trace::Tracer;
use crate::Args;
use gpu_kernels::force::OptLevel;
use gpu_sim::transient::FaultRates;
use gpu_sim::{DevicePool, DeviceSpec, DriverModel};
use gravit_app::backend::{Backend, FaultPolicy};
use gravit_app::checkpoint::Checkpoint;
use gravit_app::config::{SimConfig, SpawnKind};
use gravit_app::fleet::{Fleet, FleetConfig, FleetEvent, JobSpec, Rejected};
use gravit_app::sim::Simulation;
use nbody::direct::accelerations_par;
use simcore::{Rng64, SplitMix64};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// A batch that has not drained after this many ticks is a failure.
const MAX_TICKS: u64 = 20_000;
/// Set-up samples, and set-ups timed together per sample (one set-up takes
/// microseconds).
const SETUP_SAMPLES: usize = 15;
const SETUP_REPS: usize = 1000;

/// Which fleet workload.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Quiet one-device pool, mixed levels and sizes.
    Quiet,
    /// Faulty, memory-constrained pool: launch failures and hangs.
    Chaos,
}

impl Kind {
    /// Devices in the pool (one slice worker thread each).
    pub fn devices(self) -> usize {
        match self {
            Kind::Quiet => 1,
            Kind::Chaos => 2,
        }
    }

    fn slice(self) -> u64 {
        match self {
            Kind::Quiet => 4,
            Kind::Chaos => 2,
        }
    }

    /// Device capacity every frame is planned against.
    fn capacity(self) -> Option<u64> {
        match self {
            Kind::Quiet => None,
            Kind::Chaos => Some(12 * 1024),
        }
    }

    fn device(self) -> DeviceSpec {
        match self {
            Kind::Quiet => DeviceSpec::quiet(),
            Kind::Chaos => DeviceSpec {
                capacity: self.capacity(),
                fault_rates: FaultRates {
                    // 0.2 once the chunked rung's accumulator is ECC-checked.
                    bit_flip: 0.0,
                    launch_failure: 0.2,
                    hang: 0.1,
                },
                watchdog_instructions: Some(1 << 22),
            },
        }
    }
}

/// Seed of the pool's fault schedules and the scheduler's draws. They are
/// part of the workload, like its fault rates, so every input seed meets the
/// same device behaviour and runs the same amount of work.
const FLEET_SEED: u64 = 0x5eed_f1ee7;

/// The batch's jobs, drawn from the workload seed: each job's bodies, and
/// for `fleet_quiet` the order of a balanced multiset of sizes (30 each of
/// 48, 64, 96 and 128 bodies), so every seed does the same total work.
fn specs(kind: Kind, seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let (jobs, steps) = match kind {
        Kind::Quiet => (120u64, 8u64),
        Kind::Chaos => (100, 4),
    };
    let mut sizes: Vec<usize> = (0..jobs as usize)
        .map(|i| [48, 64, 96, 128][i % 4])
        .collect();
    rng.shuffle(&mut sizes);
    (0..jobs)
        .map(|id| {
            let (n, level) = match kind {
                Kind::Quiet => (sizes[id as usize], OptLevel::ALL[(id % 6) as usize]),
                Kind::Chaos => (256, OptLevel::Full),
            };
            JobSpec {
                id,
                tenant: format!("tenant-{}", id % 4),
                config: SimConfig {
                    n,
                    spawn: SpawnKind::UniformBall { radius: 4.0 },
                    seed: rng.next_u64(),
                    dt: 0.01,
                    backend: Backend::GpuSim {
                        level,
                        driver: DriverModel::Cuda10,
                    },
                    fault_policy: FaultPolicy::FallbackToCpu,
                    ..SimConfig::default()
                },
                steps,
            }
        })
        .collect()
}

/// Set-up: the batch's specs, the pool and the fleet.
fn setup(kind: Kind, seed: u64) -> (Vec<JobSpec>, Fleet) {
    let specs = specs(kind, seed);
    let pool = DevicePool::uniform(FLEET_SEED, kind.devices(), kind.device())
        .expect("workload fault rates are valid");
    let cfg = FleetConfig {
        slice_steps: kind.slice(),
        seed: FLEET_SEED,
        ..FleetConfig::default()
    };
    (specs, Fleet::new(cfg, pool))
}

/// One drained batch.
struct Batch {
    wall_ms: f64,
    latency_ms: Vec<f64>,
    fleet: Fleet,
    rejected: Vec<(u64, Rejected)>,
    queue_full: u64,
    drained: bool,
}

/// Submit every spec as admission allows and tick until the fleet drains.
fn drive(mut fleet: Fleet, specs: &[JobSpec], t: &mut Tracer) -> Batch {
    let start = Instant::now();
    let mut pending: VecDeque<&JobSpec> = specs.iter().collect();
    let mut rejected = Vec::new();
    let mut latency_ms = Vec::new();
    let mut queue_full = 0;
    let mut seen = 0;
    let drained = loop {
        while let Some(spec) = pending.pop_front() {
            match t.span("fleet.submit", spec.id, |_| fleet.submit(spec.clone())) {
                Ok(()) => {}
                Err(r @ (Rejected::QueueFull { .. } | Rejected::NoAdmittingDevice)) => {
                    queue_full += u64::from(matches!(r, Rejected::QueueFull { .. }));
                    pending.push_front(spec);
                    break;
                }
                Err(r) => rejected.push((spec.id, r)),
            }
        }
        if pending.is_empty() && fleet.idle() {
            break true;
        }
        if fleet.tick_count() >= MAX_TICKS {
            break false;
        }
        let tick = fleet.tick_count();
        t.span("fleet.tick", tick, |_| fleet.tick());
        let events = fleet.events();
        let done = events[seen..]
            .iter()
            .filter(|e| matches!(e, FleetEvent::Completed { .. }))
            .count();
        seen = events.len();
        let now = ms_since(start);
        latency_ms.extend(std::iter::repeat_n(now, done));
    };
    Batch {
        wall_ms: ms_since(start),
        latency_ms,
        fleet,
        rejected,
        queue_full,
        drained,
    }
}

/// The physics fields of two checkpoints that differ. The fault log is not
/// physics: a chaotic lineage's legitimately differs from a clean
/// reference's.
fn physics_diff(a: &Checkpoint, b: &Checkpoint) -> Vec<&'static str> {
    [
        ("time", a.time_bits == b.time_bits),
        ("steps", a.steps == b.steps),
        ("pos", a.pos == b.pos),
        ("vel", a.vel == b.vel),
        ("mass", a.mass == b.mass),
        ("accels", a.accels == b.accels),
        ("energy0", a.energy0_bits == b.energy0_bits),
    ]
    .into_iter()
    .filter(|f| !f.1)
    .map(|f| f.0)
    .collect()
}

/// Physics-only checkpoint equality.
fn physics_eq(a: &Checkpoint, b: &Checkpoint) -> bool {
    physics_diff(a, b).is_empty()
}

/// Solo fault-free run of `spec` on the serial CPU backend.
fn reference(spec: &JobSpec) -> Checkpoint {
    let cfg = SimConfig {
        backend: Backend::CpuSerial,
        ..spec.config.clone()
    };
    let mut sim = Simulation::new(cfg).expect("workload configs are valid");
    sim.run(spec.steps).expect("the CPU backend cannot fault");
    sim.checkpoint()
}

/// Gate one batch against the references.
fn check_batch(out: &mut Outcome, b: usize, batch: &Batch, specs: &[JobSpec], refs: &[Checkpoint]) {
    out.attempted += specs.len() as u64;
    out.check(batch.drained, || {
        format!("batch {b}: did not drain in {MAX_TICKS} ticks")
    });
    for (id, r) in &batch.rejected {
        out.fail(format!("batch {b}: job {id} rejected: {r}"));
    }
    let mut by_id: BTreeMap<u64, Vec<&Checkpoint>> = BTreeMap::new();
    for c in batch.fleet.completed() {
        by_id.entry(c.id).or_default().push(&c.final_state);
    }
    let rejected: BTreeSet<u64> = batch.rejected.iter().map(|r| r.0).collect();
    for (spec, want) in specs.iter().zip(refs) {
        if rejected.contains(&spec.id) {
            continue;
        }
        match by_id.get(&spec.id).map(Vec::as_slice) {
            Some([got]) => out.check(physics_eq(got, want), || {
                format!(
                    "batch {b}: job {} differs from its solo reference in {:?}",
                    spec.id,
                    physics_diff(got, want)
                )
            }),
            Some(many) => out.fail(format!(
                "batch {b}: job {} completed {} times",
                spec.id,
                many.len()
            )),
            None => out.fail(format!("batch {b}: job {} lost", spec.id)),
        }
    }
    out.check(
        batch.fleet.completed().len() + batch.rejected.len() == specs.len(),
        || format!("batch {b}: completed + rejected != submitted"),
    );
}

/// Same seed, same fleet: the event log, every device's fault history and
/// every final state must repeat exactly.
fn check_replay(out: &mut Outcome, b: usize, first: &Batch, again: &Batch) {
    let same = again.fleet.events() == first.fleet.events()
        && (0..first.fleet.pool().len())
            .all(|d| again.fleet.fault_history(d) == first.fleet.fault_history(d))
        && again.fleet.completed() == first.fleet.completed();
    out.check(same, || {
        format!("batch {b}: same-seed replay of batch 0 differs")
    });
}

/// `SETUP_SAMPLES` set-up times in ms, each the mean of `SETUP_REPS`
/// set-ups. Taken first thing in the process, as a user pays set-up: on a
/// heap that later batches have fragmented, the same set-up ran up to twice
/// as slow and varied more from run to run.
fn sample_setup(kind: Kind, seed: u64) -> Vec<f64> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_REPS {
                std::hint::black_box(setup(kind, std::hint::black_box(seed)));
            }
            ms_since(t) / SETUP_REPS as f64
        })
        .collect()
}

/// Run the workload.
pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let setup_ms = sample_setup(kind, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let window = if args.trace { budget / 2 } else { budget };
    let specs = specs(kind, args.seed);

    // References first, so the harness holds the same memory however many
    // batches run: the references, the first batch and the current one.
    let refs: Vec<Checkpoint> = specs.iter().map(reference).collect();

    // Every batch runs the same seed, so each one after the first is also a
    // replay check; there are at least two.
    let mut first: Option<Batch> = None;
    let (mut walls, mut latency, mut ticks) = (Vec::new(), Vec::new(), Vec::new());
    let mut done = 0usize;
    let gate = |out: &mut Outcome, b: usize, batch: Batch, first: &mut Option<Batch>| {
        check_batch(out, b, &batch, &specs, &refs);
        match first {
            Some(f) => check_replay(out, b, f, &batch),
            None => *first = Some(batch),
        }
    };
    let t0 = Instant::now();
    while walls.len() < 2 || t0.elapsed() < window {
        let batch = drive(setup(kind, args.seed).1, &specs, &mut Tracer::new(false));
        walls.push(batch.wall_ms);
        latency.extend_from_slice(&batch.latency_ms);
        ticks.push(batch.fleet.tick_count() as f64);
        done += batch.fleet.completed().len();
        gate(&mut out, walls.len() - 1, batch, &mut first);
    }
    let rss = peak_rss_mib();

    let wall_s = walls.iter().sum::<f64>() / 1e3;
    out.e2e.insert("setup_s", median(&setup_ms) / 1e3);
    out.e2e.insert("ops_per_s", done as f64 / wall_s);
    out.e2e.insert("op_p50_ms", median(&latency));
    out.e2e.insert("op_p90_ms", percentile(&latency, 90.0));
    out.e2e.insert("peak_rss_mb", rss);
    out.table
        .push(("jobs_per_s", done as f64 / wall_s, "jobs/s"));
    out.table.push(("job_p50_s", median(&latency) / 1e3, "s"));
    out.table
        .push(("job_p90_s", percentile(&latency, 90.0) / 1e3, "s"));
    out.op_samples = latency.len();
    out.table.push(("batches", walls.len() as f64, "count"));
    out.table.push(("ticks_per_batch", median(&ticks), "count"));

    if args.trace {
        let mut tracer = Tracer::new(true);
        let batch = drive(setup(kind, args.seed).1, &specs, &mut tracer);
        out.layers
            .insert("trace.overhead_ratio", batch.wall_ms / median(&walls));
        replicate_frames(&mut out, &mut tracer, kind, &specs, &batch);
        fleet_layers(&mut out, &tracer, kind, &batch);
        out.spans_jsonl = tracer.to_json_lines();
        gate(&mut out, walls.len(), batch, &mut first);
    }
    out
}

/// One frame per distinct (level, n) job shape, replayed through the public
/// calls and compared bit for bit with the program's own frame; plus the
/// simulation, checkpoint and CPU-fallback calls the fleet makes per job.
fn replicate_frames(
    out: &mut Outcome,
    t: &mut Tracer,
    kind: Kind,
    specs: &[JobSpec],
    batch: &Batch,
) {
    let mut shapes: BTreeMap<(usize, usize), &JobSpec> = BTreeMap::new();
    for s in specs {
        let level = match s.config.backend {
            Backend::GpuSim { level, .. } => level,
            _ => unreachable!("fleet jobs run on the GPU backend"),
        };
        let rung = OptLevel::ALL
            .iter()
            .position(|&l| l == level)
            .expect("a ladder level");
        shapes.entry((rung, s.config.n)).or_insert(s);
    }
    let how = Launch::Fleet {
        watchdog: kind.device().watchdog_instructions,
    };
    let mut fallback_ms = Vec::new();
    for (k, spec) in shapes.values().enumerate() {
        let id = k as u64;
        let Backend::GpuSim { level, .. } = spec.config.backend else {
            unreachable!("checked above")
        };
        let fp = spec.config.force;
        let sim = t.span("sim.new", id, |_| Simulation::new(spec.config.clone()));
        let sim = sim.expect("workload configs are valid");
        let bodies = &sim.bodies;
        let got = t.span("sim.frame", id, |t| {
            t.span("backend.force", id, |t| {
                force_frame(t, id, bodies, &fp, level, kind.capacity(), how)
            })
        });
        let want = program_frame(bodies, &fp, level, kind.capacity(), how);
        out.attempted += 1;
        out.check(matches!((&got, &want), (Ok(a), Ok(b)) if a == b), || {
            format!("replicated frame of shape {k} differs from accelerations_recovering")
        });
        let t0 = Instant::now();
        std::hint::black_box(accelerations_par(bodies, &fp));
        fallback_ms.push(ms_since(t0));
    }
    frame_layers(out, t);
    let fallbacks = recovery_counts(batch).cpu_fallbacks;
    out.layers.insert(
        "nbody.cpu_fallback_ms",
        median(&fallback_ms) * fallbacks as f64,
    );

    let mut resume_ms = Vec::new();
    for c in batch.fleet.completed() {
        let state = &c.final_state;
        let bytes = t.span("checkpoint.encode", c.id, |_| state.to_bytes());
        let back = t.span("checkpoint.decode", c.id, |_| {
            Checkpoint::from_bytes(&bytes)
        });
        out.check(back.as_ref().ok() == Some(state), || {
            format!("job {}: checkpoint does not round-trip", c.id)
        });
        t.add("checkpoint.bytes_each", bytes.len() as u64);
        let spec = &specs[c.id as usize];
        let t0 = Instant::now();
        let resumed = Simulation::resume(spec.config.clone(), state);
        resume_ms.push(ms_since(t0));
        out.check(resumed.is_ok(), || {
            format!("job {}: final state does not resume", c.id)
        });
    }
    out.layers.insert("sim.resume_ms", median(&resume_ms));
    let news: Vec<f64> = t
        .durations("sim.new")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    out.layers.insert("sim.new_ms", median(&news));
}

/// Recovery and pressure counters, from the completed jobs' fault reports.
#[derive(Default)]
struct RecoveryCounts {
    frames: u64,
    retries: u64,
    watchdog: u64,
    ecc: u64,
    launch: u64,
    cpu_fallbacks: u64,
    chunked: u64,
}

fn recovery_counts(batch: &Batch) -> RecoveryCounts {
    let mut r = RecoveryCounts::default();
    for c in batch.fleet.completed() {
        // The initial frame of `Simulation::new`, then one per step.
        r.frames += 1 + c.final_state.steps;
        for rep in &c.final_state.fault_reports {
            r.retries += rep.retries.len() as u64;
            for ev in &rep.retries {
                match ev.fault.as_str() {
                    "WatchdogTimeout" => r.watchdog += 1,
                    "EccMismatch" => r.ecc += 1,
                    "TransientLaunch" => r.launch += 1,
                    _ => {}
                }
            }
            r.cpu_fallbacks += u64::from(rep.degraded_to == Backend::CpuParallel.label());
            r.chunked += u64::from(
                rep.ladder
                    .last()
                    .is_some_and(|d| d.to.starts_with("chunked")),
            );
        }
    }
    r
}

/// Fleet, checkpoint, recovery and pressure metrics of the traced batch.
fn fleet_layers(out: &mut Outcome, t: &Tracer, kind: Kind, batch: &Batch) {
    let f = &batch.fleet;
    let ticks: Vec<f64> = t
        .durations("fleet.tick")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let mut submitted = BTreeMap::new();
    let mut parked = BTreeMap::new();
    let mut running = BTreeMap::new();
    let (mut queue_wait, mut park_wait) = (Vec::new(), Vec::new());
    let mut busy = 0u64;
    let (mut preemptions, mut migrations, mut quarantines, mut drains) = (0u64, 0u64, 0u64, 0u64);
    for e in f.events() {
        match e {
            FleetEvent::Submitted { tick, job, .. } => {
                submitted.insert(*job, *tick);
            }
            FleetEvent::Started { tick, job, .. } => {
                queue_wait.push((tick - submitted[job]) as f64);
                running.insert(*job, *tick);
            }
            FleetEvent::Resumed { tick, job, .. } => {
                if let Some(p) = parked.remove(job) {
                    park_wait.push((tick - p) as f64);
                }
                running.insert(*job, *tick);
            }
            FleetEvent::Preempted { tick, job, .. } => {
                preemptions += 1;
                parked.insert(*job, *tick);
                busy += running.remove(job).map_or(0, |s| tick - s + 1);
            }
            FleetEvent::Completed { tick, job, .. } => {
                busy += running.remove(job).map_or(0, |s| tick - s + 1);
            }
            FleetEvent::Migrated { .. } => migrations += 1,
            FleetEvent::HealthChanged { to, .. } if to.starts_with("quarantined") => {
                quarantines += 1
            }
            FleetEvent::Drained { .. } => drains += 1,
            _ => {}
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let n_ticks = f.tick_count();
    let l = &mut out.layers;
    l.insert("fleet.tick_p50_ms", median(&ticks));
    l.insert("fleet.tick_p90_ms", percentile(&ticks, 90.0));
    l.insert("fleet.ticks", n_ticks as f64);
    l.insert("fleet.submit_us", median_us(t, "fleet.submit"));
    l.insert("fleet.queue_full", batch.queue_full as f64);
    l.insert("fleet.queue_wait_ticks", mean(&queue_wait));
    l.insert("fleet.park_wait_ticks", mean(&park_wait));
    l.insert("fleet.preemptions", preemptions as f64);
    l.insert("fleet.migrations", migrations as f64);
    l.insert("fleet.quarantines", quarantines as f64);
    l.insert("fleet.drains", drains as f64);
    l.insert(
        "fleet.in_flight_ratio",
        busy as f64 / (n_ticks.max(1) * kind.devices() as u64) as f64,
    );

    // Every slice starts from a pre-slice checkpoint and every preemption
    // freezes one more: that is what the fleet encodes.
    let encodes = busy + preemptions;
    let each = t.counter("checkpoint.bytes_each") as f64 / f.completed().len().max(1) as f64;
    l.insert("checkpoint.encode_us", median_us(t, "checkpoint.encode"));
    l.insert("checkpoint.decode_us", median_us(t, "checkpoint.decode"));
    l.insert("checkpoint.bytes", each * encodes as f64);

    let r = recovery_counts(batch);
    l.insert("recovery.retries", r.retries as f64);
    l.insert("recovery.watchdog_kills", r.watchdog as f64);
    l.insert("recovery.ecc_mismatches", r.ecc as f64);
    l.insert("recovery.launch_failures", r.launch as f64);
    l.insert("recovery.cpu_fallbacks", r.cpu_fallbacks as f64);
    l.insert(
        "recovery.device_yield",
        (r.frames - r.cpu_fallbacks) as f64 / (r.frames + r.retries) as f64,
    );
    let launches: u64 = f.pool().devices().iter().map(|d| d.plan.launches()).sum();
    l.insert("pressure.chunked_frames", r.chunked as f64);
    l.insert(
        "pressure.chunk_launches",
        if kind.capacity().is_some() {
            launches as f64
        } else {
            0.0
        },
    );
}
