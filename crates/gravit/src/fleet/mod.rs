//! Supervised multi-job runtime over a pool of simulated devices.
//!
//! This is the ROADMAP's "faulting device drains its queue" made concrete:
//! every robustness primitive of the earlier layers — typed `DeviceError`s,
//! seeded transient faults, watchdogs, CRC checkpoint/resume, memory-budget
//! admission — becomes a *per-job scheduling signal*:
//!
//! * **Typed admission** ([`Fleet::submit`]): a job is validated and billed
//!   against its tenant's [`MemoryBudget`] *before* anything touches a
//!   device; refusal is a typed [`Rejected`], never a partial upload.
//! * **Health supervision** ([`health`]): transient faults and watchdog
//!   kills strike the hosting device through the pure `Healthy → Suspect →
//!   Quarantined → Probation → Healthy` machine; memory-pressure
//!   degradations do not (an undersized card is poor, not sick).
//! * **Checkpoint-backed preemption and migration**: a running job is frozen
//!   at slice boundaries into an in-memory `GRAVITCKPT` frame (same CRC
//!   framing as the on-disk format) and resumed on any admitting device —
//!   bit-identical to the uninterrupted run, because every backend and every
//!   degradation rung computes bit-identical physics. Quarantining a device
//!   preempts and migrates its in-flight job instead of failing it, and
//!   drains its queue into the pool-level parked list.
//! * **Deterministic scheduling** ([`schedule`]): placement and preemption
//!   draws are pure functions of `(seed, job id, tick)`, and slices merge in
//!   ascending device order, so the whole fleet run — event log, fault
//!   history, every completed trajectory — replays bit-for-bit from its
//!   seed, regardless of how many worker threads ran the slices.
//!
//! The no-job-lost invariant is structural: admitted jobs run under
//! [`FaultPolicy::FallbackToCpu`] (a step cannot error), worker panics are
//! contained by restoring the pre-slice checkpoint, and preempted or
//! drained jobs always land in the parked list that assignment empties
//! first.

pub mod health;
pub mod job;
pub mod schedule;

pub use health::{Health, HealthPolicy};
pub use job::{CompletedJob, JobSpec, Rejected};
pub use schedule::SchedulePlan;

use crate::backend::FaultPolicy;
use crate::checkpoint::Checkpoint;
use crate::sim::Simulation;
use gpu_sim::mem::MemoryBudget;
use gpu_sim::pool::DevicePool;
use gpu_sim::transient::TransientFaultPlan;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fleet-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Bounded per-device queue length; a submission finding every
    /// admitting queue full is rejected as [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Steps per scheduling slice (the preemption granularity).
    pub slice_steps: u64,
    /// Per-tenant device-memory budget in bytes (`None` = unmetered).
    pub tenant_budget: Option<u64>,
    /// Health-machine thresholds.
    pub health: HealthPolicy,
    /// Per-slice seeded preemption probability.
    pub preempt_rate: f64,
    /// The fleet seed every scheduling draw derives from.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            queue_capacity: 8,
            slice_steps: 4,
            tenant_budget: None,
            health: HealthPolicy::default(),
            preempt_rate: 0.05,
            seed: 42,
        }
    }
}

/// One entry of a device's ordered fault history.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultStamp {
    /// Tick the fault surfaced.
    pub tick: u64,
    /// Job that was running.
    pub job: u64,
    /// Fault class (`FaultKind::name`, or `worker-panic`).
    pub fault: String,
    /// Human-readable detail.
    pub detail: String,
    /// Whether the fault counted as a health strike.
    pub strike: bool,
}

/// The replayable record of everything the fleet decided. Two runs with the
/// same seed, pool and submissions produce identical event logs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FleetEvent {
    /// A job was admitted onto a device queue.
    Submitted {
        /// Tick of the decision.
        tick: u64,
        /// Job id.
        job: u64,
        /// Queue the job landed on.
        device: usize,
    },
    /// A submission was refused (reason label from [`Rejected::label`]).
    RejectedSubmit {
        /// Tick of the decision.
        tick: u64,
        /// Job id.
        job: u64,
        /// Machine-stable rejection label.
        reason: String,
    },
    /// A fresh job began running.
    Started {
        /// Tick of the decision.
        tick: u64,
        /// Job id.
        job: u64,
        /// Hosting device.
        device: usize,
    },
    /// A frozen job resumed from its in-memory checkpoint.
    Resumed {
        /// Tick of the decision.
        tick: u64,
        /// Job id.
        job: u64,
        /// Hosting device.
        device: usize,
        /// Step count the checkpoint carried.
        at_step: u64,
    },
    /// A resumed job landed on a different device than its last slice.
    Migrated {
        /// Tick of the decision.
        tick: u64,
        /// Job id.
        job: u64,
        /// Device of the previous slice.
        from: usize,
        /// New hosting device.
        to: usize,
    },
    /// A running job was checkpointed and re-queued at a slice boundary.
    Preempted {
        /// Tick of the decision.
        tick: u64,
        /// Job id.
        job: u64,
        /// Device the job was preempted off.
        device: usize,
        /// Steps completed at the preemption boundary.
        at_step: u64,
    },
    /// A device fault surfaced during a slice.
    Faulted {
        /// Tick the fault surfaced.
        tick: u64,
        /// Hosting device.
        device: usize,
        /// Job that was running.
        job: u64,
        /// Fault class name.
        fault: String,
        /// Whether it counted as a health strike.
        strike: bool,
    },
    /// A device's health state changed.
    HealthChanged {
        /// Tick of the transition.
        tick: u64,
        /// Device.
        device: usize,
        /// Previous state label.
        from: String,
        /// New state label.
        to: String,
    },
    /// A quarantined device's queue was drained into the parked list.
    Drained {
        /// Tick of the drain.
        tick: u64,
        /// Device.
        device: usize,
        /// Jobs moved, in queue order.
        jobs: Vec<u64>,
    },
    /// A job reached its step target.
    Completed {
        /// Tick of completion.
        tick: u64,
        /// Job id.
        job: u64,
        /// Device that ran the final slice.
        device: usize,
        /// Total steps taken.
        steps: u64,
    },
}

/// A job waiting to (re)start: fresh (`frozen == None`) or preempted with
/// its CRC-framed in-memory checkpoint.
#[derive(Debug, Clone)]
struct PendingJob {
    spec: JobSpec,
    frozen: Option<Vec<u8>>,
    devices: Vec<usize>,
    migrations: u32,
    reports_seen: usize,
}

/// A job currently owning a device.
struct RunningJob {
    spec: JobSpec,
    sim: Simulation,
    devices: Vec<usize>,
    migrations: u32,
    reports_seen: usize,
}

/// What one device slice produced.
enum SliceRun {
    /// The slice completed (panic-free); the job may have finished.
    /// Boxed: a `RunningJob` carries a whole `Simulation`.
    Done(Box<RunningJob>),
    /// The worker panicked; the job was restored from its pre-slice
    /// checkpoint and the device takes a strike.
    Broken {
        pending: Box<PendingJob>,
        plan: TransientFaultPlan,
        what: String,
    },
}

struct DeviceState {
    health: Health,
    queue: VecDeque<PendingJob>,
    running: Option<RunningJob>,
    fault_history: Vec<FaultStamp>,
}

/// The supervised runtime: pool + queues + health + event log.
pub struct Fleet {
    cfg: FleetConfig,
    pool: DevicePool,
    schedule: SchedulePlan,
    devices: Vec<DeviceState>,
    parked: VecDeque<PendingJob>,
    tenants: BTreeMap<String, MemoryBudget>,
    tick: u64,
    accepted: u64,
    events: Vec<FleetEvent>,
    completed: Vec<CompletedJob>,
}

impl Fleet {
    /// A fleet over `pool`, with every scheduling draw seeded from
    /// `cfg.seed`.
    pub fn new(cfg: FleetConfig, pool: DevicePool) -> Fleet {
        let devices = (0..pool.len())
            .map(|_| DeviceState {
                health: Health::Healthy,
                queue: VecDeque::new(),
                running: None,
                fault_history: Vec::new(),
            })
            .collect();
        Fleet {
            schedule: SchedulePlan::new(cfg.seed, cfg.preempt_rate),
            cfg,
            pool,
            devices,
            parked: VecDeque::new(),
            tenants: BTreeMap::new(),
            tick: 0,
            accepted: 0,
            events: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Admission control: validate, bill the tenant budget, pick a queue.
    /// Everything happens before any device memory is touched; a refusal is
    /// a typed [`Rejected`] carrying the exact reason (and, for budget
    /// refusals, the typed `OutOfMemory` of the rejected reservation).
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), Rejected> {
        if let Err(e) = spec.config.validate() {
            return self.refuse(spec.id, Rejected::InvalidConfig(e));
        }
        let admitting: Vec<usize> = (0..self.devices.len())
            .filter(|&d| self.devices[d].health.admits())
            .collect();
        if admitting.is_empty() {
            return self.refuse(spec.id, Rejected::NoAdmittingDevice);
        }
        let cost = spec.device_cost();
        if let Some(budget) = self.cfg.tenant_budget {
            let ledger = self
                .tenants
                .entry(spec.tenant.clone())
                .or_insert_with(|| MemoryBudget::new(budget));
            if let Err(error) = ledger.reserve(cost) {
                let tenant = spec.tenant.clone();
                return self.refuse(spec.id, Rejected::TenantBudget { tenant, error });
            }
        }
        let open: Vec<usize> = admitting
            .into_iter()
            .filter(|&d| self.devices[d].queue.len() < self.cfg.queue_capacity)
            .collect();
        if open.is_empty() {
            // Undo the reservation: a refused job must not leak budget.
            self.release_tenant(&spec);
            return self.refuse(
                spec.id,
                Rejected::QueueFull {
                    capacity: self.cfg.queue_capacity,
                },
            );
        }
        let device = open[self.schedule.place(spec.id, self.tick, open.len())];
        self.events.push(FleetEvent::Submitted {
            tick: self.tick,
            job: spec.id,
            device,
        });
        self.devices[device].queue.push_back(PendingJob {
            spec,
            frozen: None,
            devices: Vec::new(),
            migrations: 0,
            reports_seen: 0,
        });
        self.accepted += 1;
        Ok(())
    }

    fn refuse(&mut self, job: u64, r: Rejected) -> Result<(), Rejected> {
        self.events.push(FleetEvent::RejectedSubmit {
            tick: self.tick,
            job,
            reason: r.label().into(),
        });
        Err(r)
    }

    /// One scheduling round: release elapsed quarantines, assign work,
    /// run every busy device's slice in parallel, then merge outcomes in
    /// ascending device order (the determinism barrier).
    pub fn tick(&mut self) {
        let now = self.tick;
        // 1. Quarantine release.
        for d in 0..self.devices.len() {
            let h0 = self.devices[d].health;
            let h1 = health::release_quarantine(h0, &self.cfg.health, now);
            if h1 != h0 {
                self.set_health(d, h0, h1, now);
            }
        }
        // 2. Assignment, ascending device id; parked (preempted/drained)
        // jobs take priority over fresh queue entries so a migrated job is
        // never starved by new arrivals.
        for d in 0..self.devices.len() {
            if !self.devices[d].health.admits() || self.devices[d].running.is_some() {
                continue;
            }
            let Some(pending) = self
                .parked
                .pop_front()
                .or_else(|| self.devices[d].queue.pop_front())
            else {
                continue;
            };
            self.start_pending(d, pending, now);
        }
        // 3. Parallel slices: one worker per busy device. Each sim is
        // independent, so thread interleaving cannot affect results; the
        // merge below is ordered by device id.
        let slice = self.cfg.slice_steps.max(1);
        let mut slots: Vec<(usize, RunningJob, TransientFaultPlan)> = Vec::new();
        for d in 0..self.devices.len() {
            if let Some(mut rj) = self.devices[d].running.take() {
                let plan = self
                    .pool
                    .device(d)
                    .map(|dev| dev.plan.clone())
                    .unwrap_or_else(TransientFaultPlan::quiet);
                rj.sim.set_transient_faults(plan.clone());
                slots.push((d, rj, plan));
            }
        }
        let outcomes: Vec<(usize, SliceRun)> = std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .into_iter()
                .map(|(d, rj, plan)| scope.spawn(move || (d, run_slice(rj, plan, slice))))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // run_slice itself contains the panic; a join failure
                    // here would mean the containment panicked, which it
                    // cannot (it only moves plain data).
                    Err(_) => unreachable!("slice workers contain their panics"),
                })
                .collect()
        });
        // 4. Deterministic merge, ascending device id (spawn order).
        for (d, outcome) in outcomes {
            self.merge_slice(d, outcome, now);
        }
        self.tick += 1;
    }

    /// Start (or resume) a pending job on device `d`.
    fn start_pending(&mut self, d: usize, mut pending: PendingJob, now: u64) {
        let spec = pending.spec.clone();
        let mut cfg = spec.config.clone();
        // Admitted jobs must be unlosable: a device fault degrades the frame
        // (retry → ladder → CPU), it never aborts the simulation.
        cfg.fault_policy = FaultPolicy::FallbackToCpu;
        let dev_spec = self
            .pool
            .device(d)
            .map(|dev| dev.spec.clone())
            .unwrap_or_else(gpu_sim::pool::DeviceSpec::quiet);
        // The tighter of the job's own cap and the device's applies.
        cfg.recovery.device_capacity = match (cfg.recovery.device_capacity, dev_spec.capacity) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        cfg.recovery.watchdog_instructions = cfg
            .recovery
            .watchdog_instructions
            .or(dev_spec.watchdog_instructions);
        let sim = match &pending.frozen {
            Some(bytes) => {
                // Bytes we framed ourselves at the preemption boundary:
                // CRC-verified on the way back in, and the config differs
                // only in recovery knobs, which compatibility ignores.
                let ckpt = Checkpoint::from_bytes(bytes)
                    .expect("in-memory checkpoint framed at preemption verifies");
                let sim = Simulation::resume(cfg, &ckpt)
                    .expect("preempted job resumes under FallbackToCpu");
                self.events.push(FleetEvent::Resumed {
                    tick: now,
                    job: spec.id,
                    device: d,
                    at_step: sim.steps,
                });
                if let Some(&last) = pending.devices.last() {
                    if last != d {
                        pending.migrations += 1;
                        self.events.push(FleetEvent::Migrated {
                            tick: now,
                            job: spec.id,
                            from: last,
                            to: d,
                        });
                    }
                }
                sim
            }
            None => {
                let sim =
                    Simulation::new(cfg).expect("validated config constructs under FallbackToCpu");
                self.events.push(FleetEvent::Started {
                    tick: now,
                    job: spec.id,
                    device: d,
                });
                sim
            }
        };
        pending.devices.push(d);
        self.devices[d].running = Some(RunningJob {
            spec,
            sim,
            devices: pending.devices,
            migrations: pending.migrations,
            reports_seen: pending.reports_seen,
        });
    }

    /// Fold one device's slice outcome back into the fleet.
    fn merge_slice(&mut self, d: usize, outcome: SliceRun, now: u64) {
        match outcome {
            SliceRun::Done(mut rj) => {
                // Thread the advanced fault plan back onto the device so its
                // launch counter spans jobs.
                if let Some(plan) = rj.sim.take_transient_faults() {
                    if let Some(dev) = self.pool.device_mut(d) {
                        dev.plan = plan;
                    }
                }
                // New fault reports → history stamps; transient trouble (or
                // anything that needed retries) strikes the device. Pure
                // pressure degradations (planned OOM ladder, no retries) do
                // not: an undersized device is poor, not sick.
                let mut strikes = 0u32;
                for rep in &rj.sim.fault_reports[rj.reports_seen..] {
                    let strike = rep.error.kind.is_transient() || !rep.retries.is_empty();
                    strikes += u32::from(strike);
                    let stamp = FaultStamp {
                        tick: now,
                        job: rj.spec.id,
                        fault: rep.error.kind.name().to_string(),
                        detail: rep.error.to_string(),
                        strike,
                    };
                    self.events.push(FleetEvent::Faulted {
                        tick: now,
                        device: d,
                        job: rj.spec.id,
                        fault: stamp.fault.clone(),
                        strike,
                    });
                    self.devices[d].fault_history.push(stamp);
                }
                rj.reports_seen = rj.sim.fault_reports.len();
                let h0 = self.devices[d].health;
                let h1 = health::after_slice(h0, &self.cfg.health, strikes, now);
                if h1 != h0 {
                    self.set_health(d, h0, h1, now);
                }
                let finished = rj.sim.steps >= rj.spec.steps;
                if finished {
                    self.release_tenant(&rj.spec);
                    self.events.push(FleetEvent::Completed {
                        tick: now,
                        job: rj.spec.id,
                        device: d,
                        steps: rj.sim.steps,
                    });
                    self.completed.push(CompletedJob {
                        id: rj.spec.id,
                        tenant: rj.spec.tenant.clone(),
                        final_state: rj.sim.checkpoint(),
                        devices: rj.devices,
                        migrations: rj.migrations,
                        completed_tick: now,
                    });
                } else if !h1.admits() || self.schedule.preempts(rj.spec.id, now) {
                    // Quarantine migrates the job off the sick device;
                    // otherwise this is the seeded preemption draw. Either
                    // way the job freezes into a CRC-framed checkpoint and
                    // parks for the next admitting device.
                    self.events.push(FleetEvent::Preempted {
                        tick: now,
                        job: rj.spec.id,
                        device: d,
                        at_step: rj.sim.steps,
                    });
                    self.parked.push_back(PendingJob {
                        frozen: Some(rj.sim.checkpoint().to_bytes()),
                        spec: rj.spec,
                        devices: rj.devices,
                        migrations: rj.migrations,
                        reports_seen: rj.reports_seen,
                    });
                } else {
                    self.devices[d].running = Some(*rj);
                }
                if !self.devices[d].health.admits() {
                    self.drain_queue(d, now);
                }
            }
            SliceRun::Broken {
                pending,
                plan,
                what,
            } => {
                // The worker panicked: the job was rebuilt from its
                // pre-slice checkpoint (no partial slice escapes), the
                // device plan rewinds to its pre-slice counter, and the
                // device takes one strike.
                if let Some(dev) = self.pool.device_mut(d) {
                    dev.plan = plan;
                }
                let stamp = FaultStamp {
                    tick: now,
                    job: pending.spec.id,
                    fault: "worker-panic".into(),
                    detail: what,
                    strike: true,
                };
                self.events.push(FleetEvent::Faulted {
                    tick: now,
                    device: d,
                    job: pending.spec.id,
                    fault: stamp.fault.clone(),
                    strike: true,
                });
                self.devices[d].fault_history.push(stamp);
                let h0 = self.devices[d].health;
                let h1 = health::after_slice(h0, &self.cfg.health, 1, now);
                if h1 != h0 {
                    self.set_health(d, h0, h1, now);
                }
                self.events.push(FleetEvent::Preempted {
                    tick: now,
                    job: pending.spec.id,
                    device: d,
                    at_step: pending
                        .frozen
                        .as_deref()
                        .and_then(|b| Checkpoint::from_bytes(b).ok())
                        .map(|c| c.steps)
                        .unwrap_or(0),
                });
                self.parked.push_back(*pending);
                if !self.devices[d].health.admits() {
                    self.drain_queue(d, now);
                }
            }
        }
    }

    /// Move every queued job of a quarantined device to the parked list.
    fn drain_queue(&mut self, d: usize, now: u64) {
        if self.devices[d].queue.is_empty() {
            return;
        }
        let jobs: Vec<u64> = self.devices[d].queue.iter().map(|p| p.spec.id).collect();
        let drained: Vec<PendingJob> = self.devices[d].queue.drain(..).collect();
        self.parked.extend(drained);
        self.events.push(FleetEvent::Drained {
            tick: now,
            device: d,
            jobs,
        });
    }

    fn set_health(&mut self, d: usize, from: Health, to: Health, now: u64) {
        self.devices[d].health = to;
        self.events.push(FleetEvent::HealthChanged {
            tick: now,
            device: d,
            from: from.label(),
            to: to.label(),
        });
    }

    fn release_tenant(&mut self, spec: &JobSpec) {
        if self.cfg.tenant_budget.is_some() {
            if let Some(ledger) = self.tenants.get_mut(&spec.tenant) {
                ledger.release(spec.device_cost());
            }
        }
    }

    /// Ticks taken so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Jobs admitted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Jobs admitted but not yet completed (queued + parked + running).
    pub fn in_flight(&self) -> usize {
        self.parked.len()
            + self
                .devices
                .iter()
                .map(|d| d.queue.len() + usize::from(d.running.is_some()))
                .sum::<usize>()
    }

    /// Whether the fleet has nothing left to do.
    pub fn idle(&self) -> bool {
        self.in_flight() == 0
    }

    /// The full event log, in decision order.
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }

    /// Completed jobs, in completion order.
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// A device's current health.
    pub fn device_health(&self, d: usize) -> Option<Health> {
        self.devices.get(d).map(|s| s.health)
    }

    /// A device's ordered fault history.
    pub fn fault_history(&self, d: usize) -> &[FaultStamp] {
        self.devices
            .get(d)
            .map(|s| s.fault_history.as_slice())
            .unwrap_or(&[])
    }

    /// A device's current queue length.
    pub fn queue_len(&self, d: usize) -> usize {
        self.devices.get(d).map(|s| s.queue.len()).unwrap_or(0)
    }

    /// The underlying pool (device specs and advanced fault plans).
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }
}

/// Run one slice of `slice` steps on a worker thread, containing panics: a
/// panicking worker returns the job rebuilt from its pre-slice checkpoint
/// and the device's pre-slice fault plan, so nothing partial ever escapes
/// into the pool. The checkpoint is encoded only on that path: a slice that
/// completes drops it unencoded.
fn run_slice(mut rj: RunningJob, pre_plan: TransientFaultPlan, slice: u64) -> SliceRun {
    let pre = rj.sim.checkpoint();
    let spec = rj.spec.clone();
    let devices = rj.devices.clone();
    let migrations = rj.migrations;
    let reports_seen = rj.reports_seen;
    let todo = slice.min(spec.steps.saturating_sub(rj.sim.steps));
    let result = catch_unwind(AssertUnwindSafe(move || {
        for _ in 0..todo {
            // FallbackToCpu: a step cannot error. If it somehow does, that
            // is a contract violation — contain it like a panic.
            if let Err(e) = rj.sim.step() {
                panic!("step errored under FallbackToCpu: {e}");
            }
        }
        rj
    }));
    match result {
        Ok(rj) => SliceRun::Done(Box::new(rj)),
        Err(panic) => {
            let what = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "worker panicked".into());
            SliceRun::Broken {
                pending: Box::new(PendingJob {
                    spec,
                    frozen: Some(pre.to_bytes()),
                    devices,
                    migrations,
                    reports_seen,
                }),
                plan: pre_plan,
                what,
            }
        }
    }
}

/// Outcome of [`drive`]: how long the drain took and which submissions were
/// terminally rejected (every one carries its typed reason).
#[derive(Debug)]
pub struct DriveOutcome {
    /// Ticks the drive spent.
    pub ticks: u64,
    /// Terminal rejections, in submission order.
    pub rejected: Vec<(JobSpec, Rejected)>,
}

/// Feed `jobs` into the fleet and tick until everything drains. Transient
/// refusals (full queues, fully-quarantined pool) are retried on later
/// ticks; terminal ones (invalid config, tenant over budget) are returned
/// typed. Errs if the fleet fails to drain within `max_ticks`.
pub fn drive(
    fleet: &mut Fleet,
    jobs: Vec<JobSpec>,
    max_ticks: u64,
) -> Result<DriveOutcome, String> {
    let mut pending: VecDeque<JobSpec> = jobs.into();
    let mut rejected = Vec::new();
    let start = fleet.tick_count();
    loop {
        while let Some(spec) = pending.pop_front() {
            match fleet.submit(spec.clone()) {
                Ok(()) => {}
                Err(Rejected::QueueFull { .. }) | Err(Rejected::NoAdmittingDevice) => {
                    pending.push_front(spec);
                    break;
                }
                Err(r) => rejected.push((spec, r)),
            }
        }
        if pending.is_empty() && fleet.idle() {
            return Ok(DriveOutcome {
                ticks: fleet.tick_count() - start,
                rejected,
            });
        }
        if fleet.tick_count() - start >= max_ticks {
            return Err(format!(
                "fleet did not drain within {max_ticks} ticks ({} in flight, {} unsubmitted)",
                fleet.in_flight(),
                pending.len()
            ));
        }
        fleet.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::config::{Integrator, SimConfig};
    use gpu_kernels::force::OptLevel;
    use gpu_sim::transient::FaultRates;
    use gpu_sim::DriverModel;

    /// A worker panic must hand back the job exactly as it stood before the
    /// slice: the frozen bytes decode to the pre-slice checkpoint and the
    /// device keeps its pre-slice fault plan.
    #[test]
    fn a_panicking_slice_restores_the_pre_slice_job_and_plan() {
        let config = SimConfig {
            n: 32,
            integrator: Integrator::Euler,
            backend: Backend::GpuSim {
                level: OptLevel::Full,
                driver: DriverModel::Cuda10,
            },
            ..SimConfig::default()
        };
        let spec = JobSpec {
            id: 7,
            tenant: "t".into(),
            config: config.clone(),
            steps: 6,
        };
        let mut sim = Simulation::new(config).expect("valid config");
        let rates = FaultRates {
            bit_flip: 0.0,
            launch_failure: 0.5,
            hang: 0.0,
        };
        let plan = TransientFaultPlan::new(11, rates);
        sim.set_transient_faults(plan.clone());
        sim.step().expect("a healthy step under FallbackToCpu");
        // Accelerations that no longer match the bodies make the next step
        // fail its integrator's length assertion: a panicking worker.
        sim.accels.truncate(1);
        let pre = sim.checkpoint();
        let rj = RunningJob {
            spec: spec.clone(),
            sim,
            devices: vec![1, 0],
            migrations: 1,
            reports_seen: 0,
        };
        match run_slice(rj, plan.clone(), 3) {
            SliceRun::Broken {
                pending,
                plan: back,
                what,
            } => {
                let frozen = pending.frozen.as_deref().expect("a frozen checkpoint");
                assert_eq!(frozen, pre.to_bytes().as_slice());
                assert_eq!(Checkpoint::from_bytes(frozen).expect("decodes"), pre);
                assert_eq!(back, plan);
                assert_eq!(pending.spec, spec);
                assert_eq!(pending.devices, vec![1, 0]);
                assert_eq!(pending.migrations, 1);
                assert!(what.contains("assertion"), "{what}");
            }
            SliceRun::Done(_) => panic!("the slice should have panicked"),
        }
    }
}
