//! The metric catalog: every metric the benchmark reports, with its unit,
//! which direction is better, and which end-to-end metric it should move on
//! which workload. `BENCHMARK.json` lists the same names and units; the unit
//! test at the bottom keeps the two in step.

/// One catalogued metric.
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What it means, and (per-layer metrics) which end-to-end metric it
    /// should move on which workload, and where it should stay flat.
    pub target: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    target: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        target,
    }
}

/// The workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("single_run", "one n=1024 GpuSim Full simulation, closed loop, 1 executor thread: the functional interpreter is >=95% of each frame"),
    ("fleet_quiet", "120 small mixed-level jobs on a quiet 1-device pool: per-frame kernel build/lower and the scheduler dominate"),
    ("fleet_chaos", "100 n=256 jobs on a 12 KiB 2-device pool with launch failures and hangs (no bit flips: known ECC defect): retries, chunked frames, CPU fallback, migration"),
    ("paper_ladder", "synthesis on the naive AoS kernel plus the 6-level cost/model ladder at n=24576: timed engine and analyzer"),
];

/// End-to-end metrics, measured with tracing off, reported on every
/// workload. An "op" is a frame (single_run), a job (fleet_*) or one sweep:
/// synthesis plus the 6-level ladder (paper_ladder).
pub const END_TO_END: [Metric; 5] = [
    m(
        "setup_s",
        "s",
        "lower",
        "median set-up: inputs spawned and system objects built, up to the first timed op",
    ),
    m(
        "ops_per_s",
        "1/s",
        "higher",
        "ops completed per host second of measured wall time",
    ),
    m(
        "op_p50_ms",
        "ms",
        "lower",
        "median op latency (frame; job from batch start; sweep)",
    ),
    m("op_p90_ms", "ms", "lower", "p90 op latency"),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "process peak resident set (VmHWM) at the end of the timed region",
    ),
];

/// Per-layer metrics, reported by the traced run. Layer times are self
/// times per traced frame (`_ms`) unless named otherwise.
pub const PER_LAYER: [Metric; 71] = [
    m("kernels.build_ms", "ms", "lower", "jobs_per_s, job_p50_s on fleet_quiet; flat on single_run"),
    m("kernels.builds", "count", "lower", "same as kernels.build_ms"),
    m("ir.lower_ms", "ms", "lower", "jobs_per_s, job_p50_s on fleet_quiet; flat on single_run"),
    m("ir.lowers", "count", "lower", "same as ir.lower_ms"),
    m("layouts.upload_ms", "ms", "lower", "jobs_per_s on fleet_chaos (re-upload per retry and chunk); flat on single_run"),
    m("layouts.upload_bytes", "bytes", "lower", "same as layouts.upload_ms"),
    m("layouts.download_ms", "ms", "lower", "jobs_per_s on fleet_chaos; flat on single_run"),
    m("exec.functional_ms", "ms", "lower", "frames_per_s, frame_p50_ms on single_run; jobs_per_s on fleet_quiet"),
    m("exec.launches", "count", "lower", "same as exec.functional_ms"),
    m("exec.warp_instructions", "count", "lower", "same as exec.functional_ms"),
    m("exec.ns_per_warp_instr", "ns", "lower", "same as exec.functional_ms"),
    m("exec.timed_ms", "ms", "lower", "sweep_s on paper_ladder; flat on fleets and single_run"),
    m("exec.timed_warp_instructions", "count", "lower", "same as exec.timed_ms"),
    m("exec.timed_ns_per_warp_instr", "ns", "lower", "sweep_s, warp_minstr_per_s on paper_ladder"),
    m("nbody.integrate_ms", "ms", "lower", "step_leapfrog minus its force closure (single_run); flat unless nbody changes"),
    m("nbody.cpu_fallback_ms", "ms", "lower", "fleets: fallback frames x median accelerations_par; job_p90_s on fleet_chaos, 0 on fleet_quiet"),
    m("host.calib_ms", "ms", "lower", "host context: serial direct forces at n=1024; recorded, gates nothing"),
    m("host.nproc", "count", "higher", "host context: available host threads; recorded, gates nothing"),
    m("host.exec_threads", "count", "higher", "host context: executor threads (GPU_SIM_THREADS); recorded"),
    m("host.pool_devices", "count", "higher", "host context: devices in the fleet pool (0 outside fleets); recorded"),
    m("sim.frame_ms", "ms", "lower", "job_p50_s on both fleets; frame_p50_ms on single_run"),
    m("sim.frame_residual_ms", "ms", "lower", "frame minus replicated children (finite scan, particle conversion, glue)"),
    m("sim.new_ms", "ms", "lower", "job_p50_s on both fleets; setup_s on single_run"),
    m("sim.resume_ms", "ms", "lower", "job_p50_s on fleet_chaos (migrations)"),
    m("fleet.tick_p50_ms", "ms", "lower", "jobs_per_s, job_p90_s on both fleets; absent elsewhere"),
    m("fleet.tick_p90_ms", "ms", "lower", "same as fleet.tick_p50_ms"),
    m("fleet.ticks", "count", "lower", "same as fleet.tick_p50_ms"),
    m("fleet.submit_us", "us", "lower", "median Fleet::submit call; jobs_per_s on both fleets"),
    m("fleet.queue_full", "count", "lower", "QueueFull refusals retried next tick"),
    m("fleet.queue_wait_ticks", "ticks", "lower", "mean Submitted -> Started; job_p90_s on both fleets"),
    m("fleet.park_wait_ticks", "ticks", "lower", "mean Preempted -> Resumed; job_p90_s on fleet_chaos"),
    m("fleet.in_flight_ratio", "fraction", "higher", "busy device-ticks / (ticks x devices); jobs_per_s on both fleets"),
    m("fleet.preemptions", "count", "lower", "jobs_per_s on fleet_chaos"),
    m("fleet.migrations", "count", "lower", "jobs_per_s on fleet_chaos"),
    m("fleet.quarantines", "count", "lower", "jobs_per_s on fleet_chaos; 0 on fleet_quiet"),
    m("fleet.drains", "count", "lower", "jobs_per_s on fleet_chaos; 0 on fleet_quiet"),
    m("checkpoint.encode_us", "us", "lower", "median Checkpoint::to_bytes of a completed state; jobs_per_s on fleet_chaos"),
    m("checkpoint.decode_us", "us", "lower", "median Checkpoint::from_bytes; jobs_per_s on fleet_chaos"),
    m("checkpoint.bytes", "bytes", "lower", "bytes encoded by the fleet (slice, preemption checkpoints)"),
    m("recovery.retries", "count", "lower", "jobs_per_s, job_p90_s on fleet_chaos; 0 on fleet_quiet"),
    m("recovery.watchdog_kills", "count", "lower", "same as recovery.retries"),
    m("recovery.ecc_mismatches", "count", "lower", "0 on every workload until fleet_chaos injects bit flips again"),
    m("recovery.launch_failures", "count", "lower", "same as recovery.retries"),
    m("recovery.cpu_fallbacks", "count", "lower", "job_p90_s on fleet_chaos; 0 on fleet_quiet"),
    m("recovery.device_yield", "fraction", "higher", "frames finished on device / device attempts; 1 on fleet_quiet"),
    m("pressure.plan_us", "us", "lower", "median plan_frame; jobs_per_s on fleet_chaos"),
    m("pressure.chunked_frames", "count", "lower", "jobs_per_s on fleet_chaos; 0 on fleet_quiet"),
    m("pressure.chunk_launches", "count", "lower", "device launches on the chunked rung; jobs_per_s on fleet_chaos"),
    m("analyze.synth_ms", "ms", "lower", "sweep_s on paper_ladder; 0 elsewhere"),
    m("analyze.synth_candidates", "count", "lower", "candidates priced by synthesis"),
    m("analyze.synth_proved_ratio", "fraction", "higher", "suggestions proved / (proved + skipped)"),
    m("analyze.cost_ms", "ms", "lower", "cost::estimate over the 6 levels; sweep_s on paper_ladder"),
    m("analyze.predicted_cycles_per_pair", "cycles", "lower", "static cycles per pair of the winning level; moves model_error only if the model changes"),
    m("device.upload_ms", "ms", "lower", "modeled 8800 GTX upload of the winning level; moves only with the modeled design"),
    m("device.kernel_ms", "ms", "lower", "modeled kernel time; device_frame_ms, ladder_speedup"),
    m("device.download_ms", "ms", "lower", "modeled download time"),
    m("device.cycles", "cycles", "lower", "modeled kernel cycles (slowest SM)"),
    m("device.cycles_per_pair", "cycles", "lower", "SM-cycles per pairwise interaction"),
    m("device.transactions", "count", "lower", "global-memory transactions, whole grid"),
    m("device.bus_bytes", "bytes", "lower", "DRAM bus bytes, whole grid"),
    m("device.warp_instructions", "count", "lower", "warp instructions issued, whole grid"),
    m("device.regs", "count", "lower", "registers per thread"),
    m("device.occupancy", "fraction", "higher", "resident warps / SM warp capacity"),
    m("device_frame_ms", "ms", "lower", "Fig. 12 frame (upload + kernel + download) of the winning level at n=24576"),
    m("ladder_speedup", "x", "higher", "modeled kernel speedup of the winning level over the AoS baseline"),
    m("model_error", "fraction", "lower", "|predicted - measured speedup| / measured"),
    m("failed_ratio", "fraction", "lower", "ops failed / attempted; expected 0"),
    m("warp_minstr_per_s", "M/s", "higher", "simulated warp instructions per host second in the traced frames"),
    m("trace.overhead_ratio", "x", "lower", "traced / untraced wall per op"),
    m("trace.coverage", "fraction", "higher", "replicated layer time / frame wall; >=0.95 on single_run"),
    m("trace.spans", "count", "lower", "spans recorded by the traced segment"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units of one section of `BENCHMARK.json`, in order.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        let mut out = Vec::new();
        let mut rest = &body[..end];
        while let Some(i) = rest.find("\"name\": \"") {
            rest = &rest[i + 9..];
            let name = rest[..rest.find('"').unwrap()].to_string();
            let unit = rest
                .find("\"unit\": \"")
                .map(|u| {
                    let r = &rest[u + 9..];
                    r[..r.find('"').unwrap()].to_string()
                })
                .unwrap_or_default();
            out.push((name, unit));
        }
        out
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let want = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), want(&END_TO_END));
        assert_eq!(section(&json, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.0.to_string()));
    }
}
