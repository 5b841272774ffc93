//! Per-layer metrics of replicated frames, from the recorded spans.
//!
//! Every replicated frame is a `sim.frame` span. Layer times are self times
//! summed over the traced segment and divided by the number of frames, so
//! the frame-layer times of one frame add up to `sim.frame_ms`.

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Frame-layer span names and the metric each one's self time feeds.
const FRAME_LAYERS: [(&str, &str); 7] = [
    ("kernels.build", "kernels.build_ms"),
    ("ir.lower", "ir.lower_ms"),
    ("layouts.upload", "layouts.upload_ms"),
    ("layouts.download", "layouts.download_ms"),
    ("exec.functional", "exec.functional_ms"),
    ("nbody.integrate", "nbody.integrate_ms"),
    ("nbody.cpu_fallback", "nbody.cpu_fallback_ms"),
];

/// Median duration of the spans named `name`, in microseconds.
pub fn median_us(t: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = t
        .durations(name)
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    median(&d)
}

/// Fill the frame-layer metrics of `out` from the `sim.frame` spans of `t`.
pub fn frame_layers(out: &mut Outcome, t: &Tracer) {
    let layers = t.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let frames = get("sim.frame").count.max(1) as f64;
    for (span, metric) in FRAME_LAYERS {
        out.layers.insert(metric, get(span).self_ms() / frames);
    }
    let frame_ms = get("sim.frame").wall_ns as f64 / 1e6 / frames;
    let residual = (get("sim.frame").self_ms() + get("backend.force").self_ms()) / frames;
    out.layers.insert("sim.frame_ms", frame_ms);
    out.layers.insert("sim.frame_residual_ms", residual);
    out.layers
        .insert("trace.coverage", 1.0 - residual / frame_ms);
    out.layers
        .insert("kernels.builds", get("kernels.build").count as f64);
    out.layers.insert("ir.lowers", get("ir.lower").count as f64);
    out.layers.insert(
        "layouts.upload_bytes",
        t.counter("layouts.upload_bytes") as f64,
    );
    let instr = t.counter("exec.warp_instructions") as f64;
    let exec_ns = get("exec.functional").self_ns as f64;
    out.layers
        .insert("exec.launches", t.counter("exec.launches") as f64);
    out.layers.insert("exec.warp_instructions", instr);
    out.layers
        .insert("exec.ns_per_warp_instr", exec_ns / instr.max(1.0));
    out.layers
        .insert("warp_minstr_per_s", instr / exec_ns.max(1.0) * 1e3);
    out.layers
        .insert("pressure.plan_us", median_us(t, "pressure.plan"));
    out.layers.insert(
        "pressure.chunked_frames",
        t.counter("pressure.chunked_frames") as f64,
    );
    out.layers.insert("trace.spans", t.spans().len() as f64);
}
