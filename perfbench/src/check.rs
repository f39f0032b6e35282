//! Output checks: a served reply must be well formed, and a checked one
//! must equal what the shadow engine computes in process for the same
//! request — plan, iteration count, simulated time and weights, bit for
//! bit.

use ml4all::{Engine, Trained};
use ml4all_serve::{f64_from_bits_hex, WireTrained};

/// A completed reply carries a plan, an iteration count, a simulated
/// time and a weight vector of the model's width.
pub fn well_formed(reply: &WireTrained, dims: usize) -> Result<(), String> {
    let bits = reply.weights_bits.as_ref().map_or(0, Vec::len);
    if reply.plan.is_none() || reply.iterations.is_none() || reply.sim_time_s.is_none() {
        return Err(format!(
            "job {} reply lacks plan/iterations/sim time",
            reply.job
        ));
    }
    if bits != dims {
        return Err(format!(
            "job {} reply carries {bits} weights for a {dims}-feature model",
            reply.job
        ));
    }
    Ok(())
}

/// `reply` equals the in-process result `trained` of the same request,
/// whose model `shadow` holds.
pub fn same_training(
    reply: &WireTrained,
    trained: &Trained,
    shadow: &Engine,
) -> Result<(), String> {
    let summary = &trained.summary;
    let plan = summary.plan.to_string();
    let mismatch = |what: &str, served: String, local: String| {
        Err(format!(
            "job {} {what}: served {served}, in process {local}",
            reply.job
        ))
    };
    if reply.plan.as_deref() != Some(plan.as_str()) {
        return mismatch("plan", format!("{:?}", reply.plan), plan);
    }
    if reply.iterations != Some(summary.iterations) {
        return mismatch(
            "iterations",
            format!("{:?}", reply.iterations),
            summary.iterations.to_string(),
        );
    }
    if reply.sim_time_s.map(f64::to_bits) != Some(summary.sim_time_s.to_bits()) {
        return mismatch(
            "sim_time_s",
            format!("{:?}", reply.sim_time_s),
            summary.sim_time_s.to_string(),
        );
    }
    let local = shadow
        .model(&trained.name)
        .ok_or_else(|| format!("shadow lost model {}", trained.name))?;
    let served: Option<Vec<u64>> = reply.weights_bits.as_ref().and_then(|bits| {
        bits.iter()
            .map(|b| f64_from_bits_hex(b).map(f64::to_bits))
            .collect()
    });
    let local: Vec<u64> = local
        .weights
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    if served.as_ref() != Some(&local) {
        return Err(format!(
            "job {} weights differ from the in-process model",
            reply.job
        ));
    }
    Ok(())
}
