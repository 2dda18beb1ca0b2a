//! Replay micro-drivers: each lower layer measured in isolation.
//!
//! This change may not touch the crates, so a layer's cost inside a pass
//! cannot be observed directly. Instead each micro-driver calls the
//! crate's public hot-path functions with inputs shaped like the
//! workloads (RTP-sized frames, the star topology's four hops, the
//! 13-message call ladder, N = 10⁶ subscribers), in [`BATCHES`] batches
//! under `replay.<metric>` spans, and reports the unit cost: host
//! nanoseconds per operation, minimum over batches with the median
//! beside it. The traced run multiplies unit costs by the exact work
//! counts of the workload's own results. Limits: a micro-driver runs
//! with warm caches and no interleaving with other layers, so it bounds
//! a layer's cost from below; what it cannot explain is `World` glue.

mod media;
mod signalling;
mod small;

use crate::stats;
use crate::trace::{count_allocs, Tracer};
use std::time::Instant;

/// Batches per unit cost.
pub const BATCHES: usize = 10;

/// Operations per batch: full size when optimised, a tenth in debug
/// builds so the unit tests stay quick.
fn ops(n: u64) -> u64 {
    if cfg!(debug_assertions) {
        n / 10
    } else {
        n
    }
}

/// Unit costs by metric name.
#[derive(Debug, Default)]
pub struct UnitCosts {
    /// `(metric, minimum over batches, median over batches)`.
    entries: Vec<(&'static str, f64, f64)>,
}

impl UnitCosts {
    /// Record per-operation samples (one per batch) for `metric`.
    fn record(&mut self, metric: &'static str, samples: &[f64]) {
        self.entries
            .push((metric, stats::min(samples), stats::median(samples)));
    }

    /// Record a single exact reading (an allocation count).
    fn record_exact(&mut self, metric: &'static str, value: f64) {
        self.entries.push((metric, value, value));
    }

    /// The reported value of `metric` (minimum over batches).
    pub fn get(&self, metric: &str) -> f64 {
        self.entries
            .iter()
            .find(|(name, _, _)| *name == metric)
            .map_or(f64::NAN, |(_, min, _)| *min)
    }

    /// `(metric, minimum, median)` in measurement order.
    pub fn entries(&self) -> &[(&'static str, f64, f64)] {
        &self.entries
    }

    /// Time `batch`, which performs `ops` operations per call, and record
    /// nanoseconds per operation under `metric`. One untimed call warms
    /// caches and grows buffers first. Returns allocations per operation
    /// of one further counted call.
    fn time(
        &mut self,
        tracer: &mut Tracer,
        metric: &'static str,
        ops: u64,
        mut batch: impl FnMut(),
    ) -> f64 {
        batch();
        let span = format!("replay.{metric}");
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let started = Instant::now();
                tracer.span(&span, |_| batch());
                started.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        self.record(metric, &samples);
        let ((), allocated) = count_allocs(batch);
        allocated.allocs as f64 / ops as f64
    }
}

/// What the replays take from the workload being traced.
pub struct Shape {
    pub seed: u64,
    /// Pending events the scheduler holds in the workload's largest cell
    /// (`EmpiricalConfig::expected_pending_events`).
    pub pending_events: usize,
}

/// Run every micro-driver.
pub fn run_all(tracer: &mut Tracer, shape: &Shape) -> UnitCosts {
    let mut costs = UnitCosts::default();
    media::replay(tracer, shape, &mut costs);
    signalling::replay(tracer, &mut costs);
    small::replay(tracer, shape, &mut costs);
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    /// Every `ns` / `allocs` layer metric outside `capacity.*` has a
    /// micro-driver behind it, each produces a usable number, and none
    /// reports a metric the table does not list.
    #[test]
    fn every_unit_cost_metric_is_replayed() {
        let _counting = crate::trace::COUNTING_TESTS.lock();
        let mut tracer = Tracer::new(true);
        let costs = run_all(
            &mut tracer,
            &Shape {
                seed: 2015,
                pending_events: 2344,
            },
        );
        for (name, unit, _) in &PER_LAYER {
            if matches!(*unit, "ns" | "allocs") && !name.starts_with("capacity.") {
                let v = costs.get(name);
                assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
                if *unit == "ns" {
                    assert!(v > 0.0, "{name} measured nothing");
                }
            }
        }
        for (name, min, median) in costs.entries() {
            assert!(
                PER_LAYER.iter().any(|l| l.0 == *name),
                "{name} is not listed"
            );
            assert!(min <= median, "{name}");
        }
        let spans = tracer.durations_s("replay.des.sched_ns_per_event");
        assert_eq!(spans.len(), BATCHES);
    }
}
