//! The progress score (Eq. 1) and growth efficiency (Eq. 2).
//!
//! Given a container's evaluation function `E(t)` sampled at algorithm
//! ticks, the *progress score* over the interval `(t_{i-1}, t_i]` is
//!
//! ```text
//! P(t_i) = |E(t_i) − E(t_{i−1})| / (t_i − t_{i−1})            (Eq. 1)
//! ```
//!
//! and the *growth efficiency* for resource `r` divides by the average
//! resource usage over the same interval:
//!
//! ```text
//! G_r(t_i) = P(t_i) / R_r(t_i)                                 (Eq. 2)
//! ```
//!
//! The absolute value makes the metric direction-agnostic (loss functions
//! fall, accuracy functions rise).  A usage floor guards against division by
//! a near-zero denominator when a container was throttled to almost nothing
//! for the whole interval.

use flowcon_sim::ContainerId;

/// Minimum average-usage denominator; below this the measurement interval
/// carried so little compute that G would be pure noise.
pub const USAGE_FLOOR: f64 = 1e-3;

/// Eq. 1: absolute per-second progress of the evaluation function.
///
/// Returns `None` for a non-positive (or non-finite) interval.
pub fn progress_score(eval_now: f64, eval_prev: f64, dt_secs: f64) -> Option<f64> {
    let interval_valid = dt_secs.is_finite() && dt_secs > 0.0;
    if !interval_valid || !eval_now.is_finite() || !eval_prev.is_finite() {
        return None;
    }
    Some((eval_now - eval_prev).abs() / dt_secs)
}

/// Eq. 2: progress per unit of average resource usage.
pub fn growth_efficiency(progress: f64, avg_usage: f64) -> f64 {
    debug_assert!(progress >= 0.0);
    progress / avg_usage.max(USAGE_FLOOR)
}

/// One container's measurement at an algorithm tick, as produced by the
/// Container Monitor and consumed by Algorithm 1.
///
/// Eq. 2 defines growth efficiency *per resource kind*; the measurement
/// therefore carries the progress score and the average usage of all four
/// resources, and [`GrowthMeasurement::growth_for`] derives `G_r` for any
/// of them.  The paper's evaluation (and Algorithm 1's default) uses CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthMeasurement {
    /// The measured container.
    pub id: ContainerId,
    /// Progress score `P` (Eq. 1), or `None` while the container lacks the
    /// two evaluation samples it needs ("fresh" containers).
    pub progress: Option<f64>,
    /// Average usage per resource over the interval (`R_r` in Eq. 2).
    pub avg_usage: flowcon_sim::ResourceVec,
    /// The container's current CPU limit.
    pub cpu_limit: f64,
}

impl GrowthMeasurement {
    /// Growth efficiency for one resource kind (Eq. 2).
    pub fn growth_for(&self, kind: flowcon_sim::ResourceKind) -> Option<f64> {
        self.progress
            .map(|p| growth_efficiency(p, self.avg_usage.get(kind)))
    }

    /// CPU growth efficiency — what the paper's evaluation tracks.
    pub fn growth(&self) -> Option<f64> {
        self.growth_for(flowcon_sim::ResourceKind::Cpu)
    }

    /// Average CPU usage over the interval.
    pub fn avg_cpu(&self) -> f64 {
        self.avg_usage.get(flowcon_sim::ResourceKind::Cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_score_is_absolute_and_per_second() {
        // Loss falling 2.0 -> 1.0 over 20 s.
        assert_eq!(progress_score(1.0, 2.0, 20.0), Some(0.05));
        // Accuracy rising 0.5 -> 0.9 over 20 s: same sign.
        assert_eq!(progress_score(0.9, 0.5, 20.0), Some(0.02));
    }

    #[test]
    fn progress_score_rejects_bad_inputs() {
        assert_eq!(progress_score(1.0, 2.0, 0.0), None);
        assert_eq!(progress_score(1.0, 2.0, -5.0), None);
        assert_eq!(progress_score(f64::NAN, 2.0, 10.0), None);
        assert_eq!(progress_score(1.0, f64::INFINITY, 10.0), None);
    }

    #[test]
    fn growth_efficiency_divides_by_usage() {
        let g = growth_efficiency(0.05, 0.5);
        assert!((g - 0.1).abs() < 1e-12);
    }

    #[test]
    fn growth_efficiency_guards_zero_usage() {
        let g = growth_efficiency(0.05, 0.0);
        assert!(g.is_finite());
        assert!((g - 0.05 / USAGE_FLOOR).abs() < 1e-9);
    }

    #[test]
    fn paper_example_scale() {
        // A young MNIST-TF-like job: loss drops 2.3 -> 1.0 in a 20 s
        // interval using ~40% of the node.
        let p = progress_score(1.0, 2.3, 20.0).unwrap();
        let g = growth_efficiency(p, 0.4);
        assert!(g > 0.1 && g < 0.3, "G = {g}"); // comfortably above α = 5%
    }
}
