//! Resource limits and the `docker update` option surface.
//!
//! FlowCon's Executor applies Algorithm 1's decisions through commands like
//! `docker update --cpus 0.25 <cid>` (§4.1).  Limits here are *soft* in
//! exactly Docker's sense: they cap a container's entitled share, but the
//! water-filling allocator (in `flowcon-sim`) redistributes whatever a
//! container leaves unused.

use flowcon_sim::resources::{ResourceKind, ResourceVec};

/// Soft resource limits attached to a container.
///
/// All values are fractions of the node's capacity in `[0, 1]`; `1.0` means
/// unconstrained (the Docker default when no flag is passed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceLimits {
    limits: ResourceVec,
}

impl Default for ResourceLimits {
    /// Docker's default: no limits (free competition).
    fn default() -> Self {
        ResourceLimits {
            limits: ResourceVec::splat(1.0),
        }
    }
}

impl ResourceLimits {
    /// Unconstrained limits (the NA baseline).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits with only the CPU fraction constrained.
    pub fn cpu(limit: f64) -> Self {
        let mut l = Self::default();
        l.set(ResourceKind::Cpu, limit);
        l
    }

    /// Read the limit for a resource kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.limits.get(kind)
    }

    /// Set the limit for a resource kind, clamped to `[0, 1]`.
    ///
    /// Clamping mirrors the daemon's validation of `docker update` values:
    /// out-of-range requests are coerced rather than crashing the middleware.
    pub fn set(&mut self, kind: ResourceKind, limit: f64) {
        let v = if limit.is_finite() {
            limit.clamp(0.0, 1.0)
        } else {
            1.0
        };
        self.limits.set(kind, v);
    }

    /// The CPU limit — the value FlowCon's evaluation focuses on.
    pub fn cpu_limit(&self) -> f64 {
        self.get(ResourceKind::Cpu)
    }

    /// The underlying vector (one fraction per resource kind).
    pub fn as_vec(&self) -> ResourceVec {
        self.limits
    }
}

/// A builder mirroring `docker update` command-line options.
///
/// ```
/// use flowcon_container::limits::UpdateOptions;
///
/// // docker update --cpus 0.25 --memory 512 <cid>
/// let opts = UpdateOptions::new().cpus(0.25).memory_fraction(0.5);
/// assert_eq!(opts.render(), "--cpus 0.25 --memory-fraction 0.5");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateOptions {
    /// `--cpus`: CPU fraction limit.
    pub cpus: Option<f64>,
    /// `--memory` expressed as a fraction of node memory.
    pub memory: Option<f64>,
    /// `--blkio-weight` mapped to a bandwidth fraction.
    pub blkio: Option<f64>,
    /// Network bandwidth fraction (via tc/--net shaping in practice).
    pub netio: Option<f64>,
}

impl UpdateOptions {
    /// An empty update (no flags).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the `--cpus` flag.
    pub fn cpus(mut self, v: f64) -> Self {
        self.cpus = Some(v);
        self
    }

    /// Set the memory fraction.
    pub fn memory_fraction(mut self, v: f64) -> Self {
        self.memory = Some(v);
        self
    }

    /// Set the block-I/O fraction.
    pub fn blkio_fraction(mut self, v: f64) -> Self {
        self.blkio = Some(v);
        self
    }

    /// Set the network-I/O fraction.
    pub fn netio_fraction(mut self, v: f64) -> Self {
        self.netio = Some(v);
        self
    }

    /// True if no flag is set (the update would be a no-op).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_none() && self.memory.is_none() && self.blkio.is_none() && self.netio.is_none()
    }

    /// Apply this update onto existing limits, returning the new limits.
    pub fn apply_to(&self, mut limits: ResourceLimits) -> ResourceLimits {
        if let Some(v) = self.cpus {
            limits.set(ResourceKind::Cpu, v);
        }
        if let Some(v) = self.memory {
            limits.set(ResourceKind::Memory, v);
        }
        if let Some(v) = self.blkio {
            limits.set(ResourceKind::BlkIo, v);
        }
        if let Some(v) = self.netio {
            limits.set(ResourceKind::NetIo, v);
        }
        limits
    }

    /// Render as a `docker update`-style flag string (for logs and tests).
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = self.cpus {
            parts.push(format!("--cpus {v}"));
        }
        if let Some(v) = self.memory {
            parts.push(format!("--memory-fraction {v}"));
        }
        if let Some(v) = self.blkio {
            parts.push(format!("--blkio-fraction {v}"));
        }
        if let Some(v) = self.netio {
            parts.push(format!("--netio-fraction {v}"));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_is_unlimited() {
        let l = ResourceLimits::default();
        for kind in flowcon_sim::RESOURCE_KINDS {
            assert_eq!(l.get(kind), 1.0);
        }
    }

    #[test]
    fn set_clamps_to_unit_interval() {
        let mut l = ResourceLimits::default();
        l.set(ResourceKind::Cpu, 1.7);
        assert_eq!(l.cpu_limit(), 1.0);
        l.set(ResourceKind::Cpu, -0.3);
        assert_eq!(l.cpu_limit(), 0.0);
        l.set(ResourceKind::Cpu, f64::NAN);
        assert_eq!(l.cpu_limit(), 1.0);
    }

    #[test]
    fn update_applies_only_set_flags() {
        let base = ResourceLimits::cpu(0.5);
        let updated = UpdateOptions::new().memory_fraction(0.25).apply_to(base);
        assert_eq!(updated.cpu_limit(), 0.5, "cpu untouched");
        assert_eq!(updated.get(ResourceKind::Memory), 0.25);
    }

    #[test]
    fn empty_update_is_identity() {
        let base = ResourceLimits::cpu(0.33);
        let opts = UpdateOptions::new();
        assert!(opts.is_empty());
        assert_eq!(opts.apply_to(base), base);
    }

    proptest! {
        /// Updates never corrupt limits: after any sequence of `--cpus`
        /// updates the limit stays in [0, 1].
        #[test]
        fn update_sequences_keep_limits_valid(
            updates in prop::collection::vec(-2.0f64..=3.0, 1..50),
        ) {
            let mut limits = ResourceLimits::default();
            for v in updates {
                limits = UpdateOptions::new().cpus(v).apply_to(limits);
                let l = limits.cpu_limit();
                prop_assert!((0.0..=1.0).contains(&l), "limit {l}");
            }
        }
    }

    #[test]
    fn render_matches_docker_flag_style() {
        let opts = UpdateOptions::new().cpus(0.25);
        assert_eq!(opts.render(), "--cpus 0.25");
        assert_eq!(UpdateOptions::new().render(), "");
    }
}
