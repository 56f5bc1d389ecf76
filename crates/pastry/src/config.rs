//! Tunables of the Pastry overlay.

use vbundle_sim::SimDuration;

/// Configuration of a Pastry node.
///
/// Defaults follow the Pastry paper's common deployment (`b = 4`,
/// `L = 16`, `|M| = 16`), which is also what FreePastry — the paper's
/// implementation substrate — ships with.
#[derive(Debug, Clone)]
pub struct PastryConfig {
    /// Leaf-set entries per side (`L/2`).
    pub leaf_half: usize,
    /// Capacity of the physically-closest neighbor set (`|M|`).
    pub neighbor_capacity: usize,
    /// If set, nodes heartbeat their leaf set at this interval and evict
    /// members whose own heartbeats stop, decided by phi-accrual with
    /// SWIM-style indirect probing, which tolerates lossy and slow links.
    /// `None` disables active failure detection (bounced sends still
    /// trigger eviction; a heartbeat from a node that has it on is acked).
    pub heartbeat: Option<SimDuration>,
    /// If set, nodes periodically exchange routing-table rows with a
    /// random known peer — Pastry's routing-table maintenance, which
    /// repopulates slots emptied by failures and improves entry locality
    /// over time. `None` disables it.
    pub maintenance: Option<SimDuration>,
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig {
            leaf_half: 8,
            neighbor_capacity: 16,
            heartbeat: None,
            maintenance: None,
        }
    }
}

impl PastryConfig {
    /// Enables heartbeat-based failure detection at `interval`.
    pub fn with_heartbeat(mut self, interval: SimDuration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// Enables periodic routing-table maintenance at `interval`.
    pub fn with_maintenance(mut self, interval: SimDuration) -> Self {
        self.maintenance = Some(interval);
        self
    }

    /// Sets the leaf-set half size.
    ///
    /// # Panics
    ///
    /// Panics if `half` is zero.
    pub fn with_leaf_half(mut self, half: usize) -> Self {
        assert!(half > 0, "leaf half must be positive");
        self.leaf_half = half;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_pastry_paper() {
        let c = PastryConfig::default();
        assert_eq!(c.leaf_half * 2, 16);
        assert_eq!(c.neighbor_capacity, 16);
        assert!(c.heartbeat.is_none());
    }

    #[test]
    fn builder_methods() {
        let c = PastryConfig::default()
            .with_heartbeat(SimDuration::from_secs(30))
            .with_leaf_half(4);
        assert_eq!(c.heartbeat, Some(SimDuration::from_secs(30)));
        assert_eq!(c.leaf_half, 4);
    }
}
