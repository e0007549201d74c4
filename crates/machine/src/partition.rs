//! LLC way-partitioning plans: the second actuator.
//!
//! A [`PartitionPlan`] divides each domain's shared LLC into clusters of
//! ways (Intel CAT-style) and assigns threads to clusters. The engine
//! applies a plan with [`crate::Machine::apply_partition`]; from then on
//! every cluster's threads contend only for the cluster's slice of the
//! cache (`capacity_mib * ways / total_ways`), while threads left
//! unassigned share the remainder ways. The same way-split applies in
//! every NUMA domain — the plan models a machine-wide CAT configuration,
//! the way `resctrl` programs one class-of-service mask across sockets.
//!
//! Plans are pure data: policies build them from observations, the
//! actuation layer ships them through `Actions`, and the engine validates
//! on application. With no plan applied the contention model never reads
//! any of this, keeping the unpartitioned solve bit-identical to the
//! pre-partitioning engine.

use crate::ids::ThreadId;

/// A way-partitioning assignment for the shared LLC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Ways granted to each cluster, indexed by cluster id. Every cluster
    /// must hold at least one way and the total must leave the configured
    /// way count unexceeded; ways not granted to any cluster form the
    /// shared pool for unassigned threads.
    pub cluster_ways: Vec<u32>,
    /// Thread-to-cluster assignments, ascending by thread id. Threads
    /// absent here share the leftover ways.
    pub assignments: Vec<(ThreadId, u32)>,
}

impl PartitionPlan {
    /// An empty plan (no clusters, no assignments).
    pub fn new() -> Self {
        PartitionPlan::default()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.cluster_ways.len()
    }

    /// True when the plan partitions nothing.
    pub fn is_empty(&self) -> bool {
        self.cluster_ways.is_empty() && self.assignments.is_empty()
    }

    /// Ways left for threads not assigned to any cluster.
    pub fn shared_ways(&self, total_ways: u32) -> u32 {
        total_ways.saturating_sub(self.cluster_ways.iter().sum())
    }

    /// Validate against a cache of `total_ways` ways: every cluster holds
    /// at least one way, the grants sum to at most `total_ways`, and
    /// every assignment names an existing cluster with no thread assigned
    /// twice (assignments must be ascending by thread id).
    pub fn validate(&self, total_ways: u32) -> Result<(), String> {
        let mut sum = 0u64;
        for (c, &w) in self.cluster_ways.iter().enumerate() {
            if w == 0 {
                return Err(format!("cluster {c} granted zero ways"));
            }
            sum += u64::from(w);
        }
        if sum > u64::from(total_ways) {
            return Err(format!(
                "clusters claim {sum} ways but the cache has {total_ways}"
            ));
        }
        let mut prev: Option<ThreadId> = None;
        for &(t, c) in &self.assignments {
            if c as usize >= self.cluster_ways.len() {
                return Err(format!("thread {t} assigned to unknown cluster {c}"));
            }
            if prev.is_some_and(|p| p >= t) {
                return Err(format!(
                    "assignments must be strictly ascending by thread id at {t}"
                ));
            }
            prev = Some(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(ways: &[u32], assign: &[(u32, u32)]) -> PartitionPlan {
        PartitionPlan {
            cluster_ways: ways.to_vec(),
            assignments: assign.iter().map(|&(t, c)| (ThreadId(t), c)).collect(),
        }
    }

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let p = PartitionPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.num_clusters(), 0);
        assert!(p.validate(16).is_ok());
        assert_eq!(p.shared_ways(16), 16);
    }

    #[test]
    fn validation_enforces_way_budget_and_cluster_bounds() {
        assert!(plan(&[4, 8], &[(0, 0), (1, 1)]).validate(16).is_ok());
        assert_eq!(plan(&[4, 8], &[]).shared_ways(16), 4);
        // Over budget.
        assert!(plan(&[10, 8], &[]).validate(16).is_err());
        // Zero-way cluster.
        assert!(plan(&[4, 0], &[]).validate(16).is_err());
        // Unknown cluster.
        assert!(plan(&[4], &[(0, 1)]).validate(16).is_err());
        // Duplicate / out-of-order thread.
        assert!(plan(&[4], &[(1, 0), (0, 0)]).validate(16).is_err());
        assert!(plan(&[4], &[(1, 0), (1, 0)]).validate(16).is_err());
    }
}
