//! Extent-selection policies.

use bg3_storage::{ExtentId, ExtentInfo, ExtentState, SimInstant};

/// What the reclaimer should do with one extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Rewrite the extent's valid records to the stream tail, then free it.
    Relocate(ExtentId),
    /// Free the extent without moving anything — every record has expired.
    Expire(ExtentId),
}

/// An ordered batch of reclamation actions for one cycle.
pub type ReclaimPlan = Vec<PlanAction>;

/// Strategy choosing which sealed extents to reclaim this cycle.
///
/// `candidates` contains only sealed, still-live extents. `budget` is the
/// maximum number of extents the cycle may touch (Algorithm 2's `n`).
pub trait ReclaimPolicy: Send + Sync {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Builds this cycle's plan.
    fn plan(&self, candidates: &[ExtentInfo], now: SimInstant, budget: usize) -> ReclaimPlan;
}

/// A boxed policy chosen at run time is a policy too.
impl ReclaimPolicy for Box<dyn ReclaimPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn plan(&self, candidates: &[ExtentInfo], now: SimInstant, budget: usize) -> ReclaimPlan {
        (**self).plan(candidates, now, budget)
    }
}

/// Keeps only sealed extents that actually contain garbage or can expire.
fn reclaimable(candidates: &[ExtentInfo]) -> Vec<&ExtentInfo> {
    candidates
        .iter()
        .filter(|e| {
            e.state == ExtentState::Sealed && (e.invalid_records > 0 || e.ttl_deadline.is_some())
        })
        .collect()
}

/// Traditional Bw-tree FIFO reclamation: scan from the back of the queue
/// (oldest extent first), rewriting whatever is still valid.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoPolicy;

impl ReclaimPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn plan(&self, candidates: &[ExtentInfo], _now: SimInstant, budget: usize) -> ReclaimPlan {
        let mut live: Vec<&ExtentInfo> = candidates
            .iter()
            .filter(|e| e.state == ExtentState::Sealed)
            .collect();
        live.sort_by_key(|e| e.created_at);
        live.into_iter()
            .take(budget)
            .map(|e| PlanAction::Relocate(e.id))
            .collect()
    }
}

/// ArkDB-style greedy policy (Table 2 baseline): highest fragmentation rate
/// first.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirtyRatioPolicy;

impl ReclaimPolicy for DirtyRatioPolicy {
    fn name(&self) -> &'static str {
        "dirty-ratio"
    }

    fn plan(&self, candidates: &[ExtentInfo], _now: SimInstant, budget: usize) -> ReclaimPlan {
        let mut live = reclaimable(candidates);
        live.retain(|e| e.invalid_records > 0);
        live.sort_by(|a, b| {
            b.fragmentation_rate
                .partial_cmp(&a.fragmentation_rate)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        live.into_iter()
            .take(budget)
            .map(|e| PlanAction::Relocate(e.id))
            .collect()
    }
}

/// BG3's workload-aware policy — Algorithm 2 plus the TTL bypass:
///
/// 1. Extents whose TTL deadline has passed are expired for free.
/// 2. Extents with a pending TTL deadline are bypassed ("allow it to expire
///    naturally", §3.3).
/// 3. The remaining extents are filtered to the *coldest* fraction by
///    update gradient (`getExtentsWithSmallestUpdateGradient`), then sorted
///    by fragmentation rate descending (`sortByFragmentationRate`), and the
///    top `budget` are relocated.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadAwarePolicy {
    /// Fraction of candidates (by ascending gradient) considered "cold"
    /// enough to relocate. Algorithm 2 takes the smallest-gradient group;
    /// 0.5 means the colder half.
    pub cold_fraction: f64,
}

impl Default for WorkloadAwarePolicy {
    fn default() -> Self {
        WorkloadAwarePolicy { cold_fraction: 0.5 }
    }
}

impl ReclaimPolicy for WorkloadAwarePolicy {
    fn name(&self) -> &'static str {
        "workload-aware"
    }

    fn plan(&self, candidates: &[ExtentInfo], now: SimInstant, budget: usize) -> ReclaimPlan {
        let mut plan = ReclaimPlan::new();

        // Step 1: free expired extents first — zero-cost reclamation.
        for e in candidates {
            if e.state != ExtentState::Sealed {
                continue;
            }
            if let Some(deadline) = e.ttl_deadline {
                if deadline <= now {
                    plan.push(PlanAction::Expire(e.id));
                    if plan.len() == budget {
                        return plan;
                    }
                }
            }
        }

        // Step 2: fully-dead extents are free to reclaim no matter how hot
        // they *were* — this is the payoff of having waited for a hot
        // extent to finish dying (Fig. 5: Extent A at t2).
        for e in candidates {
            if e.state == ExtentState::Sealed
                && e.valid_records == 0
                && e.invalid_records > 0
                && e.ttl_deadline.is_none_or(|d| d > now)
            {
                plan.push(PlanAction::Relocate(e.id));
                if plan.len() == budget {
                    return plan;
                }
            }
        }

        // Step 3: at the margin, relocate *cold* extents — still-dying ones
        // are left to keep dying (moving their survivors would be wasted
        // I/O). TTL'd extents are bypassed to expire naturally.
        let mut movable: Vec<&ExtentInfo> = reclaimable(candidates)
            .into_iter()
            .filter(|e| e.ttl_deadline.is_none() && e.invalid_records > 0 && e.valid_records > 0)
            .collect();
        movable.sort_by(|a, b| {
            a.update_gradient
                .partial_cmp(&b.update_gradient)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        let cold_len = ((movable.len() as f64 * self.cold_fraction).ceil() as usize)
            .clamp(usize::from(!movable.is_empty()), movable.len());
        let mut cold = movable[..cold_len].to_vec();
        cold.sort_by(|a, b| {
            b.fragmentation_rate
                .partial_cmp(&a.fragmentation_rate)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        plan.extend(
            cold.into_iter()
                .take(budget.saturating_sub(plan.len()))
                .map(|e| PlanAction::Relocate(e.id)),
        );
        plan
    }
}

/// The paper's stated future work (§4.4): for workloads with *long* TTLs,
/// bypassing every TTL extent wastes space for the whole TTL window.
/// This hybrid bypasses only extents whose deadline is **near** (within
/// `bypass_window_nanos`); far-from-expiry extents participate in normal
/// gradient + fragmentation selection, with their remaining TTL preserved
/// through relocation.
#[derive(Debug, Clone, Copy)]
pub struct HybridTtlGradientPolicy {
    /// Extents expiring within this many simulated nanoseconds are left to
    /// die naturally instead of being relocated.
    pub bypass_window_nanos: u64,
    /// Cold-fraction knob shared with [`WorkloadAwarePolicy`].
    pub cold_fraction: f64,
}

impl Default for HybridTtlGradientPolicy {
    fn default() -> Self {
        HybridTtlGradientPolicy {
            bypass_window_nanos: 60_000_000_000, // 60 simulated seconds
            cold_fraction: 0.5,
        }
    }
}

impl ReclaimPolicy for HybridTtlGradientPolicy {
    fn name(&self) -> &'static str {
        "hybrid-ttl-gradient"
    }

    fn plan(&self, candidates: &[ExtentInfo], now: SimInstant, budget: usize) -> ReclaimPlan {
        let mut plan = ReclaimPlan::new();
        // Expired extents are always free wins.
        for e in candidates {
            if e.state != ExtentState::Sealed {
                continue;
            }
            if let Some(deadline) = e.ttl_deadline {
                if deadline <= now {
                    plan.push(PlanAction::Expire(e.id));
                    if plan.len() == budget {
                        return plan;
                    }
                }
            }
        }
        // Fully-dead extents are free wins regardless of TTL or heat.
        for e in candidates {
            if e.state == ExtentState::Sealed
                && e.valid_records == 0
                && e.invalid_records > 0
                && e.ttl_deadline.is_none_or(|d| d > now)
            {
                plan.push(PlanAction::Relocate(e.id));
                if plan.len() == budget {
                    return plan;
                }
            }
        }
        // Relocatable: fragmented extents that are either TTL-free or far
        // from expiry (relocating near-expiry data would be wasted I/O).
        let near = |e: &ExtentInfo| {
            e.ttl_deadline
                .is_some_and(|d| d > now && d.duration_since(now) <= self.bypass_window_nanos)
        };
        let mut movable: Vec<&ExtentInfo> = reclaimable(candidates)
            .into_iter()
            .filter(|e| e.invalid_records > 0 && e.valid_records > 0)
            .filter(|e| e.ttl_deadline.is_none_or(|d| d > now) && !near(e))
            .collect();
        movable.sort_by(|a, b| {
            a.update_gradient
                .partial_cmp(&b.update_gradient)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        let cold_len = ((movable.len() as f64 * self.cold_fraction).ceil() as usize)
            .clamp(usize::from(!movable.is_empty()), movable.len());
        let mut cold = movable[..cold_len].to_vec();
        cold.sort_by(|a, b| {
            b.fragmentation_rate
                .partial_cmp(&a.fragmentation_rate)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        plan.extend(
            cold.into_iter()
                .take(budget.saturating_sub(plan.len()))
                .map(|e| PlanAction::Relocate(e.id)),
        );
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::StreamId;

    fn info(
        id: u64,
        created: u64,
        frag: f64,
        gradient: f64,
        ttl: Option<u64>,
        state: ExtentState,
    ) -> ExtentInfo {
        let invalid = (frag * 10.0).round() as u64;
        ExtentInfo {
            id: ExtentId(id),
            stream: StreamId::DELTA,
            state,
            quarantined: false,
            valid_records: 10 - invalid,
            invalid_records: invalid,
            valid_bytes: (10 - invalid) * 100,
            capacity: 2048,
            used_bytes: 1000,
            fragmentation_rate: frag,
            update_gradient: gradient,
            last_update: SimInstant(created + 5),
            created_at: SimInstant(created),
            ttl_deadline: ttl.map(SimInstant),
        }
    }

    #[test]
    fn fifo_picks_oldest_first() {
        let candidates = vec![
            info(1, 300, 0.1, 0.0, None, ExtentState::Sealed),
            info(2, 100, 0.9, 0.0, None, ExtentState::Sealed),
            info(3, 200, 0.5, 0.0, None, ExtentState::Sealed),
        ];
        let plan = FifoPolicy.plan(&candidates, SimInstant(1000), 2);
        assert_eq!(
            plan,
            vec![
                PlanAction::Relocate(ExtentId(2)),
                PlanAction::Relocate(ExtentId(3))
            ]
        );
    }

    #[test]
    fn dirty_ratio_picks_most_fragmented() {
        let candidates = vec![
            info(1, 0, 0.2, 5.0, None, ExtentState::Sealed),
            info(2, 0, 0.8, 5.0, None, ExtentState::Sealed),
            info(3, 0, 0.5, 0.0, None, ExtentState::Sealed),
        ];
        let plan = DirtyRatioPolicy.plan(&candidates, SimInstant(1000), 2);
        assert_eq!(
            plan,
            vec![
                PlanAction::Relocate(ExtentId(2)),
                PlanAction::Relocate(ExtentId(3))
            ]
        );
    }

    #[test]
    fn dirty_ratio_skips_clean_and_open_extents() {
        let candidates = vec![
            info(1, 0, 0.0, 0.0, None, ExtentState::Sealed),
            info(2, 0, 0.9, 0.0, None, ExtentState::Open),
        ];
        assert!(DirtyRatioPolicy
            .plan(&candidates, SimInstant(0), 4)
            .is_empty());
    }

    #[test]
    fn workload_aware_prefers_cold_extents() {
        // Paper's Fig. 5 scenario at t1: A is hot (gradient high), C is cold
        // with some garbage. Traditional policies pick A (highest frag);
        // workload-aware picks the cold one.
        let candidates = vec![
            info(1, 0, 0.6, 100.0, None, ExtentState::Sealed), // Extent A: hot
            info(3, 0, 0.4, 0.1, None, ExtentState::Sealed),   // Extent C: cold
        ];
        let plan = WorkloadAwarePolicy::default().plan(&candidates, SimInstant(1000), 1);
        assert_eq!(plan, vec![PlanAction::Relocate(ExtentId(3))]);
        let greedy = DirtyRatioPolicy.plan(&candidates, SimInstant(1000), 1);
        assert_eq!(greedy, vec![PlanAction::Relocate(ExtentId(1))]);
    }

    #[test]
    fn workload_aware_bypasses_pending_ttl_and_expires_elapsed() {
        // Paper's Fig. 5 Extent B: everything expires at t2, so at t1 it is
        // bypassed; once t2 passes it is freed without movement.
        let candidates = vec![
            info(2, 0, 0.6, 0.0, Some(2_000), ExtentState::Sealed), // Extent B
            info(3, 0, 0.3, 0.0, None, ExtentState::Sealed),
        ];
        let at_t1 = WorkloadAwarePolicy::default().plan(&candidates, SimInstant(1_000), 2);
        assert_eq!(
            at_t1,
            vec![PlanAction::Relocate(ExtentId(3))],
            "TTL extent bypassed before its deadline"
        );
        let at_t2 = WorkloadAwarePolicy::default().plan(&candidates, SimInstant(2_000), 2);
        assert_eq!(at_t2[0], PlanAction::Expire(ExtentId(2)));
    }

    #[test]
    fn workload_aware_respects_budget() {
        let candidates: Vec<ExtentInfo> = (0..10)
            .map(|i| info(i, 0, 0.5, i as f64, None, ExtentState::Sealed))
            .collect();
        let plan = WorkloadAwarePolicy::default().plan(&candidates, SimInstant(0), 3);
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn workload_aware_budget_counts_expirations() {
        let candidates = vec![
            info(1, 0, 0.5, 0.0, Some(10), ExtentState::Sealed),
            info(2, 0, 0.5, 0.0, Some(10), ExtentState::Sealed),
            info(3, 0, 0.5, 0.0, None, ExtentState::Sealed),
        ];
        let plan = WorkloadAwarePolicy::default().plan(&candidates, SimInstant(100), 2);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|a| matches!(a, PlanAction::Expire(_))));
    }

    #[test]
    fn empty_candidates_produce_empty_plans() {
        for policy in [
            &FifoPolicy as &dyn ReclaimPolicy,
            &DirtyRatioPolicy,
            &WorkloadAwarePolicy::default(),
            &HybridTtlGradientPolicy::default(),
        ] {
            assert!(policy.plan(&[], SimInstant(0), 5).is_empty());
        }
    }

    #[test]
    fn hybrid_relocates_far_ttl_but_bypasses_near_ttl() {
        let policy = HybridTtlGradientPolicy {
            bypass_window_nanos: 1_000,
            cold_fraction: 1.0,
        };
        let now = SimInstant(10_000);
        let candidates = vec![
            // Expiring in 500 ns: bypass (would be wasted I/O).
            info(1, 0, 0.8, 0.0, Some(10_500), ExtentState::Sealed),
            // Expiring in 1 simulated hour: the 30-day-TTL case §4.4 calls
            // out — relocate instead of hoarding space.
            info(2, 0, 0.6, 0.0, Some(3_600_000_000_000), ExtentState::Sealed),
            // Already expired: free.
            info(3, 0, 0.2, 0.0, Some(9_000), ExtentState::Sealed),
        ];
        let plan = policy.plan(&candidates, now, 4);
        assert_eq!(
            plan,
            vec![
                PlanAction::Expire(ExtentId(3)),
                PlanAction::Relocate(ExtentId(2)),
            ]
        );
    }

    #[test]
    fn hybrid_matches_workload_aware_without_ttls() {
        let candidates = vec![
            info(1, 0, 0.6, 100.0, None, ExtentState::Sealed),
            info(3, 0, 0.4, 0.1, None, ExtentState::Sealed),
        ];
        let hybrid = HybridTtlGradientPolicy::default().plan(&candidates, SimInstant(1000), 1);
        let aware = WorkloadAwarePolicy::default().plan(&candidates, SimInstant(1000), 1);
        assert_eq!(hybrid, aware);
    }
}
