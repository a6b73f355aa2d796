use std::ops::AddAssign;

/// Work counters for one query (or, via [`crate::Onex::lifetime_stats`], for an
/// engine lifetime). The speed experiments (E5, E9) report these alongside
/// wall-clock numbers because they explain *why* ONEX is fast: most
/// candidates never reach a DTW computation.
///
/// The member counters partition the members the scan was responsible
/// for: `members_l0_pruned + members_kim_pruned + members_lb_pruned +
/// members_examined` is the number of *admitted* members — those the
/// `exclude_series` / `only_series` / `exclude_windows` filters let
/// through — of the groups whose members were scanned. Each such member
/// is dismissed by exactly one bound tier or starts a DTW; a filtered
/// member is counted by no tier, and neither is any member of a group
/// pruned whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Groups whose representative was compared against the query.
    pub groups_examined: usize,
    /// Groups skipped entirely by the ED↔DTW bridge bound.
    pub groups_pruned: usize,
    /// Members whose DTW was started.
    pub members_examined: usize,
    /// Members skipped by the quantised L0 sketch bound — before their
    /// f64 data was even resolved.
    pub members_l0_pruned: usize,
    /// Members of the L0 rejects (a subset of
    /// [`Self::members_l0_pruned`]) whose whole block the zone test
    /// skipped, with no per-member pass.
    pub members_zone_skipped: usize,
    /// Members skipped by the LB_Kim corner bound.
    pub members_kim_pruned: usize,
    /// Members skipped by LB_Keogh.
    pub members_lb_pruned: usize,
    /// Member DTW computations that abandoned early (subset of
    /// [`Self::dtw_abandoned`], which also counts representative DTWs).
    pub members_abandoned: usize,
    /// DTW computations that abandoned early (members + representatives).
    pub dtw_abandoned: usize,
    /// DTW computations that ran to completion.
    pub dtw_completed: usize,
    /// DP cells the DTWs computed (members and representatives): the
    /// columns of each row's EAPruned window, once per candidate.
    pub dtw_cells: usize,
}

impl QueryStats {
    /// Total DTW invocations (completed + abandoned).
    pub fn dtw_invocations(&self) -> usize {
        self.dtw_completed + self.dtw_abandoned
    }

    /// Members rejected by any lower-bound tier (L0 sketch, LB_Kim,
    /// LB_Keogh) before a DTW was started.
    pub fn members_bound_pruned(&self) -> usize {
        self.members_l0_pruned + self.members_kim_pruned + self.members_lb_pruned
    }

    /// Fraction of candidate members that never needed a full DTW
    /// (pruned by a lower bound or abandoned mid-DP).
    pub fn pruning_effectiveness(&self) -> f64 {
        let total = self.members_examined + self.members_bound_pruned();
        if total == 0 {
            return 0.0;
        }
        let avoided = self.members_bound_pruned() + self.members_abandoned;
        avoided as f64 / total as f64
    }
}

impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        self.groups_examined += rhs.groups_examined;
        self.groups_pruned += rhs.groups_pruned;
        self.members_examined += rhs.members_examined;
        self.members_l0_pruned += rhs.members_l0_pruned;
        self.members_zone_skipped += rhs.members_zone_skipped;
        self.members_kim_pruned += rhs.members_kim_pruned;
        self.members_lb_pruned += rhs.members_lb_pruned;
        self.members_abandoned += rhs.members_abandoned;
        self.dtw_abandoned += rhs.dtw_abandoned;
        self.dtw_completed += rhs.dtw_completed;
        self.dtw_cells += rhs.dtw_cells;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_ratios() {
        let mut total = QueryStats::default();
        total += QueryStats {
            groups_examined: 5,
            groups_pruned: 3,
            members_examined: 10,
            members_l0_pruned: 2,
            members_zone_skipped: 1,
            members_kim_pruned: 1,
            members_lb_pruned: 3,
            members_abandoned: 4,
            dtw_abandoned: 4,
            dtw_completed: 6,
            dtw_cells: 900,
        };
        total += QueryStats {
            members_examined: 2,
            members_zone_skipped: 3,
            dtw_cells: 100,
            ..QueryStats::default()
        };
        assert_eq!(total.members_examined, 12);
        assert_eq!((total.members_zone_skipped, total.dtw_cells), (4, 1000));
        assert_eq!(total.members_bound_pruned(), 6);
        assert_eq!(total.dtw_invocations(), 10);
        // avoided = (2+1+3) bound-pruned + 4 abandoned over 12+6 candidates.
        assert!((total.pruning_effectiveness() - 10.0 / 18.0).abs() < 1e-12);
        assert_eq!(QueryStats::default().pruning_effectiveness(), 0.0);
    }
}
