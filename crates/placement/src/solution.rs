//! The mutable placement: the X matrix, each site's list of replicators,
//! per-server free space, and the nearest-replica (`SN`) pointers,
//! maintained incrementally as replicas are created — the book-keeping of
//! lines 19–25 of the paper's Figure 2.

use crate::problem::PlacementProblem;
use crate::Hops;

/// Where server `i` sends its requests for site `j` when they are not
/// answered locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nearest {
    /// The primary site holds the closest copy.
    Primary,
    /// Server with this index holds the closest replica (may be `i` itself
    /// if `i` is a replicator).
    Server(u32),
}

/// One copy holder of a site as seen from a particular server: who holds
/// the copy and how far away it is. Produced by
/// [`Placement::ranked_holders`] for failover routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedHolder {
    pub holder: Nearest,
    pub dist: Hops,
}

/// A (partial) assignment of site replicas to servers.
#[derive(Debug, Clone)]
pub struct Placement {
    n: usize,
    m: usize,
    /// `x[i * m + j]` — true if site j is replicated at server i.
    x: Vec<bool>,
    /// `holders[j]` — the servers replicating site j, ascending: column j
    /// of `x` as a list, so walking a site's copies costs O(replicas).
    holders: Vec<Vec<u32>>,
    /// `nearest[i * m + j]` — SN_j^(i).
    nearest: Vec<Nearest>,
    /// Capacity remaining at each server (available to the cache).
    free_bytes: Vec<u64>,
    replica_count: usize,
}

impl Placement {
    /// The starting point of every algorithm here: only primary copies
    /// exist and all storage is free.
    pub fn primaries_only(problem: &PlacementProblem) -> Self {
        let n = problem.n_servers();
        let m = problem.m_sites();
        Self {
            n,
            m,
            x: vec![false; n * m],
            holders: vec![Vec::new(); m],
            nearest: vec![Nearest::Primary; n * m],
            free_bytes: problem.capacities.clone(),
            replica_count: 0,
        }
    }

    pub fn n_servers(&self) -> usize {
        self.n
    }

    pub fn m_sites(&self) -> usize {
        self.m
    }

    /// Is site `j` replicated at server `i`?
    #[inline]
    pub fn is_replicated(&self, i: usize, j: usize) -> bool {
        self.x[i * self.m + j]
    }

    /// The nearest holder of site `j` for server `i`.
    #[inline]
    pub fn nearest(&self, i: usize, j: usize) -> Nearest {
        self.nearest[i * self.m + j]
    }

    /// Hops from server `i` to the nearest copy of site `j`.
    #[inline]
    pub fn nearest_dist(&self, problem: &PlacementProblem, i: usize, j: usize) -> Hops {
        match self.nearest(i, j) {
            Nearest::Primary => problem.dist_primary(i, j),
            Nearest::Server(k) => problem.dist_servers(i, k as usize),
        }
    }

    /// Bytes still free (cache space) at server `i`.
    #[inline]
    pub fn free_bytes(&self, i: usize) -> u64 {
        self.free_bytes[i]
    }

    /// Total replicas created (excludes primaries).
    pub fn replica_count(&self) -> usize {
        self.replica_count
    }

    /// Servers replicating site `j`, ascending.
    pub fn replicators_of(&self, j: usize) -> Vec<usize> {
        self.holders[j].iter().map(|&k| k as usize).collect()
    }

    /// Sites replicated at server `i`.
    pub fn sites_at(&self, i: usize) -> Vec<usize> {
        (0..self.m).filter(|&j| self.is_replicated(i, j)).collect()
    }

    /// Can server `i` still hold a replica of site `j`?
    pub fn fits(&self, problem: &PlacementProblem, i: usize, j: usize) -> bool {
        !self.is_replicated(i, j) && problem.site_bytes[j] <= self.free_bytes[i]
    }

    /// Create the replica `(i, j)`, updating free space and every server's
    /// SN pointer for site `j` (lines 19–25 of the paper's Figure 2).
    ///
    /// Returns the servers whose nearest-copy distance for site `j`
    /// *strictly improved* (always includes `i` unless it already held the
    /// site at distance 0, which `add_replica` forbids) — callers maintain
    /// caches keyed on those distances.
    ///
    /// # Panics
    /// Panics if the replica already exists or does not fit.
    pub fn add_replica(&mut self, problem: &PlacementProblem, i: usize, j: usize) -> Vec<usize> {
        assert!(
            !self.is_replicated(i, j),
            "replica ({i}, {j}) already exists"
        );
        assert!(
            problem.site_bytes[j] <= self.free_bytes[i],
            "replica ({i}, {j}) exceeds free space"
        );
        self.x[i * self.m + j] = true;
        let list = &mut self.holders[j];
        let at = list.partition_point(|&k| (k as usize) < i);
        list.insert(at, i as u32);
        self.free_bytes[i] -= problem.site_bytes[j];
        self.replica_count += 1;
        let mut improved = Vec::new();
        for k in 0..self.n {
            let cur = self.nearest_dist(problem, k, j);
            if problem.dist_servers(k, i) < cur {
                self.nearest[k * self.m + j] = Nearest::Server(i as u32);
                improved.push(k);
            }
        }
        // The replicator itself is always its own nearest copy.
        self.nearest[i * self.m + j] = Nearest::Server(i as u32);
        improved
    }

    /// Remove the replica `(i, j)`, restoring free space and recomputing
    /// every server's SN pointer for site `j` (the only affected column).
    /// O(N × replicas of `j`). Used by the backtracking heuristic.
    ///
    /// # Panics
    /// Panics if the replica does not exist.
    pub fn remove_replica(&mut self, problem: &PlacementProblem, i: usize, j: usize) {
        assert!(self.is_replicated(i, j), "replica ({i}, {j}) absent");
        self.x[i * self.m + j] = false;
        let list = &mut self.holders[j];
        let at = list.partition_point(|&k| (k as usize) < i);
        list.remove(at);
        self.free_bytes[i] += problem.site_bytes[j];
        self.replica_count -= 1;
        for k in 0..self.n {
            self.nearest[k * self.m + j] = self.fresh_nearest(problem, k, j);
        }
    }

    /// Recompute every SN pointer from scratch — O(NM × replicas per
    /// site); used by tests to check the incremental maintenance.
    pub fn rebuild_nearest(&mut self, problem: &PlacementProblem) {
        for i in 0..self.n {
            for j in 0..self.m {
                self.nearest[i * self.m + j] = self.fresh_nearest(problem, i, j);
            }
        }
    }

    /// The nearest holder of site `j` for server `i`, derived from the
    /// holder list: the closest replicator, lowest index first among
    /// equals, and the primary only when no replica is strictly closer.
    fn fresh_nearest(&self, problem: &PlacementProblem, i: usize, j: usize) -> Nearest {
        let mut best = Nearest::Primary;
        let mut best_d = problem.dist_primary(i, j);
        for &k in &self.holders[j] {
            let d = problem.dist_servers(i, k as usize);
            if d < best_d || (d == best_d && best == Nearest::Primary) {
                best = Nearest::Server(k);
                best_d = d;
            }
        }
        best
    }

    /// Every holder of site `j` (each replicator plus the primary), ranked
    /// by distance from server `i` — the failover order when holders crash.
    /// Walks the site's holder list, so it costs O(replicas of `j`), not
    /// O(N).
    ///
    /// Rank 0 is always exactly `self.nearest(i, j)`: the incremental SN
    /// maintenance in [`add_replica`](Self::add_replica) breaks distance
    /// ties differently from a fresh sort (an existing pointer keeps its
    /// site on equal distance), so the head of the list is pinned to the
    /// live pointer rather than re-derived. The rest of the list is sorted
    /// by `(dist, server index)` with the primary last among equals.
    pub fn ranked_holders(
        &self,
        problem: &PlacementProblem,
        i: usize,
        j: usize,
    ) -> Vec<RankedHolder> {
        let mut holders: Vec<RankedHolder> = Vec::with_capacity(self.holders[j].len() + 1);
        holders.extend(self.holders[j].iter().map(|&k| RankedHolder {
            holder: Nearest::Server(k),
            dist: problem.dist_servers(i, k as usize),
        }));
        holders.push(RankedHolder {
            holder: Nearest::Primary,
            dist: problem.dist_primary(i, j),
        });
        // Primary sorts after any equally distant replica (replicas are
        // CDN-internal; the origin is the copy of last resort at a tie).
        holders.sort_by_key(|h| {
            (
                h.dist,
                match h.holder {
                    Nearest::Server(k) => k,
                    Nearest::Primary => u32::MAX,
                },
            )
        });
        let head = self.nearest(i, j);
        let pos = holders
            .iter()
            .position(|h| h.holder == head)
            .expect("SN pointer must be a holder");
        // `head` is at minimal distance (validate() guarantees it), so the
        // rotation below only reorders equal-distance entries.
        holders[..=pos].rotate_right(1);
        holders
    }

    /// Check all structural invariants; panics with a description on
    /// violation. Used by tests and `debug_assert!`s.
    pub fn validate(&self, problem: &PlacementProblem) {
        assert_eq!(self.n, problem.n_servers());
        assert_eq!(self.m, problem.m_sites());
        for i in 0..self.n {
            let used: u64 = (0..self.m)
                .filter(|&j| self.is_replicated(i, j))
                .map(|j| problem.site_bytes[j])
                .sum();
            assert_eq!(
                used + self.free_bytes[i],
                problem.capacities[i],
                "byte accounting broken at server {i}"
            );
        }
        for i in 0..self.n {
            for j in 0..self.m {
                // SN must point at an actual holder, and no holder may be
                // strictly closer.
                let d = match self.nearest(i, j) {
                    Nearest::Primary => problem.dist_primary(i, j),
                    Nearest::Server(k) => {
                        assert!(
                            self.is_replicated(k as usize, j),
                            "SN of ({i},{j}) points at non-replicator {k}"
                        );
                        problem.dist_servers(i, k as usize)
                    }
                };
                assert!(
                    d <= problem.dist_primary(i, j),
                    "SN of ({i},{j}) farther than primary"
                );
                for k in 0..self.n {
                    if self.is_replicated(k, j) {
                        assert!(
                            problem.dist_servers(i, k) >= d,
                            "server {k} closer to ({i},{j}) than its SN"
                        );
                    }
                }
                if self.is_replicated(i, j) {
                    assert_eq!(
                        self.nearest(i, j),
                        Nearest::Server(i as u32),
                        "replicator ({i},{j}) not its own SN"
                    );
                }
            }
        }
        for j in 0..self.m {
            let column: Vec<u32> = (0..self.n as u32)
                .filter(|&k| self.is_replicated(k as usize, j))
                .collect();
            assert_eq!(
                self.holders[j], column,
                "holder list of site {j} disagrees with x"
            );
        }
        let count = self.x.iter().filter(|&&b| b).count();
        assert_eq!(count, self.replica_count, "replica_count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testkit::*;

    fn problem() -> PlacementProblem {
        line_problem(4, 3, 1000, 2500, uniform_demand(4, 3, 10))
    }

    #[test]
    fn primaries_only_initial_state() {
        let p = problem();
        let pl = Placement::primaries_only(&p);
        assert_eq!(pl.replica_count(), 0);
        assert_eq!(pl.free_bytes(0), 2500);
        assert_eq!(pl.nearest(2, 1), Nearest::Primary);
        assert_eq!(pl.nearest_dist(&p, 2, 1), p.dist_primary(2, 1));
        pl.validate(&p);
    }

    #[test]
    fn add_replica_updates_everything() {
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 1, 0);
        assert!(pl.is_replicated(1, 0));
        assert_eq!(pl.free_bytes(1), 1500);
        assert_eq!(pl.replica_count(), 1);
        // Everyone now routes site 0 to server 1 (closer than any primary).
        for i in 0..4 {
            assert_eq!(pl.nearest(i, 0), Nearest::Server(1));
        }
        assert_eq!(pl.nearest_dist(&p, 3, 0), 2);
        pl.validate(&p);
    }

    #[test]
    fn closer_replica_takes_over() {
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 0);
        assert_eq!(pl.nearest(3, 0), Nearest::Server(0));
        pl.add_replica(&p, 3, 0);
        assert_eq!(pl.nearest(3, 0), Nearest::Server(3));
        assert_eq!(pl.nearest(2, 0), Nearest::Server(3));
        // Server 1 keeps the original, equally-near-or-closer copy.
        assert_eq!(pl.nearest(1, 0), Nearest::Server(0));
        pl.validate(&p);
    }

    #[test]
    fn incremental_matches_rebuild() {
        let p = problem();
        let mut incr = Placement::primaries_only(&p);
        incr.add_replica(&p, 0, 0);
        incr.add_replica(&p, 3, 0);
        incr.add_replica(&p, 2, 1);
        let mut rebuilt = incr.clone();
        rebuilt.rebuild_nearest(&p);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(
                    incr.nearest_dist(&p, i, j),
                    rebuilt.nearest_dist(&p, i, j),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fits_respects_capacity_and_duplicates() {
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        assert!(pl.fits(&p, 0, 0));
        pl.add_replica(&p, 0, 0);
        assert!(!pl.fits(&p, 0, 0), "duplicate accepted");
        pl.add_replica(&p, 0, 1);
        // 2500 - 2000 = 500 left; a 1000-byte site no longer fits.
        assert!(!pl.fits(&p, 0, 2));
    }

    #[test]
    fn replicators_and_sites_listings() {
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 2);
        pl.add_replica(&p, 3, 2);
        assert_eq!(pl.replicators_of(2), vec![0, 3]);
        assert_eq!(pl.sites_at(0), vec![2]);
        assert!(pl.sites_at(1).is_empty());
    }

    #[test]
    fn ranked_holders_head_is_sn_pointer_and_list_is_complete() {
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 0);
        pl.add_replica(&p, 3, 0);
        for i in 0..4 {
            let ranked = pl.ranked_holders(&p, i, 0);
            // Two replicators plus the primary, each exactly once.
            assert_eq!(ranked.len(), 3);
            assert_eq!(ranked[0].holder, pl.nearest(i, 0));
            assert_eq!(ranked[0].dist, pl.nearest_dist(&p, i, 0));
            for w in ranked.windows(2) {
                assert!(w[0].dist <= w[1].dist, "holders out of order: {ranked:?}");
            }
            let mut seen: Vec<Nearest> = ranked.iter().map(|h| h.holder).collect();
            seen.sort_by_key(|h| match h {
                Nearest::Server(k) => *k,
                Nearest::Primary => u32::MAX,
            });
            assert_eq!(
                seen,
                vec![Nearest::Server(0), Nearest::Server(3), Nearest::Primary]
            );
        }
    }

    #[test]
    fn ranked_holders_without_replicas_is_just_the_primary() {
        let p = problem();
        let pl = Placement::primaries_only(&p);
        let ranked = pl.ranked_holders(&p, 1, 2);
        assert_eq!(
            ranked,
            vec![RankedHolder {
                holder: Nearest::Primary,
                dist: p.dist_primary(1, 2),
            }]
        );
    }

    #[test]
    fn ranked_holders_head_tracks_incremental_tie_breaks() {
        // Two replicas equidistant from server 1: the incremental SN keeps
        // whichever arrived first, and ranked_holders must mirror that
        // pointer at rank 0 even though a fresh sort would pick the lower
        // index.
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 2, 0); // dist(1,2) = 1
        pl.add_replica(&p, 0, 0); // dist(1,0) = 1, not strictly closer
        assert_eq!(pl.nearest(1, 0), Nearest::Server(2));
        let ranked = pl.ranked_holders(&p, 1, 0);
        assert_eq!(ranked[0].holder, Nearest::Server(2));
        assert_eq!(ranked[1].holder, Nearest::Server(0));
        assert_eq!(ranked[0].dist, ranked[1].dist);
        assert_eq!(ranked[2].holder, Nearest::Primary);
    }

    #[test]
    #[should_panic(expected = "holder list of site 2 disagrees with x")]
    fn validate_checks_holder_lists_against_x() {
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 2);
        pl.add_replica(&p, 3, 2);
        pl.validate(&p);
        pl.holders[2].reverse();
        pl.validate(&p);
    }

    #[test]
    #[should_panic]
    fn double_add_panics() {
        let p = problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 0);
        pl.add_replica(&p, 0, 0);
    }

    #[test]
    #[should_panic]
    fn overfull_add_panics() {
        let p = line_problem(2, 2, 3000, 2500, uniform_demand(2, 2, 1));
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 0);
    }
}
