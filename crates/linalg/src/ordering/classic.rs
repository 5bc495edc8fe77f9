//! The original greedy ordering: plain minimum degree, kept as the fill
//! oracle the quotient-graph AMD is validated against.
//!
//! It reads the shared flat-CSR symmetrized adjacency
//! ([`super::AdjacencyCsr`]) — offsets plus one index buffer — and
//! materializes only its *mutable* working lists per vertex, because
//! elimination rewrites them.

use super::AdjacencyCsr;
use crate::CscMatrix;

/// Greedy minimum-degree ordering on the symmetrized pattern of `a`.
///
/// Returns a permutation `perm` such that `perm[k]` is the original index of
/// the column eliminated at step `k`. This is a plain (quotient-graph-free)
/// minimum-degree: degrees are updated by merging the pivot's neighborhood
/// into each neighbor. It survives as the **test oracle** for
/// [`amd_ordering`](super::amd_ordering) — exact degrees, trivially
/// auditable — and as a single-block reference ordering for
/// [`SparseLu::factor_ordered`](crate::SparseLu::factor_ordered);
/// production factorizations always take the AMD+BTF path.
///
/// # Example
///
/// ```
/// use ohmflow_linalg::verify::min_degree_ordering;
/// use ohmflow_linalg::TripletMatrix;
///
/// let mut t = TripletMatrix::new(3, 3);
/// for i in 0..3 { t.push(i, i, 1.0); }
/// t.push(0, 1, 1.0);
/// t.push(1, 2, 1.0);
/// let perm = min_degree_ordering(&t.to_csc());
/// assert_eq!(perm.len(), 3);
/// ```
pub fn min_degree_ordering(a: &CscMatrix) -> Vec<usize> {
    let n = a.cols();
    let csr = AdjacencyCsr::build(a);
    // Elimination rewrites each vertex's list, so the immutable CSR is
    // expanded into per-vertex working lists here (and only here).
    let mut adj: Vec<Vec<usize>> = (0..n).map(|v| csr.neighbors(v).to_vec()).collect();
    let mut eliminated = vec![false; n];
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut perm = Vec::with_capacity(n);

    // Bucketed selection: `buckets[d]` holds the live vertices of current
    // degree `d` as an ordered set, so the pivot — the minimum
    // `(degree, index)` pair, the same tie-break the historical linear scan
    // applied — pops in `O(log n)` instead of an `O(n)` scan per round.
    // `min_deg` only moves down when an update lowers a degree below it and
    // climbs past drained buckets otherwise, so bucket maintenance is
    // `O((moves + n) log n)` overall instead of the old `O(n²)` selection.
    // The clique merges below dedup through a stamp array and reuse two
    // scratch buffers instead of allocating/sorting per neighbor — the
    // resulting permutation is identical (degrees are set sizes and the
    // selection tie-breaks on vertex index, neither depends on adjacency
    // order), but a full factorization stops being dominated by the
    // ordering phase.
    let mut buckets: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n + 1];
    for (v, &d) in degree.iter().enumerate() {
        buckets[d].insert(v);
    }
    let mut min_deg = 0usize;
    let mut nbrs: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    let mut stamp = vec![usize::MAX; n];
    for round in 0..n {
        while buckets[min_deg].is_empty() {
            min_deg += 1;
        }
        let p = *buckets[min_deg]
            .first()
            .expect("invariant: the minimum-degree bucket is nonempty");
        buckets[min_deg].remove(&p);
        eliminated[p] = true;
        perm.push(p);

        // Form the clique of p's remaining neighbors.
        nbrs.clear();
        nbrs.extend(adj[p].iter().copied().filter(|&u| !eliminated[u]));
        for ui in 0..nbrs.len() {
            let u = nbrs[ui];
            // Merge: u's new neighborhood is (old ∪ nbrs) \ {u, eliminated}.
            merged.clear();
            let tag = round * n + ui; // unique per (round, neighbor)
            for &w in adj[u].iter().chain(&nbrs) {
                if w != u && !eliminated[w] && stamp[w] != tag {
                    stamp[w] = tag;
                    merged.push(w);
                }
            }
            if degree[u] != merged.len() {
                buckets[degree[u]].remove(&u);
                buckets[merged.len()].insert(u);
                degree[u] = merged.len();
                min_deg = min_deg.min(merged.len());
            }
            adj[u].clear();
            adj[u].extend_from_slice(&merged);
        }
        adj[p] = Vec::new();
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn chain(n: usize) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csc()
    }

    fn is_permutation(p: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        p.iter().all(|&i| {
            if i < n && !seen[i] {
                seen[i] = true;
                true
            } else {
                false
            }
        }) && p.len() == n
    }

    #[test]
    fn min_degree_is_a_permutation() {
        let a = chain(17);
        assert!(is_permutation(&min_degree_ordering(&a), 17));
    }

    #[test]
    fn min_degree_eliminates_leaves_first_on_star() {
        // Star graph: center 0 connected to 1..=4. Leaves have degree 1 and
        // must all be eliminated before the center.
        let mut t = TripletMatrix::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 1.0);
        }
        for leaf in 1..5 {
            t.push(0, leaf, 1.0);
            t.push(leaf, 0, 1.0);
        }
        let perm = min_degree_ordering(&t.to_csc());
        // The center (degree 4) must not be eliminated while any leaf still
        // has a strictly smaller degree; after three leaves go, the center
        // ties at degree 1 and either order is a valid minimum degree.
        let center_pos = perm.iter().position(|&v| v == 0).expect("center present");
        assert!(center_pos >= 3, "center eliminated too early: {perm:?}");
    }

    /// The historical O(n²) selection scan over `Vec<Vec>` adjacency, kept
    /// verbatim as the oracle for the bucketed version: minimum degree,
    /// ties broken by vertex index.
    fn min_degree_reference(a: &CscMatrix) -> Vec<usize> {
        let n = a.cols();
        let csr = AdjacencyCsr::build(a);
        let mut adj: Vec<Vec<usize>> = (0..n).map(|v| csr.neighbors(v).to_vec()).collect();
        let mut eliminated = vec![false; n];
        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut perm = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best = usize::MAX;
            let mut best_deg = usize::MAX;
            for v in 0..n {
                if !eliminated[v] && degree[v] < best_deg {
                    best_deg = degree[v];
                    best = v;
                    if best_deg == 0 {
                        break;
                    }
                }
            }
            let p = best;
            eliminated[p] = true;
            perm.push(p);
            let nbrs: Vec<usize> = adj[p].iter().copied().filter(|&u| !eliminated[u]).collect();
            for &u in &nbrs {
                let mut merged: Vec<usize> = adj[u]
                    .iter()
                    .chain(&nbrs)
                    .copied()
                    .filter(|&w| w != u && !eliminated[w])
                    .collect();
                merged.sort_unstable();
                merged.dedup();
                degree[u] = merged.len();
                adj[u] = merged;
            }
            adj[p] = Vec::new();
        }
        perm
    }

    #[test]
    fn bucketed_selection_matches_reference_scan() {
        // Deterministic pseudo-random patterns of assorted shapes: the
        // bucketed (degree, index) pop must reproduce the scan exactly.
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = |m: usize| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((lcg >> 33) as usize) % m
        };
        for trial in 0..30 {
            let n = 2 + next(40);
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                t.push(i, i, 1.0);
            }
            for _ in 0..(1 + next(3 * n)) {
                t.push(next(n), next(n), 1.0);
            }
            let a = t.to_csc();
            assert_eq!(
                min_degree_ordering(&a),
                min_degree_reference(&a),
                "trial {trial} (n = {n})"
            );
        }
    }

    #[test]
    fn handles_empty_matrix() {
        let t = TripletMatrix::new(0, 0);
        assert!(min_degree_ordering(&t.to_csc()).is_empty());
    }

    #[test]
    fn handles_disconnected_components() {
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 1.0);
        }
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        // component {2}, {3} isolated
        assert!(is_permutation(&min_degree_ordering(&t.to_csc()), 4));
    }
}
