//! Precedence graphs with incremental transitive closure.
//!
//! "A precedence graph is a directed acyclic graph that represents the
//! partial order of operations in some history; there is an edge from p
//! to q if p precedes q" (§5.3). The `lingraph` construction needs two
//! fast primitives — *does adding this edge create a cycle?* and *add
//! the edge, maintaining reachability* — which a bit-matrix transitive
//! closure provides in `O(k²/64)` per edge.

/// A dense boolean matrix over `n` nodes, rows packed into `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl BitMatrix {
    /// An all-false `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            n,
            words,
            rows: vec![0; n * words],
        }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Read cell `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        self.rows[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// Set cell `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        self.rows[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// `row(dst) |= row(src)`.
    pub fn or_row(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let (d, s) = (dst * self.words, src * self.words);
        // Split to satisfy the borrow checker without copying.
        if d < s {
            let (a, b) = self.rows.split_at_mut(s);
            for w in 0..self.words {
                a[d + w] |= b[w];
            }
        } else {
            let (a, b) = self.rows.split_at_mut(d);
            for w in 0..self.words {
                b[w] |= a[s + w];
            }
        }
    }

    /// Iterate the set column indices of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let base = i * self.words;
        (0..self.words)
            .flat_map(move |w| {
                let mut bits = self.rows[base + w];
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(w * 64 + b)
                    }
                })
            })
            .filter(move |&j| j < self.n)
    }
}

/// A DAG over operation nodes with maintained transitive closure.
///
/// `reaches(i, j)` answers "is there a path from i to j" in O(1);
/// `add_edge` updates the closure and is rejected (returns `false`) when
/// it would create a cycle — exactly the test on lines 7 and 10 of
/// Figure 3.
#[derive(Clone, Debug)]
pub struct ClosedDag {
    /// Direct edges (for topological sorting and inspection).
    adj: Vec<Vec<usize>>,
    /// Transitive closure: `reach[i][j]` iff a non-empty path i → j.
    reach: BitMatrix,
}

impl ClosedDag {
    /// An edgeless DAG over `n` nodes.
    pub fn new(n: usize) -> Self {
        ClosedDag {
            adj: vec![Vec::new(); n],
            reach: BitMatrix::new(n),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Is there a (non-empty) path from `i` to `j`?
    pub fn reaches(&self, i: usize, j: usize) -> bool {
        self.reach.get(i, j)
    }

    /// Would adding `u → v` create a cycle?
    pub fn would_cycle(&self, u: usize, v: usize) -> bool {
        u == v || self.reaches(v, u)
    }

    /// Add edge `u → v` unless it would close a cycle; returns whether
    /// `u → v` now holds. An edge the closure already implies is not
    /// recorded: reachability is unchanged, and so is every
    /// [`topo_sort_by_key`](Self::topo_sort_by_key) — a node is ready
    /// once its direct predecessors are out, and those are out only
    /// after all of its ancestors.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if self.would_cycle(u, v) {
            return false;
        }
        if self.reaches(u, v) {
            return true;
        }
        self.adj[u].push(v);
        // Everything reaching u (plus u itself) now reaches v and
        // everything v reaches — unless it reached v before, and so
        // all of that. (Column u is stable meanwhile: v cannot reach u.)
        for a in 0..self.len() {
            if (a == u || self.reach.get(a, u)) && !self.reach.get(a, v) {
                self.reach.set(a, v);
                self.reach.or_row(a, v);
            }
        }
        true
    }

    /// Recorded successors of `i`: the edges that were not already
    /// implied when added, so a superset of the transitive reduction.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Deterministic topological sort: Kahn's algorithm choosing the
    /// smallest `key` among ready nodes, so every process computing the
    /// sort of the same graph gets the same order.
    pub fn topo_sort_by_key<K: Ord>(&self, key: impl Fn(usize) -> K) -> Vec<usize> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for u in 0..n {
            for &v in &self.adj[u] {
                indeg[v] += 1;
            }
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<(K, usize)>> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| std::cmp::Reverse((key(i), i)))
            .collect();
        let mut out = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse((_, u))) = ready.pop() {
            out.push(u);
            for &v in &self.adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(std::cmp::Reverse((key(v), v)));
                }
            }
        }
        assert_eq!(out.len(), n, "graph contains a cycle");
        out
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity, clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn bit_matrix_basics() {
        let mut m = BitMatrix::new(70);
        assert_eq!(m.len(), 70);
        assert!(!m.is_empty());
        assert!(!m.get(0, 69));
        m.set(0, 69);
        m.set(0, 3);
        assert!(m.get(0, 69));
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![3, 69]);
        m.set(1, 5);
        m.or_row(0, 1);
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![3, 5, 69]);
        // or_row with dst == src is a no-op.
        m.or_row(1, 1);
        assert_eq!(m.row_iter(1).collect::<Vec<_>>(), vec![5]);
        // or_row upward (src < dst).
        m.or_row(1, 0);
        assert_eq!(m.row_iter(1).collect::<Vec<_>>(), vec![3, 5, 69]);
    }

    #[test]
    fn closure_tracks_paths() {
        let mut g = ClosedDag::new(4);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(g.reaches(0, 2));
        assert!(!g.reaches(2, 0));
        assert!(g.add_edge(3, 0));
        assert!(g.reaches(3, 2));
        assert_eq!(g.successors(0), &[1]);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut g = ClosedDag::new(3);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(g.would_cycle(2, 0));
        assert!(!g.add_edge(2, 0));
        assert!(g.would_cycle(0, 0));
        assert!(!g.add_edge(0, 0));
        // Rejection leaves the graph unchanged.
        assert!(!g.reaches(2, 0));
    }

    #[test]
    fn topo_sort_is_deterministic_and_valid() {
        let mut g = ClosedDag::new(5);
        g.add_edge(3, 1);
        g.add_edge(3, 0);
        g.add_edge(1, 4);
        g.add_edge(0, 4);
        let order = g.topo_sort_by_key(|i| i);
        // Valid: every edge respected.
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (k, &i) in order.iter().enumerate() {
                p[i] = k;
            }
            p
        };
        for u in 0..5 {
            for &v in g.successors(u) {
                assert!(pos[u] < pos[v]);
            }
        }
        // Deterministic smallest-key-first: 2 and 3 are the only roots.
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 3);
        assert_eq!(order, g.topo_sort_by_key(|i| i));
    }

    proptest::proptest! {
        /// Random edge insertions never produce a cycle, and closure
        /// agrees with a recomputed DFS reachability.
        #[test]
        fn closure_agrees_with_dfs(edges in proptest::collection::vec((0usize..12, 0usize..12), 0..60)) {
            let mut g = ClosedDag::new(12);
            for (u, v) in edges {
                let _ = g.add_edge(u, v);
            }
            // DFS reference.
            for s in 0..12 {
                let mut seen = [false; 12];
                let mut stack: Vec<usize> = g.successors(s).to_vec();
                while let Some(x) = stack.pop() {
                    if !seen[x] {
                        seen[x] = true;
                        stack.extend_from_slice(g.successors(x));
                    }
                }
                for t in 0..12 {
                    proptest::prop_assert_eq!(g.reaches(s, t), seen[t], "{} -> {}", s, t);
                }
            }
            // And the graph must topologically sort (acyclic).
            let _ = g.topo_sort_by_key(|i| i);
        }

        /// `add_edge` records no edge the closure already implies, and
        /// which edges those are depends on insertion order. The sort
        /// does not: it equals Kahn's algorithm run over *every* edge,
        /// redundant ones included.
        #[test]
        fn topo_sort_ignores_redundant_edges(
            raw in proptest::collection::vec((0usize..12, 0usize..12), 0..60),
            keys in proptest::collection::vec(0u8..4, 12..=12),
        ) {
            let edges: Vec<(usize, usize)> = raw
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            let key = |i: usize| (keys[i], i);
            let mut reference = Vec::new();
            while reference.len() < 12 {
                let next = (0..12)
                    .filter(|v| !reference.contains(v))
                    .filter(|&v| edges.iter().all(|&(a, b)| b != v || reference.contains(&a)))
                    .min_by_key(|&v| key(v))
                    .expect("forward edges cannot cycle");
                reference.push(next);
            }
            let (mut fwd, mut rev) = (ClosedDag::new(12), ClosedDag::new(12));
            for &(a, b) in &edges {
                proptest::prop_assert!(fwd.add_edge(a, b));
            }
            for &(a, b) in edges.iter().rev() {
                proptest::prop_assert!(rev.add_edge(a, b));
            }
            proptest::prop_assert_eq!(&fwd.topo_sort_by_key(key), &reference);
            proptest::prop_assert_eq!(&rev.topo_sort_by_key(key), &reference);
        }
    }
}
