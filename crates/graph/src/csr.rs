//! Compressed sparse row adjacency.
//!
//! §IV-B: "CSR is widely used as an efficient format to store graphs. The
//! original CSR format consists of three one-dimensional arrays: offset,
//! neighbor, and vertex arrays." The vertex (feature) array lives in
//! [`ndsearch_vector::Dataset`]; this type holds the offset and neighbor
//! arrays and the operations the rest of the workspace needs (degree
//! queries, relabeling under a permutation, validation).

use ndsearch_vector::VectorId;

use crate::reorder::Permutation;

/// CSR adjacency over `num_vertices` vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<VectorId>,
}

/// Errors constructing a [`Csr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// A neighbor id referenced a vertex outside `0..num_vertices`.
    NeighborOutOfRange {
        /// Owning vertex.
        vertex: VectorId,
        /// Offending neighbor id.
        neighbor: VectorId,
    },
    /// More than `u32::MAX` total edges.
    TooManyEdges,
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::NeighborOutOfRange { vertex, neighbor } => {
                write!(
                    f,
                    "vertex {vertex} references out-of-range neighbor {neighbor}"
                )
            }
            CsrError::TooManyEdges => write!(f, "edge count exceeds u32 range"),
        }
    }
}

impl std::error::Error for CsrError {}

impl Csr {
    /// Builds a CSR from per-vertex adjacency lists.
    ///
    /// # Errors
    /// Returns [`CsrError::NeighborOutOfRange`] if a list references a
    /// vertex ≥ `lists.len()`.
    pub fn from_adjacency(lists: &[Vec<VectorId>]) -> Result<Self, CsrError> {
        Self::from_rows(lists.iter().map(Vec::as_slice))
    }

    /// Builds a CSR from one neighbor slice per vertex, in vertex order —
    /// [`Csr::from_adjacency`] for adjacency that is not stored as a
    /// `Vec` per vertex.
    ///
    /// # Errors
    /// Returns [`CsrError::NeighborOutOfRange`] if a row references a
    /// vertex ≥ the number of rows.
    pub fn from_rows<'a>(
        rows: impl ExactSizeIterator<Item = &'a [VectorId]> + Clone,
    ) -> Result<Self, CsrError> {
        let n = rows.len();
        let total: usize = rows.clone().map(<[VectorId]>::len).sum();
        if total > u32::MAX as usize {
            return Err(CsrError::TooManyEdges);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(total);
        offsets.push(0u32);
        for (v, row) in rows.enumerate() {
            if let Some(&neighbor) = row.iter().find(|&&nb| nb as usize >= n) {
                return Err(CsrError::NeighborOutOfRange {
                    vertex: v as VectorId,
                    neighbor,
                });
            }
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len() as u32);
        }
        Ok(Self { offsets, neighbors })
    }

    /// Builds a CSR from an edge list; `undirected` adds both directions.
    ///
    /// # Errors
    /// Same as [`Csr::from_adjacency`].
    pub fn from_edges(
        n: usize,
        edges: &[(VectorId, VectorId)],
        undirected: bool,
    ) -> Result<Self, CsrError> {
        let mut lists = vec![Vec::new(); n];
        for &(a, b) in edges {
            if (a as usize) >= n {
                return Err(CsrError::NeighborOutOfRange {
                    vertex: a,
                    neighbor: a,
                });
            }
            if (b as usize) >= n {
                return Err(CsrError::NeighborOutOfRange {
                    vertex: a,
                    neighbor: b,
                });
            }
            lists[a as usize].push(b);
            if undirected {
                lists[b as usize].push(a);
            }
        }
        Self::from_adjacency(&lists)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Neighbor list of a vertex.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VectorId) -> &[VectorId] {
        let i = v as usize;
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Out-degree of a vertex.
    pub fn degree(&self, v: VectorId) -> usize {
        self.neighbors(v).len()
    }

    /// The raw offset array (length `n + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VectorId))
            .max()
            .unwrap_or(0)
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Relabels all vertices under a permutation: new vertex `perm.new_of(v)`
    /// takes old vertex `v`'s adjacency (with neighbor ids rewritten).
    ///
    /// # Panics
    /// Panics if the permutation's length differs from the vertex count.
    pub fn relabel(&self, perm: &Permutation) -> Csr {
        assert_eq!(perm.len(), self.num_vertices(), "permutation size mismatch");
        let n = self.num_vertices();
        let mut lists: Vec<Vec<VectorId>> = vec![Vec::new(); n];
        for old in 0..n as u32 {
            let new = perm.new_of(old);
            let list: Vec<VectorId> = self
                .neighbors(old)
                .iter()
                .map(|&nb| perm.new_of(nb))
                .collect();
            lists[new as usize] = list;
        }
        Csr::from_adjacency(&lists).expect("relabel preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_adjacency(&[vec![1, 2], vec![0], vec![0, 1], vec![]]).unwrap()
    }

    #[test]
    fn from_adjacency_round_trips() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        let err = Csr::from_adjacency(&[vec![5]]).unwrap_err();
        assert_eq!(
            err,
            CsrError::NeighborOutOfRange {
                vertex: 0,
                neighbor: 5
            }
        );
    }

    #[test]
    fn from_edges_undirected_doubles() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)], true).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn degree_stats() {
        let g = sample();
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn relabel_swaps_ids() {
        let g = Csr::from_adjacency(&[vec![1], vec![0], vec![0]]).unwrap();
        // Swap 0 and 2.
        let perm = Permutation::from_new_of_old(vec![2, 1, 0]).unwrap();
        let r = g.relabel(&perm);
        // Old 0 (neighbors [1]) is now vertex 2.
        assert_eq!(r.neighbors(2), &[1]);
        // Old 2 (neighbors [0]) is now vertex 0 and points at new id 2.
        assert_eq!(r.neighbors(0), &[2]);
    }
}
