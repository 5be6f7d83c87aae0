//! Search memory traces.
//!
//! A trace captures, for every query and every search iteration, the entry
//! vertex whose neighbor list was expanded and the neighbor vertices whose
//! feature vectors were fetched and compared. This is exactly the input the
//! paper's trace-driven simulator consumes, and the granularity (iteration
//! boundaries) is what dynamic scheduling and speculative searching key off.

use ndsearch_graph::reorder::Permutation;
use ndsearch_vector::VectorId;

/// One search iteration: the loop body of §II-A's search phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterationTrace {
    /// The entry vertex of this iteration (the closest unexpanded
    /// candidate, whose neighbor list is read).
    pub entry: VectorId,
    /// Neighbors whose feature vectors were read and compared this
    /// iteration (never-visited neighbors of `entry`).
    pub visited: Vec<VectorId>,
}

/// The full trace of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Iterations in execution order.
    pub iterations: Vec<IterationTrace>,
}

impl QueryTrace {
    /// Total vertices whose vectors were fetched ("length of the searching
    /// trace" in Fig. 4's metric).
    pub fn len(&self) -> usize {
        self.iterations.iter().map(|it| it.visited.len()).sum()
    }

    /// Whether the query visited nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All visited vertex ids in order.
    pub fn visited_sequence(&self) -> impl Iterator<Item = VectorId> + '_ {
        self.iterations
            .iter()
            .flat_map(|it| it.visited.iter().copied())
    }
}

/// Traces for a whole batch of queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchTrace {
    /// One trace per query, in batch order.
    pub queries: Vec<QueryTrace>,
}

impl BatchTrace {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total visited vertices across the batch.
    pub fn total_visited(&self) -> u64 {
        self.queries.iter().map(|q| q.len() as u64).sum()
    }

    /// Longest per-query iteration count — the number of engine rounds a
    /// synchronous batch needs.
    pub fn max_iterations(&self) -> usize {
        self.queries
            .iter()
            .map(|q| q.iterations.len())
            .max()
            .unwrap_or(0)
    }

    /// Mean visited vertices per query.
    pub fn mean_trace_len(&self) -> f64 {
        if self.queries.is_empty() {
            0.0
        } else {
            self.total_visited() as f64 / self.queries.len() as f64
        }
    }

    /// Rewrites every vertex id through a reordering permutation, so traces
    /// recorded against construction-order ids can be replayed against the
    /// reordered/remapped layout without re-running the search.
    pub fn relabel(&self, perm: &Permutation) -> BatchTrace {
        BatchTrace {
            queries: self
                .queries
                .iter()
                .map(|q| QueryTrace {
                    iterations: q
                        .iterations
                        .iter()
                        .map(|it| IterationTrace {
                            entry: perm.new_of(it.entry),
                            visited: it.visited.iter().map(|&v| perm.new_of(v)).collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Distinct vertices visited by the whole batch.
    pub fn distinct_visited(&self) -> std::collections::HashSet<VectorId> {
        self.queries
            .iter()
            .flat_map(|q| q.visited_sequence())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchTrace {
        BatchTrace {
            queries: vec![
                QueryTrace {
                    iterations: vec![
                        IterationTrace {
                            entry: 0,
                            visited: vec![1, 2],
                        },
                        IterationTrace {
                            entry: 1,
                            visited: vec![3],
                        },
                    ],
                },
                QueryTrace {
                    iterations: vec![IterationTrace {
                        entry: 2,
                        visited: vec![0],
                    }],
                },
            ],
        }
    }

    #[test]
    fn counts_are_consistent() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_visited(), 4);
        assert_eq!(t.max_iterations(), 2);
        assert!((t.mean_trace_len() - 2.0).abs() < 1e-12);
        assert_eq!(t.queries[0].len(), 3);
    }

    #[test]
    fn relabel_rewrites_everything() {
        let t = sample();
        let perm = Permutation::from_new_of_old(vec![3, 2, 1, 0]).unwrap();
        let r = t.relabel(&perm);
        assert_eq!(r.queries[0].iterations[0].entry, 3);
        assert_eq!(r.queries[0].iterations[0].visited, vec![2, 1]);
        assert_eq!(r.queries[1].iterations[0].visited, vec![3]);
        // Structure preserved.
        assert_eq!(r.total_visited(), t.total_visited());
    }

    #[test]
    fn distinct_visited_dedups() {
        let t = sample();
        let d = t.distinct_visited();
        assert_eq!(d.len(), 4); // {0,1,2,3}
    }

    #[test]
    fn empty_batch_is_sane() {
        let t = BatchTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.total_visited(), 0);
        assert_eq!(t.max_iterations(), 0);
        assert_eq!(t.mean_trace_len(), 0.0);
    }
}
