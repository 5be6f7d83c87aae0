//! The shared greedy/beam search kernel (§II-A).
//!
//! Every graph-traversal ANNS algorithm's search phase follows the same
//! loop: keep a *candidate list* of discovered-but-unexpanded vertices and
//! a *result list* of the best `ef` vertices seen; repeatedly expand the
//! closest candidate, compute distances to its never-visited neighbors, and
//! stop when the closest candidate is farther than the worst retained
//! result. This module implements that loop once, records the per-iteration
//! memory trace, and is reused by HNSW (per layer), Vamana, HCNNG and TOGG.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ndsearch_graph::csr::Csr;
use ndsearch_vector::quant::ScoreSource;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::trace::{IterationTrace, QueryTrace};

/// Reusable visited-set with O(1) epoch-based reset, so batch search does
/// not reallocate per query.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    epoch: u32,
    marks: Vec<u32>,
}

/// An empty set; it grows as vertices are marked.
impl Default for VisitedSet {
    fn default() -> Self {
        Self::new(0)
    }
}

impl VisitedSet {
    /// Creates a set covering `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            epoch: 1,
            marks: vec![0; n],
        }
    }

    /// Grows the set to cover `n` vertices (a no-op if it already does),
    /// so marking does not regrow it one vertex at a time.
    pub fn reserve(&mut self, n: usize) {
        if n > self.marks.len() {
            self.marks.resize(n, 0);
        }
    }

    /// Clears the set in O(1).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks a vertex; returns `true` if it was not already marked.
    /// The set grows on demand, so a searcher created before an online
    /// insert can still visit vertices appended while it was in flight.
    pub fn insert(&mut self, v: VectorId) -> bool {
        let i = v as usize;
        if i >= self.marks.len() {
            self.marks.resize(i + 1, 0);
        }
        let slot = &mut self.marks[i];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Unmarks a vertex; returns `true` if it was marked.
    pub fn remove(&mut self, v: VectorId) -> bool {
        match self.marks.get_mut(v as usize) {
            Some(slot) if *slot == self.epoch => {
                // Epochs start at 1, so 0 never reads as marked.
                *slot = 0;
                true
            }
            _ => false,
        }
    }

    /// Whether a vertex is marked (vertices beyond the allocated range are
    /// unmarked by definition).
    pub fn contains(&self, v: VectorId) -> bool {
        self.marks.get(v as usize) == Some(&self.epoch)
    }
}

/// Result of one beam search: the `ef` best neighbors found (ascending
/// distance) and the per-iteration trace.
#[derive(Debug, Clone)]
pub struct BeamResult {
    /// Best vertices found, ascending by distance.
    pub found: Vec<Neighbor>,
    /// Memory trace of the search.
    pub trace: QueryTrace,
}

/// What expanding the next candidate produced.
enum Expansion {
    /// Termination condition reached (or the candidate list ran dry).
    Finished,
    /// A candidate was expanded but every neighbor was already visited, so
    /// no feature vector was fetched (no trace iteration).
    Empty,
    /// A candidate (the carried id) was expanded and at least one new
    /// vector was fetched; the fetched ids are in the caller's buffer.
    Hop(VectorId),
}

/// Mutable view over one search's candidate list, result list and visited
/// set — borrowed by [`beam_search`] from its locals, and by
/// [`BeamSearcher::step`] from its fields.
struct Lists<'a> {
    visited: &'a mut VisitedSet,
    candidates: &'a mut BinaryHeap<Reverse<Neighbor>>,
    results: &'a mut BinaryHeap<Neighbor>,
    /// Reused distance buffer for batched neighbor scoring.
    scratch: &'a mut Vec<f32>,
}

impl Lists<'_> {
    /// Seeds the candidate/result lists with the entry vertices, leaving
    /// the newly visited ones in `fetched` (cleared first): iteration 0 of
    /// the trace, whose synthetic entry is `fetched[0]` (the entries count
    /// as visited/computed). Returns `false` if no entry was new.
    fn seed<S: ScoreSource + ?Sized>(
        &mut self,
        source: &S,
        query: &[f32],
        entries: &[VectorId],
        beam_width: usize,
        distance: DistanceKind,
        fetched: &mut Vec<VectorId>,
    ) -> bool {
        // Mark first, then score the new entries in one batched kernel
        // call. Marking never depends on distances, so this is
        // bit-identical to the per-entry eval loop it replaces.
        fetched.clear();
        for &e in entries {
            if self.visited.insert(e) {
                fetched.push(e);
            }
        }
        source.score_batch(distance, query, fetched, self.scratch);
        for (&e, &d) in fetched.iter().zip(self.scratch.iter()) {
            self.candidates.push(Reverse(Neighbor::new(d, e)));
            self.results.push(Neighbor::new(d, e));
        }
        while self.results.len() > beam_width {
            self.results.pop();
        }
        !fetched.is_empty()
    }

    /// Pops the closest candidate and expands its neighbor list — the loop
    /// body of §II-A, shared by the run-to-completion [`beam_search`] and
    /// the per-hop [`BeamSearcher`]. The never-visited neighbors it
    /// fetched are left in `fetched` (cleared first).
    fn expand_next<S: ScoreSource + ?Sized>(
        &mut self,
        source: &S,
        graph: &Csr,
        query: &[f32],
        beam_width: usize,
        distance: DistanceKind,
        fetched: &mut Vec<VectorId>,
    ) -> Expansion {
        fetched.clear();
        let Some(Reverse(current)) = self.candidates.pop() else {
            return Expansion::Finished;
        };
        // Termination: closest candidate is farther than the worst result
        // while the result list is full (§II-A's pre-defined condition).
        let worst = self
            .results
            .peek()
            .map(|n| n.distance)
            .unwrap_or(f32::INFINITY);
        if self.results.len() >= beam_width && current.distance > worst {
            return Expansion::Finished;
        }
        // Score the whole unvisited slice of the neighbor list in one
        // kernel call, then replay the insertion decisions in the original
        // edge order. Visited-marking and scoring don't interact, and the
        // batch reuses the per-pair kernel, so results are bit-identical
        // to the interleaved per-edge loop this replaces.
        for &nb in graph.neighbors(current.id) {
            if self.visited.insert(nb) {
                fetched.push(nb);
            }
        }
        source.score_batch(distance, query, fetched, self.scratch);
        for (&nb, &d) in fetched.iter().zip(self.scratch.iter()) {
            let worst = self
                .results
                .peek()
                .map(|n| n.distance)
                .unwrap_or(f32::INFINITY);
            if self.results.len() < beam_width || d < worst {
                self.candidates.push(Reverse(Neighbor::new(d, nb)));
                self.results.push(Neighbor::new(d, nb));
                if self.results.len() > beam_width {
                    self.results.pop();
                }
            }
        }
        if fetched.is_empty() {
            Expansion::Empty
        } else {
            Expansion::Hop(current.id)
        }
    }
}

/// Greedy beam search over `graph` from `entries`, retaining the best
/// `beam_width` results.
///
/// Generic over the [`ScoreSource`] candidates are scored against: the
/// full-precision `Dataset` (the classic path) or a DRAM-resident
/// `QuantCodes` table (compressed-vector traversal; the serving layer
/// reranks the final candidates against the dataset afterwards).
///
/// # Panics
/// Panics if `beam_width == 0` or an entry id is out of range.
pub fn beam_search<S: ScoreSource + ?Sized>(
    source: &S,
    graph: &Csr,
    query: &[f32],
    entries: &[VectorId],
    beam_width: usize,
    distance: DistanceKind,
    visited: &mut VisitedSet,
) -> BeamResult {
    assert!(beam_width > 0, "beam width must be positive");
    visited.clear();
    let mut trace = QueryTrace::default();

    // Candidate list: min-heap by distance. Result list: max-heap bounded
    // by beam_width (ef).
    let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
    let mut results: BinaryHeap<Neighbor> = BinaryHeap::new();
    let mut scratch: Vec<f32> = Vec::new();

    let mut lists = Lists {
        visited,
        candidates: &mut candidates,
        results: &mut results,
        scratch: &mut scratch,
    };

    // The initial entry vertices count as visited/computed: record them as
    // iteration 0 with a synthetic entry (the first entry vertex).
    let mut fetched = Vec::with_capacity(entries.len());
    if !lists.seed(source, query, entries, beam_width, distance, &mut fetched) {
        return BeamResult {
            found: Vec::new(),
            trace,
        };
    }
    trace.iterations.push(IterationTrace {
        entry: fetched[0],
        visited: std::mem::take(&mut fetched),
    });

    loop {
        // The trace keeps every hop's list, so each hop fills a fresh one.
        match lists.expand_next(source, graph, query, beam_width, distance, &mut fetched) {
            Expansion::Finished => break,
            Expansion::Empty => {}
            Expansion::Hop(entry) => trace.iterations.push(IterationTrace {
                entry,
                visited: std::mem::take(&mut fetched),
            }),
        }
    }

    let mut found = results.into_vec();
    found.sort_unstable();
    BeamResult { found, trace }
}

/// A beam search that yields one *hop* (one trace iteration: an entry
/// vertex expansion that fetched at least one new feature vector) per
/// [`step`](BeamSearcher::step) call, instead of running to completion.
///
/// This is the execution model the concurrent serving layer
/// (`ndsearch-core`'s `serve` module) needs: many in-flight queries each
/// hold a `BeamSearcher`, and a scheduler interleaves their hops across
/// flash channels. Driving a `BeamSearcher` to exhaustion visits exactly
/// the vertices, produces exactly the trace iterations, and returns exactly
/// the result list of a single [`beam_search`] call with the same
/// arguments.
///
/// Unlike [`beam_search`] (which shares a caller-provided [`VisitedSet`]
/// across a batch), each `BeamSearcher` owns its visited set, because
/// interleaved queries are all mid-flight at once.
#[derive(Debug, Clone)]
pub struct BeamSearcher {
    query: Vec<f32>,
    entries: Vec<VectorId>,
    beam_width: usize,
    distance: DistanceKind,
    visited: VisitedSet,
    candidates: BinaryHeap<Reverse<Neighbor>>,
    results: BinaryHeap<Neighbor>,
    scratch: Vec<f32>,
    seeded: bool,
    finished: bool,
    hops: usize,
}

impl BeamSearcher {
    /// Creates a searcher for one query over a graph of `num_vertices`
    /// vertices, starting from `entries`.
    ///
    /// # Panics
    /// Panics if `beam_width == 0`.
    pub fn new(
        num_vertices: usize,
        query: Vec<f32>,
        entries: Vec<VectorId>,
        beam_width: usize,
        distance: DistanceKind,
    ) -> Self {
        Self::with_visited(
            VisitedSet::new(num_vertices),
            query,
            entries,
            beam_width,
            distance,
        )
    }

    /// [`new`](Self::new) over a recycled visited set (cleared here, O(1)),
    /// so a scheduler admitting query after query does not allocate and
    /// zero a dataset-sized set each time. Reclaim it from a finished
    /// searcher with [`into_visited`](Self::into_visited).
    ///
    /// # Panics
    /// Panics if `beam_width == 0`.
    pub fn with_visited(
        mut visited: VisitedSet,
        query: Vec<f32>,
        entries: Vec<VectorId>,
        beam_width: usize,
        distance: DistanceKind,
    ) -> Self {
        assert!(beam_width > 0, "beam width must be positive");
        visited.clear();
        Self {
            query,
            entries,
            beam_width,
            distance,
            visited,
            candidates: BinaryHeap::new(),
            results: BinaryHeap::new(),
            scratch: Vec::new(),
            seeded: false,
            finished: false,
            hops: 0,
        }
    }

    /// Advances the search by one hop and returns its trace iteration, or
    /// `None` if the search has terminated. The first call seeds the entry
    /// vertices (iteration 0); candidate expansions whose neighbors were
    /// all already visited are skipped internally, so every `Some` fetches
    /// at least one vector. Termination is detected eagerly: after the
    /// final productive hop, [`is_finished`](Self::is_finished) is already
    /// `true`.
    ///
    /// Generic over the [`ScoreSource`] (full-precision rows or a
    /// compressed code table); a searcher must be driven against the same
    /// source for its whole lifetime.
    pub fn step<S: ScoreSource + ?Sized>(
        &mut self,
        source: &S,
        graph: &Csr,
    ) -> Option<IterationTrace> {
        let mut hop = IterationTrace::default();
        self.step_into(source, graph, &mut hop).then_some(hop)
    }

    /// [`step`](Self::step) writing the hop into a caller-owned record
    /// (its `visited` buffer is cleared and refilled, so a scheduler that
    /// keeps one record per slot allocates nothing per hop). Returns
    /// `false` — leaving `hop` unspecified — if the search has terminated.
    pub fn step_into<S: ScoreSource + ?Sized>(
        &mut self,
        source: &S,
        graph: &Csr,
        hop: &mut IterationTrace,
    ) -> bool {
        if self.finished {
            return false;
        }
        let mut lists = Lists {
            visited: &mut self.visited,
            candidates: &mut self.candidates,
            results: &mut self.results,
            scratch: &mut self.scratch,
        };
        if !self.seeded {
            self.seeded = true;
            let seeded = lists.seed(
                source,
                &self.query,
                &self.entries,
                self.beam_width,
                self.distance,
                &mut hop.visited,
            );
            if seeded {
                hop.entry = hop.visited[0];
                self.hops += 1;
                self.update_finished();
            } else {
                self.finished = true;
            }
            return seeded;
        }
        loop {
            match lists.expand_next(
                source,
                graph,
                &self.query,
                self.beam_width,
                self.distance,
                &mut hop.visited,
            ) {
                Expansion::Finished => {
                    self.finished = true;
                    return false;
                }
                Expansion::Empty => {}
                Expansion::Hop(entry) => {
                    hop.entry = entry;
                    self.hops += 1;
                    self.update_finished();
                    return true;
                }
            }
        }
    }

    /// Checks §II-A's termination condition without popping, so a query is
    /// known-finished in the same scheduling round as its last hop.
    fn update_finished(&mut self) {
        let worst = self
            .results
            .peek()
            .map(|n| n.distance)
            .unwrap_or(f32::INFINITY);
        match self.candidates.peek() {
            None => self.finished = true,
            Some(Reverse(c)) if self.results.len() >= self.beam_width && c.distance > worst => {
                self.finished = true;
            }
            _ => {}
        }
    }

    /// Whether the search has terminated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Hops (productive trace iterations) executed so far.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// Consumes the searcher, handing its visited set back for
    /// [`with_visited`](Self::with_visited).
    pub fn into_visited(self) -> VisitedSet {
        self.visited
    }

    /// Rescores the best `depth` approximate candidates against `exact`
    /// (the full-precision rows), replacing the result list with their
    /// exact distances — the rerank step of compressed-vector search
    /// (traversal scored DRAM-resident codes; the survivors pay flash
    /// reads for exact distances). Candidates beyond `depth` are
    /// dropped. Returns the rescored ids in ascending
    /// approximate-distance order so the caller can charge the flash
    /// reads they imply.
    pub fn rerank<S: ScoreSource + ?Sized>(&mut self, exact: &S, depth: usize) -> Vec<VectorId> {
        let mut approx = self.found();
        approx.truncate(depth);
        let ids: Vec<VectorId> = approx.iter().map(|n| n.id).collect();
        exact.score_batch(self.distance, &self.query, &ids, &mut self.scratch);
        self.results.clear();
        for (&id, &d) in ids.iter().zip(self.scratch.iter()) {
            self.results.push(Neighbor::new(d, id));
        }
        ids
    }

    /// The current result list, ascending by distance (the final top-`ef`
    /// once [`is_finished`](Self::is_finished); a partial best-so-far view
    /// before that, e.g. for deadline-expired queries).
    pub fn found(&self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.results.iter().cloned().collect();
        v.sort_unstable();
        v
    }
}

/// Pure greedy descent (beam width 1) used by HNSW's upper layers: walks to
/// the locally nearest vertex and returns it. Generic over the
/// [`ScoreSource`] like [`beam_search`].
pub fn greedy_descent<S: ScoreSource + ?Sized>(
    source: &S,
    graph: &Csr,
    query: &[f32],
    entry: VectorId,
    distance: DistanceKind,
    trace: &mut QueryTrace,
) -> Neighbor {
    let mut current = Neighbor::new(source.score_one(distance, query, entry), entry);
    let mut scratch: Vec<f32> = Vec::new();
    loop {
        let mut best = current;
        // One batched kernel call per expansion instead of per-edge eval.
        let iter_visited: Vec<VectorId> = graph.neighbors(current.id).to_vec();
        source.score_batch(distance, query, &iter_visited, &mut scratch);
        for (&nb, &d) in iter_visited.iter().zip(&scratch) {
            let cand = Neighbor::new(d, nb);
            if cand < best {
                best = cand;
            }
        }
        if !iter_visited.is_empty() {
            trace.iterations.push(IterationTrace {
                entry: current.id,
                visited: iter_visited,
            });
        }
        if best.id == current.id {
            return current;
        }
        current = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_vector::dataset::Dataset;
    use ndsearch_vector::recall::exact_knn;
    use ndsearch_vector::synthetic::DatasetSpec;

    fn grid_graph(ds: &Dataset, k: usize) -> Csr {
        // Exact KNN graph: brute force for each vertex.
        let lists: Vec<Vec<VectorId>> = (0..ds.len() as u32)
            .map(|v| {
                exact_knn(ds, ds.vector(v), k + 1, DistanceKind::L2)
                    .into_iter()
                    .filter(|n| n.id != v)
                    .take(k)
                    .map(|n| n.id)
                    .collect()
            })
            .collect();
        Csr::from_adjacency(&lists).unwrap()
    }

    #[test]
    fn visited_set_resets_in_o1() {
        let mut vs = VisitedSet::new(10);
        assert!(vs.insert(3));
        assert!(!vs.insert(3));
        assert!(vs.contains(3));
        vs.clear();
        assert!(!vs.contains(3));
        assert!(vs.insert(3));
        assert!(vs.remove(3));
        assert!(!vs.contains(3) && !vs.remove(3) && !vs.remove(99));
    }

    /// A single-cluster spec so the exact-KNN graph stays connected (the
    /// multi-cluster presets produce per-cluster components, which is what
    /// real ANNS graphs add long-range edges to fix).
    fn unimodal(n: usize, q: usize) -> DatasetSpec {
        DatasetSpec {
            clusters: 1,
            ..DatasetSpec::deep_scaled(n, q)
        }
    }

    #[test]
    fn beam_search_finds_true_nn_on_knn_graph() {
        let ds = unimodal(400, 1).build();
        let graph = grid_graph(&ds, 8);
        let mut vs = VisitedSet::new(ds.len());
        let q = ds.vector(123).to_vec();
        let out = beam_search(&ds, &graph, &q, &[0], 32, DistanceKind::L2, &mut vs);
        // The query *is* vertex 123, so the top hit must be 123 at d=0.
        assert_eq!(out.found[0].id, 123);
        assert_eq!(out.found[0].distance, 0.0);
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn wider_beam_never_hurts_recall() {
        let spec = unimodal(500, 8);
        let (base, queries) = spec.build_pair();
        let graph = grid_graph(&base, 8);
        let gt = ndsearch_vector::recall::ground_truth(&base, &queries, 10, DistanceKind::L2);
        let mut recalls = Vec::new();
        for ef in [4usize, 16, 64] {
            let mut vs = VisitedSet::new(base.len());
            let found: Vec<Vec<VectorId>> = queries
                .iter()
                .map(|(_, q)| {
                    beam_search(&base, &graph, q, &[0], ef, DistanceKind::L2, &mut vs)
                        .found
                        .iter()
                        .map(|n| n.id)
                        .collect()
                })
                .collect();
            recalls.push(ndsearch_vector::recall::recall_at_k(&gt, &found, 10));
        }
        assert!(recalls[2] >= recalls[0], "recalls = {recalls:?}");
        assert!(
            recalls[2] > 0.5,
            "ef=64 recall should be decent: {recalls:?}"
        );
    }

    #[test]
    fn trace_visits_each_vertex_once() {
        let ds = DatasetSpec::sift_scaled(300, 1).build();
        let graph = grid_graph(&ds, 6);
        let mut vs = VisitedSet::new(ds.len());
        let q = ds.vector(7).to_vec();
        let out = beam_search(&ds, &graph, &q, &[0, 5], 16, DistanceKind::L2, &mut vs);
        let seq: Vec<_> = out.trace.queries_flat();
        let set: std::collections::HashSet<_> = seq.iter().copied().collect();
        assert_eq!(seq.len(), set.len(), "no vertex visited twice");
    }

    #[test]
    fn greedy_descent_reaches_local_minimum() {
        let ds = DatasetSpec::deep_scaled(200, 1).build();
        let graph = grid_graph(&ds, 8);
        let q = ds.vector(50).to_vec();
        let mut trace = QueryTrace::default();
        let end = greedy_descent(&ds, &graph, &q, 0, DistanceKind::L2, &mut trace);
        // The endpoint must be no worse than any of its graph neighbors.
        for &nb in graph.neighbors(end.id) {
            let d = DistanceKind::L2.eval(&q, ds.vector(nb));
            assert!(d >= end.distance);
        }
    }

    #[test]
    fn stepwise_search_matches_run_to_completion() {
        let (base, queries) = unimodal(400, 6).build_pair();
        let graph = grid_graph(&base, 8);
        let mut vs = VisitedSet::new(base.len());
        for (_, q) in queries.iter() {
            let whole = beam_search(&base, &graph, q, &[0, 9], 16, DistanceKind::L2, &mut vs);
            let mut stepper =
                BeamSearcher::new(base.len(), q.to_vec(), vec![0, 9], 16, DistanceKind::L2);
            let mut iterations = Vec::new();
            while let Some(it) = stepper.step(&base, &graph) {
                iterations.push(it);
            }
            assert!(stepper.is_finished());
            assert_eq!(iterations, whole.trace.iterations, "trace must match");
            assert_eq!(stepper.found(), whole.found, "results must match");
            assert_eq!(stepper.hops(), whole.trace.iterations.len());
        }
    }

    #[test]
    fn recycled_visited_set_and_hop_record_change_nothing() {
        // One visited set and one hop record reused across queries (what
        // the serving scheduler does) against a fresh searcher per query.
        let (base, queries) = unimodal(400, 6).build_pair();
        let graph = grid_graph(&base, 8);
        let mut visited = VisitedSet::new(base.len());
        let mut hop = IterationTrace::default();
        for (_, q) in queries.iter() {
            let mut fresh =
                BeamSearcher::new(base.len(), q.to_vec(), vec![0, 9], 16, DistanceKind::L2);
            let mut reused =
                BeamSearcher::with_visited(visited, q.to_vec(), vec![0, 9], 16, DistanceKind::L2);
            while let Some(want) = fresh.step(&base, &graph) {
                assert!(reused.step_into(&base, &graph, &mut hop));
                assert_eq!(hop, want);
                assert_eq!(reused.is_finished(), fresh.is_finished());
            }
            assert!(!reused.step_into(&base, &graph, &mut hop));
            assert_eq!(reused.found(), fresh.found());
            visited = reused.into_visited();
        }
    }

    #[test]
    fn interleaved_searchers_are_independent() {
        // Stepping two searchers in lockstep must give the same outcome as
        // running each alone — the serving engine relies on this.
        let (base, queries) = unimodal(300, 2).build_pair();
        let graph = grid_graph(&base, 6);
        let mk = |qi: u32| {
            BeamSearcher::new(
                base.len(),
                queries.vector(qi).to_vec(),
                vec![0],
                8,
                DistanceKind::L2,
            )
        };
        let mut a = mk(0);
        let mut b = mk(1);
        while !(a.is_finished() && b.is_finished()) {
            a.step(&base, &graph);
            b.step(&base, &graph);
        }
        let mut vs = VisitedSet::new(base.len());
        let ra = beam_search(
            &base,
            &graph,
            queries.vector(0),
            &[0],
            8,
            DistanceKind::L2,
            &mut vs,
        );
        let rb = beam_search(
            &base,
            &graph,
            queries.vector(1),
            &[0],
            8,
            DistanceKind::L2,
            &mut vs,
        );
        assert_eq!(a.found(), ra.found);
        assert_eq!(b.found(), rb.found);
    }

    #[test]
    fn searcher_finishes_eagerly_and_steps_after_finish_are_none() {
        let ds = DatasetSpec::sift_scaled(100, 1).build();
        let graph = grid_graph(&ds, 4);
        let mut s = BeamSearcher::new(
            ds.len(),
            ds.vector(3).to_vec(),
            vec![3],
            4,
            DistanceKind::L2,
        );
        while s.step(&ds, &graph).is_some() {}
        assert!(s.is_finished());
        assert!(s.step(&ds, &graph).is_none());
        assert!(!s.found().is_empty());
    }

    #[test]
    fn searcher_with_no_entries_finishes_immediately() {
        let ds = DatasetSpec::sift_scaled(50, 1).build();
        let graph = grid_graph(&ds, 4);
        let mut s = BeamSearcher::new(
            ds.len(),
            ds.vector(0).to_vec(),
            Vec::new(),
            8,
            DistanceKind::L2,
        );
        assert!(s.step(&ds, &graph).is_none());
        assert!(s.is_finished());
        assert!(s.found().is_empty());
    }

    #[test]
    fn empty_entries_return_empty() {
        let ds = DatasetSpec::sift_scaled(50, 1).build();
        let graph = grid_graph(&ds, 4);
        let mut vs = VisitedSet::new(ds.len());
        let out = beam_search(&ds, &graph, ds.vector(0), &[], 8, DistanceKind::L2, &mut vs);
        assert!(out.found.is_empty());
    }

    impl QueryTrace {
        fn queries_flat(&self) -> Vec<VectorId> {
            self.visited_sequence().collect()
        }
    }
}
