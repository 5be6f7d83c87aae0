//! Search-kernel oracle: `anns::beam` as it was written before the two
//! lists became one sorted frontier — §II-A's textbook formulation, a
//! min-heap of candidates and a bounded max-heap of results over
//! `Neighbor`'s float comparison, with a four-byte-epoch visited set.
//! Kept here, test-only and verbatim, as the reference the frontier must
//! equal hop for hop (`tests/property_tests.rs`): same `IterationTrace`s,
//! same `is_finished()` after every hop, same result list — including
//! where a sorted array alone would differ, a candidate evicted from the
//! full result list at exactly the worst retained distance.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ndsearch::anns::trace::{IterationTrace, QueryTrace};
use ndsearch::graph::csr::Csr;
use ndsearch::vector::quant::ScoreSource;
use ndsearch::vector::topk::Neighbor;
use ndsearch::vector::{DistanceKind, VectorId};

/// The visited set the old kernel marked vertices in.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    epoch: u32,
    marks: Vec<u32>,
}

impl VisitedSet {
    pub fn new(n: usize) -> Self {
        Self {
            epoch: 1,
            marks: vec![0; n],
        }
    }

    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

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
    /// dropped. Leaves the rescored ids in `ids` (cleared first), in
    /// ascending approximate-distance order, so the caller can issue the
    /// flash reads they imply from a buffer it keeps.
    pub fn rerank<S: ScoreSource + ?Sized>(
        &mut self,
        exact: &S,
        depth: usize,
        ids: &mut Vec<VectorId>,
    ) {
        let mut approx = self.found();
        approx.truncate(depth);
        ids.clear();
        ids.extend(approx.iter().map(|n| n.id));
        exact.score_batch(self.distance, &self.query, ids, &mut self.scratch);
        self.results.clear();
        for (&id, &d) in ids.iter().zip(self.scratch.iter()) {
            self.results.push(Neighbor::new(d, id));
        }
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
