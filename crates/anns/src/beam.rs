//! The shared greedy/beam search kernel (§II-A).
//!
//! Every graph-traversal ANNS algorithm's search phase follows the same
//! loop: keep a *candidate list* of discovered-but-unexpanded vertices and
//! a *result list* of the best `ef` vertices seen; repeatedly expand the
//! closest candidate, compute distances to its never-visited neighbors, and
//! stop when the closest candidate is farther than the worst retained
//! result. This module implements that loop once, records the per-iteration
//! memory trace, and is reused by HNSW (per layer), Vamana, HCNNG and TOGG —
//! at query time through [`beam_search`] / [`BeamSearcher`], at construction
//! time through `build::GreedySearch`.
//!
//! Both lists live in one `Frontier`: the `ef` best vertices seen, kept
//! ascending under packed integer keys (`Scored`), each flagged once it
//! has been expanded — DiskANN's single search list. A candidate that drops
//! out of the best `ef` is strictly farther than all of them and can never
//! be expanded, *except* when it ties the worst of them: the termination
//! test is "strictly farther", so the textbook two-queue formulation (which
//! this kernel must equal hop for hop — `tests/oracle` keeps it) still
//! expands such a candidate. Those evictees, and only those, wait in the
//! frontier's tie stash.

use std::cmp::Ordering;

use ndsearch_graph::csr::Csr;
use ndsearch_vector::quant::ScoreSource;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::trace::{IterationTrace, QueryTrace};

/// The graph as a search reads it: how many vertices there are and each
/// one's out-neighbors, in edge order. A static [`Csr`] is one; so is a
/// mutable index's live adjacency (`impl Adjacency for dyn MutableIndex` in
/// [`crate::index`]), which is how a mutable deployment serves the rows an
/// insert just repaired without re-snapshotting the graph.
pub trait Adjacency {
    /// Number of vertices (ids are `0..num_vertices`).
    fn num_vertices(&self) -> usize;

    /// Out-neighbors of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    fn neighbors(&self, v: VectorId) -> &[VectorId];
}

impl Adjacency for Csr {
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    fn neighbors(&self, v: VectorId) -> &[VectorId] {
        Csr::neighbors(self, v)
    }
}

/// Reusable visited-set with O(1) epoch-based reset, so batch search does
/// not reallocate per query. One byte per vertex — 64 in-flight sessions
/// probe ~30 marks per hop each, and at four bytes their sets did not fit
/// the cache the rows also want; the price is a refill every 255 resets.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    epoch: u8,
    marks: Vec<u8>,
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

    /// Clears the set in O(1) amortized.
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

    /// Marks every id of `ids`, appending to `fresh` those not marked
    /// before, in order — `fresh.extend(ids.filter(|v| self.insert(v)))`
    /// without a branch per id. Whether a neighbor was visited is a coin
    /// flip to the branch predictor, so every id is written and the
    /// output end advances by "was fresh"; the marks grow once, to the
    /// largest id. A repeated id reads the mark its first copy wrote.
    pub fn insert_all(&mut self, ids: &[VectorId], fresh: &mut Vec<VectorId>) {
        let Some(largest) = ids.iter().copied().max() else {
            return;
        };
        self.reserve(largest as usize + 1);
        let start = fresh.len();
        fresh.resize(start + ids.len(), 0);
        let out = &mut fresh[start..];
        let mut kept = 0;
        for &v in ids {
            let slot = &mut self.marks[v as usize];
            let new = *slot != self.epoch;
            *slot = self.epoch;
            out[kept] = v;
            kept += usize::from(new);
        }
        fresh.truncate(start + kept);
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

/// A `(distance, id)` pair packed into one integer that orders exactly as
/// [`Neighbor`] does — by distance, ties by id, NaN last — so the search
/// list and the sorts of construction compare integers instead of running
/// `Neighbor`'s branchy float comparison (it was a third of a serving hop
/// and a quarter of a Vamana vertex-pass). The distance half is the float's
/// bit pattern with the sign bit flipped (all bits, for negatives), which
/// is monotone; `-0.0` and NaN payloads are folded first because `Neighbor`
/// ties them. [`distance`](Self::distance) returns the folded value, which
/// no comparison can tell from the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Scored(u64);

impl Scored {
    pub(crate) fn new(distance: f32, id: VectorId) -> Self {
        let folded = if distance.is_nan() {
            f32::NAN
        } else {
            distance + 0.0 // -0.0 + 0.0 = +0.0; every other value is kept
        };
        let bits = folded.to_bits();
        let ordered = if bits >> 31 == 1 {
            !bits
        } else {
            bits | (1 << 31)
        };
        Self((u64::from(ordered) << 32) | u64::from(id))
    }

    pub(crate) fn id(self) -> VectorId {
        self.0 as VectorId
    }

    pub(crate) fn distance(self) -> f32 {
        let ordered = (self.0 >> 32) as u32;
        let bits = if ordered >> 31 == 1 {
            ordered ^ (1 << 31)
        } else {
            !ordered
        };
        f32::from_bits(bits)
    }
}

/// One retained vertex of a [`Frontier`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Scored,
    /// The distance as scored (`key` folds `-0.0` and NaN payloads), so
    /// results come back bit for bit.
    distance: f32,
    expanded: bool,
}

/// What expanding the next candidate produced.
pub(crate) enum Expansion {
    /// Termination condition reached (or the candidate list ran dry).
    Finished,
    /// A candidate was expanded but every neighbor was already visited, so
    /// no feature vector was fetched (no trace iteration).
    Empty,
    /// A candidate (the carried id) was expanded and at least one new
    /// vector was fetched; the fetched ids are in the caller's buffer and
    /// their distances in [`Frontier::scores`].
    Hop(VectorId),
}

/// §II-A's candidate and result lists as one sorted array: the best `cap`
/// vertices seen, ascending, each a candidate until
/// [`expand_next`](Self::expand_next) expands it — a local of
/// [`beam_search`], a field of [`BeamSearcher`] and of the builders'
/// `GreedySearch`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Frontier {
    cap: usize,
    /// Ascending by key, at most `cap` long between calls.
    slots: Vec<Slot>,
    /// Every slot before it is expanded.
    cursor: usize,
    /// Unexpanded vertices that fell out of `slots` while not strictly
    /// farther than its worst: the two-queue formulation still expands
    /// them for as long as they tie it (module docs).
    stash: Vec<Slot>,
    /// The closest unexpanded evictee that *was* strictly farther and so
    /// was forgotten. The worst only improves, so it stays unexpandable —
    /// and so does whatever in the stash sorts after it (only a NaN can).
    forgotten: Option<Scored>,
    /// Distances of the last batch scored, aligned with the fetched ids.
    pub(crate) scores: Vec<f32>,
}

impl Frontier {
    pub(crate) fn new(cap: usize) -> Self {
        let mut frontier = Self::default();
        frontier.reset(cap);
        frontier
    }

    /// Empties the lists for a new search retaining the best `cap` (at
    /// least one: the closest vertex seen is always retained).
    pub(crate) fn reset(&mut self, cap: usize) {
        self.cap = cap.max(1);
        self.slots.clear();
        self.slots.reserve(self.cap + 1);
        self.cursor = 0;
        self.stash.clear();
        self.forgotten = None;
        // Room to rescore every retained vertex in one batch
        // ([`BeamSearcher::rerank`]) without growing at the finish.
        self.scores.clear();
        self.scores.reserve(self.cap);
    }

    /// Distance of the worst retained vertex (the list must not be empty).
    fn worst(&self) -> f32 {
        self.slots[self.slots.len() - 1].distance
    }

    /// A vertex left `slots`: if unexpanded it is still a candidate.
    fn retire(&mut self, out: Slot) {
        if out.expanded {
            return;
        }
        if out.distance > self.worst() {
            self.forgotten = Some(self.forgotten.map_or(out.key, |f| f.min(out.key)));
        } else {
            self.stash.push(out);
        }
    }

    /// Offers a newly scored vertex to both lists: it is retained (and
    /// becomes a candidate) if the list has room or it is strictly closer
    /// than the worst retained one, which it then evicts.
    fn offer(&mut self, distance: f32, id: VectorId) {
        let full = self.slots.len() >= self.cap;
        // A NaN on either side compares false: never strictly closer.
        if full && self.worst().partial_cmp(&distance) != Some(Ordering::Greater) {
            return;
        }
        let key = Scored::new(distance, id);
        let at = self.slots.partition_point(|s| s.key < key);
        self.slots.insert(
            at,
            Slot {
                key,
                distance,
                expanded: false,
            },
        );
        self.cursor = self.cursor.min(at);
        if full {
            let out = self.slots.pop().expect("a full list is not empty");
            self.retire(out);
        }
    }

    /// Where the closest unexpanded candidate is, if §II-A's termination
    /// condition lets it be expanded.
    fn next(&mut self) -> Option<Next> {
        while let Some(slot) = self.slots.get(self.cursor) {
            // A retained candidate is never farther than the worst.
            if !slot.expanded {
                return Some(Next::Slot(self.cursor));
            }
            self.cursor += 1;
        }
        // Every retained vertex is expanded; what is left is the closest
        // evictee, expanded unless strictly farther than the worst.
        let (at, tie) = (self.stash.iter().enumerate()).min_by_key(|(_, s)| s.key)?;
        let reachable = self.forgotten.is_none_or(|f| tie.key < f);
        // A NaN on either side compares false: not strictly farther.
        let farther = tie.distance > self.worst();
        (reachable && !farther).then_some(Next::Stash(at))
    }

    /// The id [`expand_next`](Self::expand_next) would expand, without
    /// expanding it.
    fn next_id(&mut self) -> Option<VectorId> {
        Some(match self.next()? {
            Next::Slot(at) => self.slots[at].key.id(),
            Next::Stash(at) => self.stash[at].key.id(),
        })
    }

    /// The second unexpanded retained vertex: the closest candidate but
    /// one (an evictee waiting in the stash does not count).
    fn runner_up(&self) -> Option<VectorId> {
        let mut unexpanded = self.slots.iter().skip(self.cursor).filter(|s| !s.expanded);
        unexpanded.nth(1).map(|s| s.key.id())
    }

    /// Seeds the lists with the entry vertices, leaving the newly visited
    /// ones in `fetched` (cleared first): iteration 0 of the trace, whose
    /// synthetic entry is `fetched[0]` (the entries count as
    /// visited/computed). Returns `false` if no entry was new.
    pub(crate) fn seed<S: ScoreSource + ?Sized>(
        &mut self,
        visited: &mut VisitedSet,
        source: &S,
        query: &[f32],
        entries: &[VectorId],
        distance: DistanceKind,
        fetched: &mut Vec<VectorId>,
    ) -> bool {
        // Mark first, then score the new entries in one batched kernel
        // call. Marking never depends on distances, so this is
        // bit-identical to a per-entry eval loop.
        fetched.clear();
        visited.insert_all(entries, fetched);
        source.score_batch(distance, query, fetched, &mut self.scores);
        // Every entry is a candidate; the `cap` closest are retained.
        for (&e, &d) in fetched.iter().zip(&self.scores) {
            self.slots.push(Slot {
                key: Scored::new(d, e),
                distance: d,
                expanded: false,
            });
        }
        self.slots.sort_unstable_by_key(|s| s.key);
        while self.slots.len() > self.cap {
            let out = self.slots.pop().expect("longer than cap");
            self.retire(out);
        }
        !fetched.is_empty()
    }

    /// Expands the closest candidate's neighbor list — the loop body of
    /// §II-A, shared by the run-to-completion [`beam_search`], the per-hop
    /// [`BeamSearcher`] and construction. The never-visited neighbors it
    /// fetched are left in `fetched` (cleared first).
    pub(crate) fn expand_next<'a, S: ScoreSource + ?Sized>(
        &mut self,
        visited: &mut VisitedSet,
        source: &S,
        neighbors_of: impl FnOnce(VectorId) -> &'a [VectorId],
        query: &[f32],
        distance: DistanceKind,
        fetched: &mut Vec<VectorId>,
    ) -> Expansion {
        fetched.clear();
        let current = match self.next() {
            None => return Expansion::Finished,
            Some(Next::Slot(at)) => {
                self.slots[at].expanded = true;
                self.cursor = at + 1;
                self.slots[at].key.id()
            }
            Some(Next::Stash(at)) => self.stash.swap_remove(at).key.id(),
        };
        // Score the whole unvisited slice of the neighbor list in one
        // kernel call, then replay the insertion decisions in the original
        // edge order. Visited-marking and scoring don't interact, and the
        // batch reuses the per-pair kernel, so results are bit-identical
        // to an interleaved per-edge loop.
        visited.insert_all(neighbors_of(current), fetched);
        source.score_batch(distance, query, fetched, &mut self.scores);
        for (i, &nb) in fetched.iter().enumerate() {
            self.offer(self.scores[i], nb);
        }
        if fetched.is_empty() {
            Expansion::Empty
        } else {
            Expansion::Hop(current)
        }
    }

    /// The retained vertices, ascending by distance.
    pub(crate) fn found(&self) -> impl Iterator<Item = Neighbor> + '_ {
        self.slots
            .iter()
            .map(|s| Neighbor::new(s.distance, s.key.id()))
    }
}

/// Where [`Frontier::next`] found the candidate to expand.
enum Next {
    Slot(usize),
    Stash(usize),
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

/// Greedy beam search over `graph` from `entries`, retaining the best
/// `beam_width` results.
///
/// Generic over the [`ScoreSource`] candidates are scored against: the
/// full-precision `Dataset` (the classic path) or a DRAM-resident
/// `QuantCodes` table (compressed-vector traversal; the serving layer
/// reranks the final candidates against the dataset afterwards) — and
/// over the [`Adjacency`] it walks (a `Csr`, or an index's live rows).
///
/// # Panics
/// Panics if `beam_width == 0` or an entry id is out of range.
pub fn beam_search<S: ScoreSource + ?Sized, G: Adjacency + ?Sized>(
    source: &S,
    graph: &G,
    query: &[f32],
    entries: &[VectorId],
    beam_width: usize,
    distance: DistanceKind,
    visited: &mut VisitedSet,
) -> BeamResult {
    assert!(beam_width > 0, "beam width must be positive");
    visited.clear();
    let mut trace = QueryTrace::default();
    let mut frontier = Frontier::new(beam_width);

    // The initial entry vertices count as visited/computed: record them as
    // iteration 0 with a synthetic entry (the first entry vertex).
    // The trace keeps every hop's list, each copied at its length out of
    // one buffer the filter writes a whole neighbor row into.
    let mut fetched = Vec::new();
    if frontier.seed(visited, source, query, entries, distance, &mut fetched) {
        trace.iterations.push(IterationTrace {
            entry: fetched[0],
            visited: fetched.clone(),
        });
    }

    // With no entry seeded there is no candidate and this ends at once.
    loop {
        let neighbors_of = |v| graph.neighbors(v);
        match frontier.expand_next(visited, source, neighbors_of, query, distance, &mut fetched) {
            Expansion::Finished => break,
            Expansion::Empty => {}
            Expansion::Hop(entry) => trace.iterations.push(IterationTrace {
                entry,
                visited: fetched.clone(),
            }),
        }
    }

    BeamResult {
        found: frontier.found().collect(),
        trace,
    }
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
    distance: DistanceKind,
    visited: VisitedSet,
    frontier: Frontier,
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
            distance,
            visited,
            frontier: Frontier::new(beam_width),
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
    /// compressed code table) and the [`Adjacency`]; a searcher must be
    /// driven against the same source for its whole lifetime. The graph
    /// may gain vertices and have rows rewritten between calls (online
    /// inserts): each hop reads the rows as they are when it runs.
    pub fn step<S: ScoreSource + ?Sized, G: Adjacency + ?Sized>(
        &mut self,
        source: &S,
        graph: &G,
    ) -> Option<IterationTrace> {
        let mut hop = IterationTrace::default();
        self.step_into(source, graph, &mut hop).then_some(hop)
    }

    /// [`step`](Self::step) writing the hop into a caller-owned record
    /// (its `visited` buffer is cleared and refilled, so a scheduler that
    /// keeps one record per slot allocates nothing per hop). Returns
    /// `false` — leaving `hop` unspecified — if the search has terminated.
    pub fn step_into<S: ScoreSource + ?Sized, G: Adjacency + ?Sized>(
        &mut self,
        source: &S,
        graph: &G,
        hop: &mut IterationTrace,
    ) -> bool {
        if self.finished {
            return false;
        }
        let (frontier, visited) = (&mut self.frontier, &mut self.visited);
        let (query, distance) = (&self.query[..], self.distance);
        if self.hops == 0 {
            // A set recycled from before an online insert grows once here,
            // not id by id mid-hop.
            visited.reserve(graph.num_vertices());
            let entries = &self.entries;
            if frontier.seed(visited, source, query, entries, distance, &mut hop.visited) {
                hop.entry = hop.visited[0];
            } else {
                self.finished = true;
                return false;
            }
        } else {
            loop {
                let neighbors_of = |v| graph.neighbors(v);
                let fetched = &mut hop.visited;
                match frontier.expand_next(visited, source, neighbors_of, query, distance, fetched)
                {
                    Expansion::Finished => {
                        self.finished = true;
                        return false;
                    }
                    Expansion::Empty => {}
                    Expansion::Hop(entry) => {
                        hop.entry = entry;
                        break;
                    }
                }
            }
        }
        self.hops += 1;
        // §II-A's termination condition, checked without expanding, so a
        // query is known-finished in the same scheduling round as its last
        // hop.
        self.finished = frontier.next().is_none();
        true
    }

    /// Whether the search has terminated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Hops (productive trace iterations) executed so far.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// The vertex the next [`step`](Self::step) expands first, or `None`
    /// if the search has terminated. A peek: nothing is expanded.
    pub fn next_candidate(&mut self) -> Option<VectorId> {
        if self.finished {
            return None;
        }
        self.frontier.next_id()
    }

    /// The closest unexpanded candidate but one — the expansion after
    /// [`next_candidate`](Self::next_candidate)'s if that one finds
    /// nothing closer. `None` before the entries are seeded, once the
    /// search has terminated, or while fewer than two candidates remain.
    pub fn runner_up(&self) -> Option<VectorId> {
        if self.finished || self.hops == 0 {
            return None;
        }
        self.frontier.runner_up()
    }

    /// Writes into `out` (cleared first), in edge order, the neighbors of
    /// `v` this search has not visited: what expanding `v` now would
    /// fetch. Branch-free, as [`VisitedSet::insert_all`]: every id is
    /// written and the end advances by "was unvisited".
    pub fn unvisited_neighbors<G: Adjacency + ?Sized>(
        &self,
        graph: &G,
        v: VectorId,
        out: &mut Vec<VectorId>,
    ) {
        let row = graph.neighbors(v);
        out.clear();
        out.resize(row.len(), 0);
        let mut kept = 0;
        for &n in row {
            out[kept] = n;
            kept += usize::from(!self.visited.contains(n));
        }
        out.truncate(kept);
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
        let frontier = &mut self.frontier;
        frontier.slots.truncate(depth);
        frontier.stash.clear(); // ties of a worst that no longer exists
        ids.clear();
        ids.extend(frontier.slots.iter().map(|s| s.key.id()));
        exact.score_batch(self.distance, &self.query, ids, &mut frontier.scores);
        for (slot, &d) in frontier.slots.iter_mut().zip(&frontier.scores) {
            slot.key = Scored::new(d, slot.key.id());
            slot.distance = d;
        }
        frontier.slots.sort_unstable_by_key(|s| s.key);
    }

    /// The current result list, ascending by distance (the final top-`ef`
    /// once [`is_finished`](Self::is_finished); a partial best-so-far view
    /// before that, e.g. for deadline-expired queries).
    pub fn found(&self) -> Vec<Neighbor> {
        self.frontier.found().collect()
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
