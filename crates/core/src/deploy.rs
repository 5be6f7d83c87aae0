//! Versioned, mutable deployments: online insert/delete as a first-class
//! serving workload.
//!
//! The offline pipeline ([`crate::pipeline::Prepared`]) stages a build-once
//! snapshot; a deployed system serving live traffic ingests vectors
//! continuously. A [`Deployment`] bundles everything that must evolve
//! together when it does:
//!
//! * the **search graph** — for a mutable deployment the live index
//!   itself (any [`MutableIndex`]: HNSW, Vamana), whose construction
//!   kernels also drive incremental inserts and whose live rows the
//!   serving beam walks in place ([`Deployment::graph`]); for a query-only
//!   one a static [`Csr`];
//! * the **dataset** — construction-order vectors, appended by
//!   [`Dataset::try_push`]. It is held behind an [`Arc`]: replicas of
//!   one shard stage from one shared copy of its rows, and the first
//!   insert a deployment applies copies them for it alone;
//! * the **staged overlay** — the flash-resident LUNCSR as a read-mostly
//!   base plus append-only delta ([`ndsearch_graph::luncsr::LunCsr`]),
//!   kept in lock-step with the index through adjacency patches and an
//!   identity-extended permutation;
//! * the **flash write path** — every insert appends its vector as a page
//!   program, charging tPROG latency
//!   ([`ndsearch_flash::timing::FlashTiming::t_program_page_ns`]);
//!   compaction erases the old blocks and rewrites a fresh base.
//!
//! An update costs what it touches — one dataset row, one code, the O(R)
//! adjacency rows RobustPrune rewrote and their overlay entries — never
//! the whole graph (the FreshDiskANN regime): there is no second copy of
//! anything to refresh, and the one O(V+E) pass left on the write path is
//! [`Deployment::compact`], beside the full rewrite it models. The
//! deployment has one owner and hands out plain borrows; the serving
//! engine applies updates only after a round's hops have run, so a search
//! never reads a half-applied update.

use std::sync::Arc;

use ndsearch_anns::beam::Adjacency;
use ndsearch_anns::index::MutableIndex;
use ndsearch_anns::trace::BatchTrace;
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::{Dataset, ShapeError};
use ndsearch_vector::quant::QuantCodes;
use ndsearch_vector::VectorId;

use crate::config::NdsConfig;
use crate::pipeline::Prepared;

/// Running totals of the update write path, surfaced by the serving
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateTotals {
    /// Vectors inserted online.
    pub inserts: u64,
    /// Vertices tombstoned online.
    pub deletes: u64,
    /// NAND pages programmed by the append path.
    pub pages_programmed: u64,
    /// Blocks erased (compaction).
    pub blocks_erased: u64,
    /// Flash program/erase time charged.
    pub program_ns: Nanos,
    /// User payload bytes ingested (vector bytes, before padding).
    pub user_bytes: u64,
    /// Bytes physically programmed into NAND (whole pages).
    pub flash_bytes: u64,
}

impl UpdateTotals {
    /// Write amplification: flash bytes programmed per user byte ingested
    /// (0 while nothing has been programmed).
    pub fn write_amplification(&self) -> f64 {
        if self.user_bytes == 0 {
            0.0
        } else {
            self.flash_bytes as f64 / self.user_bytes as f64
        }
    }
}

/// Why an online insert was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertError {
    /// The vector's dimensionality mismatches the dataset's.
    Shape(ShapeError),
    /// A component is NaN or infinite: no distance to the row would be a
    /// number, so it could be neither linked into the graph nor encoded.
    NonFinite,
    /// The configured flash geometry has no free slot left; the
    /// deployment needs a larger geometry or an offline rebuild.
    DeviceFull,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Shape(e) => e.fmt(f),
            InsertError::NonFinite => f.write_str("vector has a non-finite component"),
            InsertError::DeviceFull => f.write_str("device full: no free flash slot"),
        }
    }
}

impl std::error::Error for InsertError {}

impl From<ShapeError> for InsertError {
    fn from(e: ShapeError) -> Self {
        InsertError::Shape(e)
    }
}

/// Cost and effect of one applied update, in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedUpdate {
    /// Construction-order id assigned (inserts) or deleted.
    pub id: VectorId,
    /// Vertices whose adjacency was rewritten by backlink repair.
    pub repaired: usize,
    /// Pages programmed by this update (0 until the open page fills).
    pub pages_programmed: u64,
    /// Simulated time the update occupied the device (program + metadata
    /// bookkeeping), charged after the round that admitted it.
    pub duration_ns: Nanos,
    /// Of which: flash program time.
    pub program_ns: Nanos,
}

/// What a compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Physical blocks erased (the old overlay's footprint).
    pub blocks_erased: u64,
    /// Pages programmed rewriting the fresh base.
    pub pages_programmed: u64,
    /// Simulated duration (erases and programs overlap across planes,
    /// serialize within one).
    pub duration_ns: Nanos,
}

/// The graph a deployment's searches walk, fixed by how it was staged.
enum SearchGraph {
    /// [`Deployment::from_parts`]: a static CSR; updates are rejected.
    Static(Csr),
    /// [`Deployment::stage`]: the live index, whose rows are the graph.
    Live(Box<dyn MutableIndex>),
}

impl Adjacency for SearchGraph {
    fn num_vertices(&self) -> usize {
        match self {
            SearchGraph::Static(csr) => csr.num_vertices(),
            SearchGraph::Live(index) => index.num_vertices(),
        }
    }

    fn neighbors(&self, v: VectorId) -> &[VectorId] {
        match self {
            SearchGraph::Static(csr) => csr.neighbors(v),
            SearchGraph::Live(index) => index.live_neighbors(v),
        }
    }
}

/// A versioned, mutable deployment (see the [module docs](self)).
pub struct Deployment {
    graph: SearchGraph,
    /// Shared with twin deployments until one of them takes an insert
    /// (copy on write).
    dataset: Arc<Dataset>,
    prepared: Prepared,
    /// DRAM-resident compressed codes for traversal, trained once at
    /// staging from [`NdsConfig::quantization`] (`None` when
    /// quantization is off).
    /// Inserts encode through the same trained quantizer; compaction
    /// re-packs the table.
    codes: Option<QuantCodes>,
    totals: UpdateTotals,
    /// Vector slots accumulated in the controller's open append page; the
    /// page program fires when it fills.
    open_slots: u32,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("mutable", &self.is_mutable())
            .field("vertices", &self.dataset.len())
            .field("delta", &self.prepared.luncsr.delta_vertices())
            .field("deletes", &self.totals.deletes)
            .field("totals", &self.totals)
            .finish()
    }
}

impl Deployment {
    /// Stages a mutable deployment: runs the offline pipeline over the
    /// index's base graph (synced first, in case the index took inserts
    /// before being staged) and takes ownership of the index and a share
    /// of the dataset (an owned [`Dataset`] or an [`Arc`] other
    /// deployments also hold). From here on the index's live rows are the
    /// graph searches walk.
    ///
    /// # Panics
    /// Panics if the dataset and index disagree on vertex count or the
    /// dataset does not fit the configured geometry.
    pub fn stage(
        config: &NdsConfig,
        mut index: Box<dyn MutableIndex>,
        dataset: impl Into<Arc<Dataset>>,
    ) -> Self {
        let dataset = dataset.into();
        index.sync_base_graph();
        let prepared =
            Prepared::stage(config, index.base_graph(), &dataset, &BatchTrace::default());
        Self::assemble(config, SearchGraph::Live(index), prepared, dataset)
    }

    /// Wraps already-staged parts into a query-only deployment (the
    /// legacy serving path); updates are rejected.
    pub fn from_parts(
        config: &NdsConfig,
        prepared: Prepared,
        dataset: Dataset,
        graph: Csr,
    ) -> Self {
        Self::assemble(config, SearchGraph::Static(graph), prepared, dataset.into())
    }

    fn assemble(
        config: &NdsConfig,
        graph: SearchGraph,
        prepared: Prepared,
        dataset: Arc<Dataset>,
    ) -> Self {
        let open_slots =
            (prepared.luncsr.num_vertices() as u32) % prepared.luncsr.mapping().slots_per_page();
        let codes = QuantCodes::train(config.quantization, &dataset, config.seed ^ 0xC0DE);
        Self {
            graph,
            prepared,
            dataset,
            codes,
            totals: UpdateTotals::default(),
            open_slots,
        }
    }

    /// Whether this deployment accepts updates.
    pub fn is_mutable(&self) -> bool {
        self.index().is_some()
    }

    /// The construction-order dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The construction-order graph searches walk: the live index's rows
    /// for a mutable deployment — always current, every applied update
    /// included — or the static CSR of a query-only one.
    pub fn graph(&self) -> &impl Adjacency {
        &self.graph
    }

    /// The staged physical overlay.
    pub fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    /// The DRAM-resident compressed code table, when
    /// [`NdsConfig::quantization`] staged one. Kept in lock-step with
    /// the dataset: inserts append through the same trained quantizer
    /// and compaction re-packs it.
    pub fn codes(&self) -> Option<&QuantCodes> {
        self.codes.as_ref()
    }

    /// The live index, if this deployment is mutable.
    pub fn index(&self) -> Option<&dyn MutableIndex> {
        match &self.graph {
            SearchGraph::Static(_) => None,
            SearchGraph::Live(index) => Some(&**index),
        }
    }

    /// Update write-path totals so far.
    pub fn totals(&self) -> UpdateTotals {
        self.totals
    }

    /// Whether a construction-order vertex has been tombstoned.
    pub fn is_deleted(&self, id: VectorId) -> bool {
        self.index()
            .is_some_and(|ix| (id as usize) < self.dataset.len() && ix.is_deleted(id))
    }

    /// Vertices present and not tombstoned.
    pub fn live_count(&self) -> usize {
        self.index()
            .map_or(self.dataset.len(), MutableIndex::live_count)
    }

    /// Applies one online insert: appends the vector, links it through the
    /// index's incremental-construction kernel, extends the flash overlay
    /// (delta append + backlink patches), and programs the open append
    /// page — charging tPROG latency when it fills.
    ///
    /// Searches over [`graph`](Self::graph) see the new vertex and the
    /// repaired rows as soon as this returns; nothing is re-snapshotted.
    ///
    /// # Errors
    /// Returns [`InsertError::Shape`] on a dimensionality mismatch,
    /// [`InsertError::NonFinite`] on a NaN or infinite component and
    /// [`InsertError::DeviceFull`] when the geometry has no free slot —
    /// each surfaces as a rejected update session, not a panic, and
    /// leaves the deployment unchanged.
    ///
    /// # Panics
    /// Panics on a query-only deployment.
    pub fn insert(
        &mut self,
        config: &NdsConfig,
        vector: &[f32],
    ) -> Result<AppliedUpdate, InsertError> {
        let SearchGraph::Live(index) = &mut self.graph else {
            panic!("insert on an immutable deployment");
        };
        {
            let mapping = self.prepared.luncsr.mapping();
            if mapping.len() as u64 >= mapping.capacity_slots() {
                return Err(InsertError::DeviceFull);
            }
        }
        if vector.iter().any(|x| !x.is_finite()) {
            return Err(InsertError::NonFinite);
        }
        // Reject a wrong-dimension row before copying rows a twin shares.
        self.dataset.check_row(vector)?;
        let id = Arc::make_mut(&mut self.dataset).try_push(vector)?;
        if let Some(codes) = self.codes.as_mut() {
            // Same trained quantizer as staging: the new row's code is
            // identical to what a fresh repack would produce.
            codes.push(self.dataset.vector(id));
        }
        let report = index.insert(&self.dataset, id);

        // ---- Extend the staged overlay in lock-step: the new vertex's
        // row and the repaired ones, read from the live adjacency. ----
        let prepared = &mut self.prepared;
        let adj_phys: Vec<VectorId> = index
            .live_neighbors(id)
            .iter()
            .map(|&nb| prepared.perm.new_of(nb))
            .collect();
        prepared.perm.extend_identity(1);
        let v_phys = prepared.luncsr.append_vertex(adj_phys);
        debug_assert_eq!(v_phys, prepared.perm.new_of(id));
        for &r in &report.repaired {
            let list = index
                .live_neighbors(r)
                .iter()
                .map(|&nb| prepared.perm.new_of(nb))
                .collect();
            prepared.luncsr.set_neighbors(prepared.perm.new_of(r), list);
        }

        // ---- Flash write path: the append lands in the controller's open
        // page; when it fills, a <ProgramPage> writes it out. ----
        let timing = &config.timing;
        let spp = prepared.luncsr.mapping().slots_per_page();
        self.open_slots += 1;
        let mut pages_programmed = 0u64;
        let mut program_ns: Nanos = 0;
        if self.open_slots >= spp {
            self.open_slots = 0;
            pages_programmed = 1;
            program_ns = timing.t_program_page_ns
                + timing.channel_transfer_ns(u64::from(config.geometry.page_bytes));
            self.totals.flash_bytes += u64::from(config.geometry.page_bytes);
        }
        // Metadata bookkeeping: the embedded cores rewrite the repaired
        // vertices' overlay entries in SSD DRAM.
        let bookkeeping = (1 + report.repaired.len() as u64) * timing.t_embedded_op_ns;

        self.totals.inserts += 1;
        self.totals.pages_programmed += pages_programmed;
        self.totals.program_ns += program_ns;
        self.totals.user_bytes += self.dataset.stored_vector_bytes() as u64;
        Ok(AppliedUpdate {
            id,
            repaired: report.repaired.len(),
            pages_programmed,
            duration_ns: program_ns + bookkeeping,
            program_ns,
        })
    }

    /// Applies one online delete (tombstone). Returns `None` when the id
    /// is out of range or already tombstoned.
    ///
    /// # Panics
    /// Panics on a query-only deployment.
    pub fn delete(&mut self, config: &NdsConfig, id: VectorId) -> Option<AppliedUpdate> {
        let SearchGraph::Live(index) = &mut self.graph else {
            panic!("delete on an immutable deployment");
        };
        if (id as usize) >= self.dataset.len() || !index.delete(id) {
            return None;
        }
        self.totals.deletes += 1;
        Some(AppliedUpdate {
            id,
            repaired: 0,
            pages_programmed: 0,
            duration_ns: config.timing.t_embedded_op_ns,
            program_ns: 0,
        })
    }

    /// Compacts the deployment: re-runs reorder + placement over the live
    /// graph (folding the delta into a fresh read-mostly base), erases the
    /// blocks the old overlay occupied, and rewrites every page — charging
    /// erase/program latency. Tombstones stay in the index (they are
    /// dropped from the id space only by a full offline rebuild), so query
    /// results over the compacted deployment match the overlay's exactly.
    pub fn compact(&mut self, config: &NdsConfig) -> CompactionReport {
        let timing = &config.timing;
        // Erase the old footprint: every distinct (plane, logical block)
        // the overlay occupies is erased once; the planes erase in
        // parallel.
        let occupied: std::collections::BTreeSet<(u32, u32)> = {
            let lc = &self.prepared.luncsr;
            (0..lc.num_vertices() as u32)
                .map(|v| {
                    (
                        lc.mapping().global_plane_of(v),
                        lc.mapping().logical_block_of(v),
                    )
                })
                .collect()
        };
        let mut per_plane = std::collections::BTreeMap::<u32, u64>::new();
        for &(plane, _) in &occupied {
            *per_plane.entry(plane).or_default() += 1;
        }
        let erase_rounds = per_plane.values().copied().max().unwrap_or(0);

        // Re-stage from the live construction graph (same id space; the
        // search graph is unchanged, so results are too). Reorder and
        // placement want the whole graph as one CSR: the write path's one
        // O(V+E) sync, beside a rewrite of every page.
        let csr = match &mut self.graph {
            SearchGraph::Static(csr) => &*csr,
            SearchGraph::Live(index) => {
                index.sync_base_graph();
                index.base_graph()
            }
        };
        self.prepared = Prepared::stage(config, csr, &self.dataset, &BatchTrace::default());
        let prepared = &self.prepared;

        // Program the fresh base: every page rewritten.
        let pages = prepared.luncsr.mapping().pages_used();
        let planes = u64::from(config.geometry.total_planes()).max(1);
        let program_rounds = pages.div_ceil(planes);
        let duration_ns = erase_rounds * timing.t_erase_block_ns
            + program_rounds
                * (timing.t_program_page_ns
                    + timing.channel_transfer_ns(u64::from(config.geometry.page_bytes)));
        self.open_slots =
            (prepared.luncsr.num_vertices() as u32) % prepared.luncsr.mapping().slots_per_page();

        if let Some(codes) = self.codes.as_mut() {
            // Compaction rewrote the physical layout; re-pack the code
            // table over the (unchanged) construction-order rows —
            // bit-identical codes, fresh contiguous storage.
            *codes = codes.repack(&self.dataset);
        }

        self.totals.blocks_erased += occupied.len() as u64;
        self.totals.pages_programmed += pages;
        self.totals.program_ns += duration_ns;
        self.totals.flash_bytes += pages * u64::from(config.geometry.page_bytes);
        CompactionReport {
            blocks_erased: occupied.len() as u64,
            pages_programmed: pages,
            duration_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_anns::index::GraphAnnsIndex;
    use ndsearch_anns::vamana::{Vamana, VamanaParams};
    use ndsearch_vector::synthetic::DatasetSpec;

    fn mutable_fixture(n: usize) -> (NdsConfig, Deployment, Dataset) {
        let (base, extra) = DatasetSpec::sift_scaled(n, 64).build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let mut config = NdsConfig::scaled_for(base.len() * 2, base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = 0.0;
        let deploy = Deployment::stage(&config, Box::new(index), base);
        (config, deploy, extra)
    }

    #[test]
    fn inserts_extend_overlay_and_charge_flash() {
        let (config, mut deploy, extra) = mutable_fixture(400);
        assert!(deploy.is_mutable());
        let spp = deploy.prepared().luncsr.mapping().slots_per_page() as usize;
        let mut programmed = 0u64;
        for (i, (_, v)) in extra.iter().enumerate() {
            let applied = deploy.insert(&config, v).unwrap();
            assert_eq!(applied.id as usize, 400 + i);
            programmed += applied.pages_programmed;
        }
        assert_eq!(deploy.dataset().len(), 464);
        // The search graph is the live index: current after every update.
        assert_eq!(deploy.graph().num_vertices(), 464);
        assert_eq!(deploy.prepared().luncsr.delta_vertices(), 64);
        let totals = deploy.totals();
        assert_eq!(totals.inserts, 64);
        assert_eq!(totals.pages_programmed, programmed);
        assert!(
            totals.pages_programmed >= (64 / spp) as u64,
            "64 inserts at {spp} slots/page must program pages"
        );
        assert!(totals.program_ns > 0, "programs must charge tPROG");
        assert!(
            totals.write_amplification() > 0.0,
            "amplification must be measured"
        );
        // Some page program reached the flash.
        assert!(totals.pages_programmed > 0);
        // Overlay adjacency mirrors the index, relabeled.
        let prepared = deploy.prepared();
        let graph = deploy.graph();
        for id in [400u32, 463u32] {
            let want: Vec<u32> = graph
                .neighbors(id)
                .iter()
                .map(|&nb| prepared.perm.new_of(nb))
                .collect();
            assert_eq!(prepared.luncsr.neighbors(prepared.perm.new_of(id)), want);
        }
    }

    #[test]
    fn deletes_tombstone_and_reject_duplicates() {
        let (config, mut deploy, _) = mutable_fixture(300);
        assert!(deploy.delete(&config, 5).is_some());
        assert!(deploy.delete(&config, 5).is_none(), "double delete");
        assert!(deploy.delete(&config, 9999).is_none(), "out of range");
        assert!(deploy.is_deleted(5));
        assert_eq!(deploy.live_count(), 299);
        assert_eq!(deploy.totals().deletes, 1);
    }

    #[test]
    fn compaction_folds_delta_and_charges_erases() {
        let (config, mut deploy, extra) = mutable_fixture(400);
        for (_, v) in extra.iter() {
            deploy.insert(&config, v).unwrap();
        }
        deploy.delete(&config, 17);
        assert!(deploy.prepared().luncsr.delta_vertices() > 0);
        let before = deploy.totals();
        let report = deploy.compact(&config);
        assert_eq!(
            report,
            CompactionReport {
                blocks_erased: 58,
                pages_programmed: 58,
                duration_ns: 4_101_280,
            }
        );
        let after = deploy.totals();
        assert_eq!(
            after.blocks_erased,
            before.blocks_erased + report.blocks_erased
        );
        // The delta is folded into a fresh base; the delete survives.
        assert_eq!(deploy.prepared().luncsr.delta_vertices(), 0);
        assert!(deploy.is_deleted(17));
        // The search graph is untouched by compaction.
        assert_eq!(deploy.graph().num_vertices(), 464);
    }

    #[test]
    fn immutable_deployment_rejects_updates() {
        let base = DatasetSpec::sift_scaled(200, 1).build();
        let index = Vamana::build(&base, VamanaParams::default());
        let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        let prepared = Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default());
        let deploy = Deployment::from_parts(&config, prepared, base, index.base_graph().clone());
        assert!(!deploy.is_mutable());
        assert_eq!(deploy.live_count(), 200);
    }

    #[test]
    fn shape_mismatch_is_reported_not_panicked() {
        let (config, mut deploy, _) = mutable_fixture(200);
        let err = deploy.insert(&config, &[1.0, 2.0]).unwrap_err();
        assert!(err.to_string().contains("dimension"));
        assert_eq!(deploy.dataset().len(), 200, "rejected insert is a no-op");
    }

    #[test]
    fn non_finite_insert_is_rejected_and_changes_nothing() {
        let (base, extra) = DatasetSpec::sift_scaled(200, 1).build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let mut config = NdsConfig::scaled_for(base.len() * 2, base.stored_vector_bytes());
        config.quantization = ndsearch_vector::quant::QuantSpec::Int8;
        let mut deploy = Deployment::stage(&config, Box::new(index), base);
        // Dataset, live index rows, int8 table, flash overlay, live count.
        let snapshot = |d: &Deployment| {
            let index = d.index().expect("a mutable deployment");
            let luncsr = &d.prepared().luncsr;
            let rows: Vec<Vec<VectorId>> = (0..index.num_vertices() as VectorId)
                .map(|v| index.live_neighbors(v).to_vec())
                .collect();
            let overlay: Vec<Vec<VectorId>> = (0..luncsr.num_vertices() as VectorId)
                .map(|v| luncsr.neighbors(v).to_vec())
                .collect();
            let codes = d.codes().cloned();
            (
                d.dataset().clone(),
                rows,
                codes,
                overlay,
                d.live_count(),
                d.totals(),
            )
        };
        let before = snapshot(&deploy);
        let v = extra.vector(0);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let row = [&v[..3], &[bad], &v[4..]].concat();
            assert_eq!(deploy.insert(&config, &row), Err(InsertError::NonFinite));
            assert!(
                snapshot(&deploy) == before,
                "a rejected {bad} insert changed the deployment"
            );
        }
        assert_eq!(deploy.insert(&config, v).unwrap().id, 200);
    }

    #[test]
    fn device_full_rejects_instead_of_panicking() {
        // A deliberately minuscule device: 16 planes × 1 block × 2 pages
        // × 16 slots = 512 slots, 400 of which the base occupies.
        let (base, extra) = DatasetSpec::sift_scaled(400, 4).build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let mut geometry = ndsearch_flash::geometry::FlashGeometry::tiny();
        geometry.blocks_per_plane = 1;
        geometry.pages_per_block = 2;
        let mut config = NdsConfig {
            geometry,
            ..NdsConfig::default()
        };
        config.ecc.hard_decision_failure_prob = 0.0;
        let mut deploy = Deployment::stage(&config, Box::new(index), base);
        let capacity = deploy.prepared().luncsr.mapping().capacity_slots();
        assert_eq!(capacity, 512);
        let v = extra.vector(0).to_vec();
        let mut accepted = 0u64;
        loop {
            match deploy.insert(&config, &v) {
                Ok(_) => accepted += 1,
                Err(InsertError::DeviceFull) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(400 + accepted <= capacity, "accepted past capacity");
        }
        assert_eq!(400 + accepted, capacity, "fills exactly to capacity");
        // Further inserts keep being rejected; deletes still work.
        assert_eq!(
            deploy.insert(&config, &v).unwrap_err(),
            InsertError::DeviceFull
        );
        assert!(deploy.delete(&config, 0).is_some());
    }
}
