//! Automatic version-list reclamation: the collectible registry, reclaim policies, and the
//! background collector.
//!
//! The paper's snapshot scheme only stays practical if version lists are truncated below the
//! oldest live snapshot ([`crate::VersionedCell::collect_before`], driven by
//! [`Camera::min_active`]). Truncation is a *primitive*, though — something has to call it,
//! continuously, against every cell of every structure on the camera, or an update-heavy run
//! leaks memory linearly. This module turns the primitive into a subsystem:
//!
//! * **[`Collectible`]** — implemented by every vCAS data structure, as one cell visitor
//!   ([`Collectible::visit_cells`]) over a [`SweepCursor`]. Over it, a collectible
//!   truncates a *bounded slice* of its cells' version lists per call
//!   ([`Collectible::collect_bounded`]), resuming where the previous call stopped, so
//!   reclamation work is incremental and never stalls an update for the whole structure.
//!   (The registry holds structures, not individual cells: cells live inside nodes whose
//!   lifetime is managed by epoch-based reclamation, so a cell-granular registry would
//!   dangle the moment a node is retired. A structure can always enumerate its *live*
//!   cells.)
//! * **Per-camera registry** — [`Camera::register_collectible`] attaches a structure (by
//!   `Weak` reference; dropping the structure unregisters it automatically). All reclamation
//!   drivers walk this registry.
//! * **[`ReclaimPolicy`]** — how the registry is driven:
//!   [`ReclaimPolicy::Amortized`] piggybacks on the structures' own update paths (every N
//!   successful updates, the updating thread truncates a bounded slice — see
//!   [`Camera::reclaim_tick`]); [`ReclaimPolicy::Background`] runs a dedicated
//!   [`Collector`] thread with a start/stop lifecycle, for long-running services that want
//!   update latency untouched. [`ReclaimPolicy::install`] wires either up.
//! * **Counters** — [`Camera::versions_retired`] and [`Camera::approx_live_versions`]
//!   surface reclamation progress for monitoring and tests.
//!
//! See `docs/reclamation.md` for the policy trade-offs and the memory model of truncation.

use std::sync::{Arc, Weak};
use std::time::Duration;

use vcas_ebr::Guard;

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering};

use crate::camera::Camera;
use crate::cell::{Mode, PointerCell};

/// What one bounded collection call accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Number of versioned cells whose lists were examined (and truncated where possible).
    pub cells_visited: usize,
    /// Number of version nodes retired to epoch-based reclamation.
    pub versions_retired: usize,
    /// `true` if the call reached the end of the structure (the next call starts a fresh
    /// sweep from the beginning); `false` if it stopped early on the budget.
    pub completed_cycle: bool,
}

impl CollectStats {
    /// Accumulates `other` into `self` (`completed_cycle` is AND-ed: an aggregate pass is
    /// complete only if every constituent pass was).
    pub fn merge(&mut self, other: CollectStats) {
        self.cells_visited += other.cells_visited;
        self.versions_retired += other.versions_retired;
        self.completed_cycle &= other.completed_cycle;
    }
}

/// Aggregate version-list statistics of a structure (diagnostic; see
/// [`Collectible::version_stats`]). Not constant time — walks every live cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Number of versioned cells reachable in the structure's current state.
    pub cells: usize,
    /// Total retained versions across those cells.
    pub versions: usize,
    /// Largest version list among those cells.
    pub max_versions_per_cell: usize,
}

/// What a cell visit does at each cell it reaches ([`Collectible::visit_cells`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOp {
    /// Truncate the version list ([`PointerCell::collect_before`]).
    Cut {
        /// The oldest timestamp a snapshot may still read ([`Camera::min_active`]).
        floor: u64,
    },
    /// Count the retained versions ([`PointerCell::version_count`]).
    Count,
}

/// What one cell visit accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Visit {
    /// Cells reached.
    pub cells: usize,
    /// Versions the cells retired ([`CellOp::Cut`]) or hold ([`CellOp::Count`]).
    pub versions: usize,
    /// The most versions in one cell, for a count.
    pub max_versions: usize,
    /// `true` if the visit reached the end of the structure, not its budget.
    pub completed_cycle: bool,
}

/// Where a structure's next resumable visit starts: a segment (a hash-map bucket; 0 for
/// a structure with one) and, in it, `key + 1` of the next node, 0 meaning the segment's
/// head cells (so that 0 stays a legal key).
#[derive(Debug, Default)]
pub struct SweepCursor {
    segment: AtomicUsize,
    key: AtomicU64,
}

impl SweepCursor {
    /// Opens a visit applying `op` to about `budget` cells. A `resume`d visit starts at
    /// the cursor and leaves it where it stops (at the start once it completes); another
    /// starts at the start and leaves it alone, so a census does not move bounded passes.
    pub fn visit(&self, op: CellOp, budget: usize, resume: bool) -> Sweep<'_> {
        let mut from = (0, 0);
        if resume {
            // ORDERING: progress-heuristic — the cursor only decides where the next
            // bounded pass resumes; truncation synchronizes inside the cells.
            from.0 = self.segment.load(Ordering::Relaxed);
            // ORDERING: progress-heuristic — as above.
            from.1 = u128::from(self.key.load(Ordering::Relaxed));
        }
        let cursor = resume.then_some(self);
        Sweep { op, budget: budget.max(1), cursor, from, stop: None, visit: Visit::default() }
    }
}

/// One visit in progress. The structure walks its nodes in a fixed order, by segment
/// and by key within one, and reports each to [`Sweep::node`]. The stopping rule: stop
/// at the first node boundary at or after `budget` cells (a node keyed `u64::MAX` cannot
/// be resumed at, so it is visited past the budget).
pub struct Sweep<'c> {
    op: CellOp,
    budget: usize,
    cursor: Option<&'c SweepCursor>,
    /// Where the visit starts, as a [`Sweep::place`].
    from: (usize, u128),
    /// Where it stopped, in the cursor's encoding.
    stop: Option<(usize, u64)>,
    visit: Visit,
}

impl Sweep<'_> {
    /// A node's place in the sweep order: segment, then 0 for the head cells or `key + 1`.
    fn place(segment: usize, key: Option<u64>) -> (usize, u128) {
        (segment, key.map_or(0, |k| u128::from(k) + 1))
    }

    /// The first segment the visit reaches.
    pub fn segment(&self) -> usize {
        self.from.0
    }

    /// Did an earlier pass of this cycle cover the node with `key` in `segment`?
    pub fn passed(&self, segment: usize, key: u64) -> bool {
        Self::place(segment, Some(key)) < self.from
    }

    /// Reports the node with `key` in `segment` (`None`: the segment's head cells) and
    /// applies the visit's [`CellOp`] to its `cells`, unless it was passed. `false` means
    /// stop and return [`Sweep::finish`]: the budget is spent, or a plain structure, with
    /// no history, is being cut.
    pub fn node<'a, T, M: Mode, C: PointerCell<T, M> + 'a>(
        &mut self,
        segment: usize,
        key: Option<u64>,
        mode: &M,
        cells: impl IntoIterator<Item = &'a C>,
        guard: &Guard,
    ) -> bool {
        if !M::VERSIONED && self.op != CellOp::Count {
            return false;
        }
        if Self::place(segment, key) < self.from {
            return true;
        }
        if self.stop_at(segment, key) {
            return false;
        }
        for cell in cells {
            self.record(match self.op {
                CellOp::Cut { floor } => cell.collect_before(mode, floor, guard),
                CellOp::Count => cell.version_count(guard),
            });
        }
        true
    }

    /// The stopping rule: is the budget spent at this node, which can be resumed at?
    fn stop_at(&mut self, segment: usize, key: Option<u64>) -> bool {
        let (segment, at) = Self::place(segment, key);
        if self.visit.cells >= self.budget {
            self.stop = u64::try_from(at).ok().map(|at| (segment, at));
        }
        self.stop.is_some()
    }

    fn record(&mut self, versions: usize) {
        self.visit.cells += 1;
        self.visit.versions += versions;
        self.visit.max_versions = self.visit.max_versions.max(versions);
    }

    /// Ends the visit, saving where it stopped (the start, if it completed the cycle).
    pub fn finish(self) -> Visit {
        if let Some(cursor) = self.cursor {
            let (segment, key) = self.stop.unwrap_or_default();
            // ORDERING: progress-heuristic — see `SweepCursor::visit`.
            cursor.segment.store(segment, Ordering::Relaxed);
            // ORDERING: progress-heuristic — as above.
            cursor.key.store(key, Ordering::Relaxed);
        }
        Visit { completed_cycle: self.stop.is_none(), ..self.visit }
    }
}

/// A structure whose versioned CAS cells can be truncated incrementally.
///
/// A structure implements one method, [`Collectible::visit_cells`], which walks its
/// cells through a [`Sweep`] on its own [`SweepCursor`]; the sweep does the per-cell
/// work, keeps the resume point and applies the stopping rule. Over it, successive
/// [`Collectible::collect_bounded`] calls sweep different slices of the structure, and
/// [`Collectible::version_stats`] counts every cell. Calls may run concurrently with
/// updates and with each other (per-cell truncation is already serialized by
/// [`crate::VersionedCell::collect_before`]), though drivers normally serialize passes.
pub trait Collectible: Send + Sync {
    /// Applies `op` to the cells reachable in the current state, through the sweep
    /// `cursor.visit(op, budget, resume)` ended by [`Sweep::finish`].
    fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit;

    /// Truncates the version lists of up to `budget` cells under `min_active` (from
    /// [`Camera::min_active`]), resuming at the node where the previous call stopped.
    fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
        let visit = self.visit_cells(CellOp::Cut { floor: min_active }, budget, true, guard);
        let (cells_visited, versions_retired) = (visit.cells, visit.versions);
        CollectStats { cells_visited, versions_retired, completed_cycle: visit.completed_cycle }
    }

    /// Walks every cell reachable in the current state and reports version-list sizes
    /// (diagnostic; used by the reclamation stress tests and the workload driver).
    fn version_stats(&self, guard: &Guard) -> VersionStats {
        let Visit { cells, versions, max_versions, .. } =
            self.visit_cells(CellOp::Count, usize::MAX, false, guard);
        VersionStats { cells, versions, max_versions_per_cell: max_versions }
    }
}

/// How automatic reclamation is driven for one camera (see [`ReclaimPolicy::install`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimPolicy {
    /// No sweeps. Write-time pruning still runs: a vCAS whose displaced version is at or
    /// below the retention watermark cuts its own cell (see
    /// [`crate::VersionedCell::compare_and_swap`]), so writes after the pins on a cell's
    /// history are released bring it back to one or two versions. Only cells not written
    /// again keep their history until collected manually. The right choice for short-lived
    /// runs or ablations.
    Disabled,
    /// Amortized hooks: every `every_n_updates` successful updates on the camera, the
    /// updating thread truncates up to `budget` cells of the next registered structure
    /// (round-robin). Reclamation cost is spread across updaters; no extra threads. While
    /// no cell on the camera holds more than one version, a slice is skipped at the cost
    /// of three counter reads.
    Amortized {
        /// Successful updates between collection slices (0 behaves like [`Disabled`]).
        ///
        /// [`Disabled`]: ReclaimPolicy::Disabled
        every_n_updates: u64,
        /// Cells truncated per slice.
        budget: usize,
    },
    /// A dedicated background [`Collector`] thread sweeps every registered structure each
    /// `interval_ms` milliseconds, `budget` cells per structure per wakeup. Update paths
    /// pay nothing; reclamation keeps up as long as the collector's bandwidth exceeds the
    /// version production rate.
    Background {
        /// Sleep between sweeps, in milliseconds.
        interval_ms: u64,
        /// Cells truncated per structure per sweep.
        budget: usize,
    },
}

impl ReclaimPolicy {
    /// Installs this policy on `camera`: configures the amortized hooks and, for
    /// [`ReclaimPolicy::Background`], starts (and returns) the collector thread. Keep the
    /// returned [`Collector`] alive for as long as collection should run; dropping it stops
    /// the thread.
    pub fn install(self, camera: &Arc<Camera>) -> Option<Collector> {
        match self {
            ReclaimPolicy::Disabled => {
                camera.set_amortized_reclaim(0, 0);
                None
            }
            ReclaimPolicy::Amortized { every_n_updates, budget } => {
                camera.set_amortized_reclaim(every_n_updates, budget);
                None
            }
            ReclaimPolicy::Background { interval_ms, budget } => {
                camera.set_amortized_reclaim(0, 0);
                Some(Collector::start(camera.clone(), Duration::from_millis(interval_ms), budget))
            }
        }
    }
}

/// Per-camera reclamation state: the collectible registry, the amortized-hook knobs, and
/// the version counters. Owned by [`Camera`]; every public entry point is a `Camera`
/// method.
pub(crate) struct ReclaimState {
    /// Registered structures (`Weak`: dropping a structure unregisters it).
    registry: Mutex<Vec<Weak<dyn Collectible>>>,
    /// Round-robin cursor over the registry.
    cursor: AtomicUsize,
    /// Successful updates observed via [`Camera::reclaim_tick`].
    ticks: AtomicU64,
    /// Amortized policy: updates between slices (0 = amortized hooks off).
    every_n: AtomicU64,
    /// Amortized policy: cells per slice.
    budget: AtomicUsize,
    /// Serializes collection passes (concurrent passes would just contend on the same
    /// per-cell truncation flags; one at a time keeps the amortized cost predictable).
    collecting: AtomicBool,
    /// Initial version nodes created on this camera (one per new cell).
    initial: AtomicU64,
    /// Versions pushed onto an existing list: successful CASes that neither elided their
    /// displaced head nor pruned their cell. `initial + pushed` is
    /// [`Camera::versions_created`].
    pushed: AtomicU64,
    /// Version nodes retired through truncation on this camera.
    retired: AtomicU64,
    /// Version nodes freed when their cell was destroyed (unlinked node reclaimed, failed
    /// publication, or structure drop) — kept separate from `retired` so the truncation
    /// counter stays a pure signal of the reclamation drivers.
    dropped: AtomicU64,
    /// The part of `dropped` beyond each destroyed cell's first version: the history the
    /// cell still held (see [`ReclaimState::history`]).
    history_dropped: AtomicU64,
    /// Successful CASes whose displaced head was elided at publication time (see
    /// [`Camera::versions_elided`]). Elisions are slot swaps: they move neither `created`
    /// nor `retired`/`dropped`, so conservation stays exact without them.
    elided: AtomicU64,
    /// Successful CASes that pruned their own cell at publication time (see
    /// [`Camera::versions_pruned`]). Like elisions these are slot transfers: the new head
    /// takes one freed node's slot and only the rest of the cut suffix counts as retired.
    pruned: AtomicU64,
    /// Data-structure nodes ever allocated by structures on this camera.
    nodes_created: AtomicU64,
    /// Data-structure nodes retired because their version-held reference count hit zero
    /// (see [`crate::versioned_ptr::VersionReferenced`]).
    nodes_retired: AtomicU64,
    /// Data-structure nodes freed directly by a structure (failed publication, the BST's
    /// and the skip list's sentinels at structure drop) rather than through the
    /// reference-count protocol.
    nodes_dropped: AtomicU64,
}

impl ReclaimState {
    pub(crate) fn new() -> ReclaimState {
        ReclaimState {
            registry: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            every_n: AtomicU64::new(0),
            budget: AtomicUsize::new(0),
            collecting: AtomicBool::new(false),
            initial: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            history_dropped: AtomicU64::new(0),
            elided: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            nodes_created: AtomicU64::new(0),
            nodes_retired: AtomicU64::new(0),
            nodes_dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn note_nodes_created(&self, n: u64) {
        // ORDERING: diag-counter — monitoring totals; approximate reads are documented.
        self.nodes_created.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_nodes_retired(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.nodes_retired.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_nodes_dropped(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.nodes_dropped.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn nodes_created(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        self.nodes_created.load(Ordering::Relaxed)
    }

    pub(crate) fn nodes_retired(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        self.nodes_retired.load(Ordering::Relaxed)
    }

    pub(crate) fn nodes_dropped(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        self.nodes_dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn note_initial(&self) {
        // ORDERING: diag-counter — as above.
        self.initial.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_pushed(&self) {
        // ORDERING: diag-counter — as above.
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retired(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.retired.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_dropped(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.dropped.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_history_dropped(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.history_dropped.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn created(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        let initial = self.initial.load(Ordering::Relaxed);
        // ORDERING: diag-counter — as above.
        initial + self.pushed.load(Ordering::Relaxed)
    }

    pub(crate) fn retired(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        self.retired.load(Ordering::Relaxed)
    }

    pub(crate) fn dropped(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained history on this camera: the versions its live cells hold beyond their
    /// first, `pushed − retired − history_dropped`. A new cell holds one version, a push
    /// adds one, an elision swaps one for one, a prune or a cut frees what counts as
    /// retired (a prune's new head takes one freed version's place), and `destroy` takes
    /// the rest of its cell's list. So the count is exact at quiescent points, and 0
    /// exactly when every cell on the camera holds one version. A read racing updates may
    /// be stale; it skips or wastes one slice, and the next tick reads again.
    fn history(&self) -> u64 {
        // ORDERING: diag-counter — see the doc comment.
        let retired = self.retired.load(Ordering::Relaxed);
        // ORDERING: diag-counter — as above.
        let gone = retired + self.history_dropped.load(Ordering::Relaxed);
        // ORDERING: diag-counter — as above.
        self.pushed.load(Ordering::Relaxed).saturating_sub(gone)
    }

    pub(crate) fn note_elided(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.elided.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn elided(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        self.elided.load(Ordering::Relaxed)
    }

    pub(crate) fn note_pruned(&self) {
        // ORDERING: diag-counter — as above.
        self.pruned.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn pruned(&self) -> u64 {
        // ORDERING: diag-counter — as above.
        self.pruned.load(Ordering::Relaxed)
    }

    pub(crate) fn set_amortized(&self, every_n: u64, budget: usize) {
        // ORDERING: policy-knob — independent configuration cells read by later ticks;
        // a tick that races an install may use the old policy for one slice, harmlessly.
        self.every_n.store(every_n, Ordering::Relaxed);
        // ORDERING: policy-knob — as above.
        self.budget.store(budget, Ordering::Relaxed);
    }

    /// The registry, locked, with dropped structures pruned.
    fn live(&self) -> MutexGuard<'_, Vec<Weak<dyn Collectible>>> {
        let mut registry = self.registry.lock();
        registry.retain(|member| member.strong_count() > 0);
        registry
    }

    pub(crate) fn register(&self, member: Weak<dyn Collectible>) {
        self.live().push(member);
    }

    pub(crate) fn registered_count(&self) -> usize {
        self.live().len()
    }

    /// Should this tick trigger a collection slice, and with what budget?
    pub(crate) fn tick(&self) -> Option<usize> {
        // ORDERING: policy-knob — see `set_amortized`.
        let every_n = self.every_n.load(Ordering::Relaxed);
        if every_n == 0 {
            return None;
        }
        // ORDERING: progress-heuristic — the tick counter only decides *when* to collect;
        // collection itself synchronizes through the registry lock and per-cell flags.
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        // ORDERING: policy-knob — see `set_amortized`.
        (tick % every_n == 0).then(|| self.budget.load(Ordering::Relaxed))
    }

    /// The next live member, round-robin, or `None` while [`ReclaimState::history`] reads
    /// 0: every cell then holds one version, which no cut retires, so a slice costs three
    /// counter reads and no walk.
    fn next_member(&self) -> Option<Arc<dyn Collectible>> {
        if self.history() == 0 {
            return None;
        }
        let registry = self.live();
        if registry.is_empty() {
            return None;
        }
        // ORDERING: progress-heuristic — any interleaving of cursor bumps yields a valid
        // rotation; fairness, not correctness, is at stake.
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed) % registry.len();
        registry[idx].upgrade()
    }

    /// Every live registered collectible, in registration order.
    fn members(&self) -> Vec<Arc<dyn Collectible>> {
        self.live().iter().filter_map(Weak::upgrade).collect()
    }

    /// Runs `pass` unless another collection pass is already in flight. The in-flight flag
    /// is cleared through an RAII guard so a panic inside a `Collectible` impl cannot
    /// permanently disable reclamation on the camera.
    fn exclusive(&self, pass: impl FnOnce() -> CollectStats) -> CollectStats {
        struct Flag<'a>(&'a AtomicBool);
        impl Drop for Flag<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        if self.collecting.swap(true, Ordering::Acquire) {
            return CollectStats { completed_cycle: false, ..CollectStats::default() };
        }
        let _clear = Flag(&self.collecting);
        pass()
    }

    pub(crate) fn collect_slice(
        &self,
        min_active: u64,
        budget: usize,
        guard: &Guard,
    ) -> CollectStats {
        self.exclusive(|| match self.next_member() {
            Some(member) => member.collect_bounded(min_active, budget, guard),
            None => CollectStats { completed_cycle: true, ..CollectStats::default() },
        })
    }

    pub(crate) fn collect_all(
        &self,
        min_active: u64,
        budget_per_member: usize,
        guard: &Guard,
    ) -> CollectStats {
        self.exclusive(|| {
            let mut stats = CollectStats { completed_cycle: true, ..CollectStats::default() };
            for member in self.members() {
                stats.merge(member.collect_bounded(min_active, budget_per_member, guard));
            }
            stats
        })
    }
}

/// The background reclamation thread (driver (b) of the reclamation subsystem).
///
/// Started by [`Collector::start`] (usually via [`ReclaimPolicy::install`]); sweeps every
/// structure registered on its camera each interval. Stop it explicitly with
/// [`Collector::stop`] or implicitly by dropping it — both join the thread, so no sweep is
/// left mid-flight.
pub struct Collector {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Collector {
    /// Spawns a collector over `camera`, sweeping up to `budget` cells per registered
    /// structure every `interval` (floored at 1ms — a zero interval would busy-spin the
    /// thread, starving everything else on small machines).
    pub fn start(camera: Arc<Camera>, interval: Duration, budget: usize) -> Collector {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("vcas-collector".to_string())
            .spawn(move || {
                // ORDERING: stop-flag — the collector only needs to observe the flag
                // eventually; `stop()` joins the thread, which synchronizes the exit.
                while !stop_flag.load(Ordering::Relaxed) {
                    {
                        let guard = vcas_ebr::pin();
                        camera.collect_all(budget, &guard);
                    }
                    // Push the retired version nodes through the epoch machinery so memory
                    // is actually returned, not just unlinked.
                    vcas_ebr::flush();
                    // Sleep in small steps so stop() stays responsive.
                    let step = Duration::from_millis(2).min(interval);
                    let mut slept = Duration::ZERO;
                    // ORDERING: stop-flag — as above.
                    while slept < interval && !stop_flag.load(Ordering::Relaxed) {
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
            .expect("failed to spawn vcas-collector thread");
        Collector { stop, handle: Some(handle) }
    }

    /// Signals the collector thread to exit and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Is the collector thread still running?
    pub fn is_running(&self) -> bool {
        // ORDERING: stop-flag — see the collector loop.
        self.handle.is_some() && !self.stop.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        // ORDERING: stop-flag — the join below synchronizes with the thread's exit.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                // Shutdown paths must not panic, but a dead collector means reclamation
                // silently stopped — say so rather than swallowing it.
                eprintln!("vcas-collector thread panicked; reclamation had stopped");
            }
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").field("running", &self.is_running()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VersionedCas;
    use vcas_ebr::pin;

    /// A collectible wrapping a handful of standalone cells, one node each in one
    /// segment, keyed by index — enough to exercise the registry/policy machinery without
    /// a full data structure.
    struct Cells {
        cells: Vec<VersionedCas<u64>>,
        cursor: SweepCursor,
    }

    impl Cells {
        fn new(camera: &Arc<Camera>, n: usize) -> Cells {
            Cells {
                cells: (0..n as u64).map(|i| VersionedCas::new(i, camera)).collect(),
                cursor: SweepCursor::default(),
            }
        }

        fn churn(&self, rounds: u64, guard: &Guard) {
            for cell in &self.cells {
                for _ in 0..rounds {
                    let cur = cell.read(guard);
                    cell.camera().take_snapshot();
                    assert!(cell.compare_and_swap(cur, cur + 1, guard));
                }
            }
        }
    }

    impl Collectible for Cells {
        fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit {
            let mut sweep = self.cursor.visit(op, budget, resume);
            for (key, cell) in (0..).zip(&self.cells) {
                if sweep.passed(0, key) {
                    continue;
                }
                if sweep.stop_at(0, Some(key)) {
                    break;
                }
                sweep.record(match op {
                    CellOp::Cut { floor } => cell.collect_before(floor, guard),
                    CellOp::Count => cell.version_count(guard),
                });
            }
            sweep.finish()
        }
    }

    /// Wraps [`Cells`] and counts the registry's calls into it: `version_stats` walks
    /// and `collect_bounded` passes.
    struct Counted {
        cells: Cells,
        walks: AtomicUsize,
        passes: AtomicUsize,
    }

    impl Counted {
        fn new(camera: &Arc<Camera>, n: usize) -> Counted {
            Counted {
                cells: Cells::new(camera, n),
                walks: AtomicUsize::new(0),
                passes: AtomicUsize::new(0),
            }
        }

        fn walks(&self) -> usize {
            self.walks.load(Ordering::SeqCst)
        }

        fn passes(&self) -> usize {
            self.passes.load(Ordering::SeqCst)
        }
    }

    impl Collectible for Counted {
        fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit {
            self.cells.visit_cells(op, budget, resume, guard)
        }

        fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
            self.passes.fetch_add(1, Ordering::SeqCst);
            self.cells.collect_bounded(min_active, budget, guard)
        }

        fn version_stats(&self, guard: &Guard) -> VersionStats {
            self.walks.fetch_add(1, Ordering::SeqCst);
            self.cells.version_stats(guard)
        }
    }

    /// A camera with `Amortized { every_n_updates: 1 }` installed and one registered
    /// [`Counted`] member of `n` cells, nothing ever pushed.
    fn quiet_camera(n: usize) -> (Arc<Camera>, Arc<Counted>) {
        let camera = Camera::new();
        let member = Arc::new(Counted::new(&camera, n));
        camera.register_collectible(&member);
        ReclaimPolicy::Amortized { every_n_updates: 1, budget: 64 }.install(&camera);
        (camera, member)
    }

    /// With no version ever pushed, the camera's history count is 0, so no slice walks
    /// the structure or runs a bounded pass over it.
    #[test]
    fn a_debt_free_structure_is_walked_at_most_once() {
        let (camera, member) = quiet_camera(8);
        let guard = pin();
        for _ in 0..10_000 {
            camera.reclaim_tick(&guard);
        }
        assert_eq!(member.walks(), 0, "version_stats walks over a quiet structure");
        assert_eq!(member.passes(), 0, "bounded passes over a structure without history");
    }

    /// A push after quiet ticks reopens the gate: the next slices find the history and
    /// retire it.
    #[test]
    fn a_push_after_a_quiet_refresh_reopens_the_gate() {
        let (camera, member) = quiet_camera(4);
        let guard = pin();
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        let cell = &member.cells.cells[0];
        let pinned = camera.pin_snapshot();
        let cur = cell.read(&guard);
        assert!(cell.compare_and_swap(cur, cur + 1, &guard));
        assert_eq!(cell.version_count(&guard), 2, "the push must lengthen the list");
        drop(pinned);
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        assert!(camera.versions_retired() > 0, "the pushed history was never retired");
        let stats = member.cells.version_stats(&guard);
        assert!(stats.max_versions_per_cell <= 2, "lists must be truncated, got {stats:?}");
    }

    /// History pushed before a structure registers is swept once it does (the gate reads
    /// the camera's count, not a measurement of the members), and the gate closes again
    /// once the sweep has cut every cell to one version.
    #[test]
    fn history_pushed_before_registration_is_swept_after_it() {
        let camera = Camera::new();
        ReclaimPolicy::Amortized { every_n_updates: 1, budget: 64 }.install(&camera);
        let member = Arc::new(Counted::new(&camera, 4));
        let guard = pin();
        member.cells.churn(5, &guard);
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        assert_eq!(member.passes(), 0, "an unregistered structure was swept");
        camera.register_collectible(&member);
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        assert!(member.passes() > 0, "the history pushed before registration was never swept");
        assert_eq!(member.cells.version_stats(&guard).max_versions_per_cell, 1);
        let passes = member.passes();
        for _ in 0..1_000 {
            camera.reclaim_tick(&guard);
        }
        assert_eq!(member.passes(), passes, "the gate stayed open with no history left");
        assert_eq!(member.walks(), 0, "the registry walked the structure");
    }

    #[test]
    fn registry_drives_bounded_slices_round_robin() {
        let camera = Camera::new();
        let cells = Arc::new(Cells::new(&camera, 8));
        camera.register_collectible(&cells);
        assert_eq!(camera.registered_collectibles(), 1);

        let guard = pin();
        cells.churn(10, &guard);
        assert!(cells.version_stats(&guard).max_versions_per_cell > 10);

        // Three cells per slice: three slices cover all eight cells (the third completes).
        let s1 = camera.collect_slice(3, &guard);
        assert_eq!(s1.cells_visited, 3);
        assert!(!s1.completed_cycle);
        let s2 = camera.collect_slice(3, &guard);
        let s3 = camera.collect_slice(3, &guard);
        assert!(s3.completed_cycle);
        assert!(s1.versions_retired + s2.versions_retired + s3.versions_retired > 0);
        let stats = cells.version_stats(&guard);
        assert_eq!(stats.max_versions_per_cell, 1, "full sweep with no pins leaves one version");
    }

    /// Regression test: a zero-retirement pass that *resumed from a parked cursor* is a
    /// tail-only sweep, not proof of quiescence — `collect_to_quiescence` must keep going
    /// until a fresh full cycle retires nothing.
    #[test]
    fn quiescence_is_not_fooled_by_a_parked_cursor() {
        let camera = Camera::new();
        let cells = Arc::new(Cells::new(&camera, 8));
        camera.register_collectible(&cells);
        let guard = pin();
        cells.churn(5, &guard);
        // Clean only the tail (cells 6..8), then park the cursor back there — the state an
        // amortized driver leaves behind mid-sweep: dirty prefix, clean tail, cursor high.
        cells.cursor.key.store(6 + 1, Ordering::SeqCst);
        let tail = cells.collect_bounded(camera.min_active(), 64, &guard);
        assert!(tail.completed_cycle && tail.versions_retired > 0);
        cells.cursor.key.store(6 + 1, Ordering::SeqCst);

        // The first pass now completes retiring nothing; quiescence must NOT be declared
        // until a fresh cycle has swept the dirty prefix too.
        let total = camera.collect_to_quiescence(64, 16, &guard);
        assert!(total.completed_cycle, "quiescence must be reached");
        assert!(total.versions_retired > 0, "the dirty prefix must not be skipped");
        assert_eq!(cells.version_stats(&guard).max_versions_per_cell, 1);
    }

    /// Fairness under a pin: history that *cannot currently be retired* (a pin still
    /// protects it) keeps the gate open, and the member holding it must not win every
    /// slice — round-robin serves the member whose history is reclaimable.
    #[test]
    fn unreclaimable_debt_does_not_pin_slice_selection() {
        let camera = Camera::new();
        // Elision off: this test exercises the *lazy* dead same-timestamp collection in
        // `collect_slice`, which needs the intermediates to actually accumulate.
        camera.set_elision_enabled(false);
        let stuck = Arc::new(Cells::new(&camera, 4));
        let busy = Arc::new(Cells::new(&camera, 4));
        camera.register_collectible(&stuck);
        camera.register_collectible(&busy);
        let guard = pin();
        let _pin = camera.pin_snapshot();
        // `stuck`: the larger debt, all distinct-timestamp history above the pin — real
        // versions, none reclaimable while the pin lives.
        stuck.churn(30, &guard);
        // `busy`: smaller debt, but same-timestamp bursts — its intermediates are dead
        // and reclaimable even under the pin.
        for cell in &busy.cells {
            for _ in 0..10 {
                let cur = cell.read(&guard);
                assert!(cell.compare_and_swap(cur, cur + 1, &guard));
            }
        }
        // A selector that kept picking `stuck` would retire nothing here.
        let mut retired = 0;
        for _ in 0..8 {
            retired += camera.collect_slice(64, &guard).versions_retired;
        }
        assert!(retired > 0, "reclaimable member starved behind unreclaimable debt");
        assert!(busy.version_stats(&guard).max_versions_per_cell <= 2);
    }

    #[test]
    fn dropping_a_collectible_unregisters_it() {
        let camera = Camera::new();
        let cells = Arc::new(Cells::new(&camera, 2));
        camera.register_collectible(&cells);
        assert_eq!(camera.registered_collectibles(), 1);
        drop(cells);
        assert_eq!(camera.registered_collectibles(), 0);
        // Collecting over an empty registry is a harmless no-op.
        let guard = pin();
        assert!(camera.collect_all(16, &guard).completed_cycle);
    }

    #[test]
    fn amortized_policy_collects_from_update_ticks() {
        let camera = Camera::new();
        let cells = Arc::new(Cells::new(&camera, 4));
        camera.register_collectible(&cells);
        assert!(ReclaimPolicy::Amortized { every_n_updates: 8, budget: 64 }
            .install(&camera)
            .is_none());

        let guard = pin();
        cells.churn(20, &guard);
        // The churn above produced no ticks (it drives cells directly); replay ticks the
        // way a structure's update path would.
        for _ in 0..64 {
            camera.reclaim_tick(&guard);
        }
        assert!(camera.versions_retired() > 0, "amortized ticks must have collected");
        let stats = cells.version_stats(&guard);
        assert!(stats.max_versions_per_cell <= 2, "lists must be truncated, got {stats:?}");
    }

    #[test]
    fn disabled_policy_never_collects() {
        let camera = Camera::new();
        let cells = Arc::new(Cells::new(&camera, 2));
        camera.register_collectible(&cells);
        assert!(ReclaimPolicy::Disabled.install(&camera).is_none());
        let guard = pin();
        cells.churn(5, &guard);
        for _ in 0..100 {
            camera.reclaim_tick(&guard);
        }
        assert_eq!(camera.versions_retired(), 0);
        assert_eq!(cells.version_stats(&guard).max_versions_per_cell, 6);
    }

    #[test]
    fn background_collector_truncates_and_stops() {
        let camera = Camera::new();
        let cells = Arc::new(Cells::new(&camera, 4));
        camera.register_collectible(&cells);
        let collector = ReclaimPolicy::Background { interval_ms: 1, budget: 64 }
            .install(&camera)
            .expect("background policy starts a collector");
        assert!(collector.is_running());

        {
            let guard = pin();
            cells.churn(10, &guard);
        }
        // Wait (bounded) for the collector to catch up.
        for _ in 0..500 {
            if camera.approx_live_versions() <= 2 * 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(camera.versions_retired() > 0, "collector never retired anything");
        let guard = pin();
        assert!(cells.version_stats(&guard).max_versions_per_cell <= 2);
        drop(guard);
        collector.stop();
    }

    #[test]
    fn counters_track_created_and_retired() {
        let camera = Camera::new();
        let cell = VersionedCas::new(0u64, &camera);
        let guard = pin();
        assert_eq!(camera.approx_live_versions(), 1, "the initial version counts as created");
        for i in 0..10 {
            camera.take_snapshot();
            assert!(cell.compare_and_swap(i, i + 1, &guard));
        }
        assert_eq!(camera.approx_live_versions(), 11);
        let retired = cell.collect_before(camera.min_active(), &guard);
        assert_eq!(retired as u64, camera.versions_retired());
        assert_eq!(camera.approx_live_versions(), 11 - retired as u64);
    }
}
