//! Automatic version-list reclamation: the collectible registry, reclaim policies, and the
//! background collector.
//!
//! The paper's snapshot scheme only stays practical if version lists are truncated below the
//! oldest live snapshot ([`crate::VersionedCell::collect_before`], driven by
//! [`Camera::min_active`]). Truncation is a *primitive*, though — something has to call it,
//! continuously, against every cell of every structure on the camera, or an update-heavy run
//! leaks memory linearly. This module turns the primitive into a subsystem:
//!
//! * **[`Collectible`]** — implemented by every vCAS data structure. A collectible can
//!   truncate a *bounded slice* of its cells' version lists per call
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

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};

use crate::camera::Camera;

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

/// Number of buckets in [`VersionStats::height_histogram`]. Comfortably above the skip
/// list's maximum tower height (20); the last bucket saturates.
pub const HEIGHT_BUCKETS: usize = 24;

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
    /// Tower-height histogram: `height_histogram[h]` counts nodes whose pointer tower is
    /// `h` levels tall (heights `>= HEIGHT_BUCKETS` saturate into the last bucket). Only
    /// layered structures report it (the skip list — a node of height `h` holds `h`
    /// versioned cells, so tall towers are where truncation budget should go); flat
    /// structures leave it zeroed.
    pub height_histogram: [usize; HEIGHT_BUCKETS],
}

impl VersionStats {
    /// Records one cell holding `versions` retained versions.
    pub fn record_cell(&mut self, versions: usize) {
        self.cells += 1;
        self.versions += versions;
        self.max_versions_per_cell = self.max_versions_per_cell.max(versions);
    }

    /// Records one node with a pointer tower `height` levels tall (skip-list only; see
    /// [`VersionStats::height_histogram`]).
    pub fn record_tower_height(&mut self, height: usize) {
        self.height_histogram[height.min(HEIGHT_BUCKETS - 1)] += 1;
    }

    /// Accumulates `other` into `self` (used by composite structures such as the hash map).
    pub fn merge(&mut self, other: VersionStats) {
        self.cells += other.cells;
        self.versions += other.versions;
        self.max_versions_per_cell = self.max_versions_per_cell.max(other.max_versions_per_cell);
        for (into, from) in self.height_histogram.iter_mut().zip(other.height_histogram) {
            *into += from;
        }
    }
}

/// A structure whose versioned CAS cells can be truncated incrementally.
///
/// Implementors keep an internal cursor so that successive [`collect_bounded`] calls sweep
/// different slices of the structure; a full sweep is signalled by
/// [`CollectStats::completed_cycle`]. Calls may run concurrently with updates and with each
/// other (per-cell truncation is already serialized by
/// [`crate::VersionedCell::collect_before`]), though drivers normally serialize passes.
///
/// [`collect_bounded`]: Collectible::collect_bounded
pub trait Collectible: Send + Sync {
    /// Truncates the version lists of up to `budget` cells under `min_active` (from
    /// [`Camera::min_active`]), resuming after the cell where the previous call stopped.
    fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats;

    /// Walks every cell reachable in the current state and reports version-list sizes
    /// (diagnostic; used by the reclamation stress tests and the workload driver).
    fn version_stats(&self, guard: &Guard) -> VersionStats;
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
    /// (round-robin). Reclamation cost is spread across updaters; no extra threads.
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

/// One registered structure plus its cached *version debt* — retained versions over the
/// one-per-cell baseline, from [`Collectible::version_stats`] — which weights slice
/// collection toward the structures that actually hold reclaimable history.
struct RegEntry {
    /// Stable identity for post-collection debt updates (indices shift as dead entries
    /// are pruned).
    id: u64,
    member: Weak<dyn Collectible>,
    /// Cached debt, decremented by each slice's retirements and refreshed (bounded) when
    /// every entry's cache runs dry.
    debt: u64,
}

/// The collectible registry: entries with cached debts plus the refresh throttle.
struct Registry {
    entries: Vec<RegEntry>,
    /// Slices to serve round-robin before the next all-entries debt refresh is allowed
    /// (recomputing debts walks every cell of every structure, so it is rationed to at
    /// most once per registry-sized run of slices).
    until_refresh: usize,
    next_id: u64,
    /// The zero-debt gate: the [`ReclaimState::pushed`] count read before the last debt
    /// refresh that measured zero debt on every member. While every cached debt is 0 and
    /// the count still equals this, no version list can have grown, so slices are
    /// skipped outright. `None` until such a refresh; `register` clears it.
    quiet_at: Option<u64>,
}

impl Registry {
    fn prune(&mut self) {
        self.entries.retain(|e| e.member.strong_count() > 0);
    }
}

/// Per-camera reclamation state: the collectible registry, the amortized-hook knobs, and
/// the version counters. Owned by [`Camera`]; every public entry point is a `Camera`
/// method.
pub(crate) struct ReclaimState {
    /// Registered structures (`Weak`: dropping a structure unregisters it) with their
    /// cached version debts.
    registry: Mutex<Registry>,
    /// Round-robin cursor over the registry, used when no cached debt separates the
    /// members (all idle, or caches drained between refreshes).
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
    /// displaced head nor pruned their cell. The only event that lengthens a version
    /// list, so the zero-debt gate in [`ReclaimState::next_member`] watches it.
    /// `initial + pushed` is [`Camera::versions_created`].
    pushed: AtomicU64,
    /// Version nodes retired through truncation on this camera.
    retired: AtomicU64,
    /// Version nodes freed when their cell was destroyed (unlinked node reclaimed, failed
    /// publication, or structure drop) — kept separate from `retired` so the truncation
    /// counter stays a pure signal of the reclamation drivers.
    dropped: AtomicU64,
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
            registry: Mutex::new(Registry {
                entries: Vec::new(),
                until_refresh: 0,
                next_id: 0,
                quiet_at: None,
            }),
            cursor: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            every_n: AtomicU64::new(0),
            budget: AtomicUsize::new(0),
            collecting: AtomicBool::new(false),
            initial: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
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

    /// Counts one non-elided publication. Called after the publishing CAS, so the
    /// `Release` increment carries the new version to any refresh whose `Acquire` read
    /// of [`ReclaimState::pushed`] counts it (see `push-gate` in
    /// `docs/memory_orderings.md`).
    pub(crate) fn note_pushed(&self) {
        // ORDERING: push-gate — `Release` after publication.
        self.pushed.fetch_add(1, Ordering::Release);
    }

    /// The push count the zero-debt gate compares; `Acquire` pairs with
    /// [`ReclaimState::note_pushed`].
    fn pushed(&self) -> u64 {
        // ORDERING: push-gate — `Acquire`, pairing with `note_pushed`.
        self.pushed.load(Ordering::Acquire)
    }

    pub(crate) fn note_retired(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.retired.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_dropped(&self, n: u64) {
        // ORDERING: diag-counter — as above.
        self.dropped.fetch_add(n, Ordering::Relaxed);
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

    pub(crate) fn register(&self, member: Weak<dyn Collectible>) {
        let mut registry = self.registry.lock();
        registry.prune();
        let id = registry.next_id;
        registry.next_id += 1;
        // A fresh structure has no debt yet; clearing the refresh throttle and the
        // zero-debt gate lets the next all-caches-dry slice re-measure immediately so the
        // newcomer is weighed in. (Cached debts only ever decay — see `note_slice_result`.)
        registry.entries.push(RegEntry { id, member, debt: 0 });
        registry.until_refresh = 0;
        registry.quiet_at = None;
    }

    pub(crate) fn registered_count(&self) -> usize {
        self.registry.lock().entries.iter().filter(|e| e.member.strong_count() > 0).count()
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

    /// Picks the registered collectible with the largest cached version debt (pruning dead
    /// entries), so a hot structure is not starved by idle ones taking equal round-robin
    /// turns. When every cache is dry, debts are refreshed from
    /// [`Collectible::version_stats`] — at most once per registry-sized run of slices,
    /// with plain round-robin serving the slices in between.
    ///
    /// Returns `None` — no walk, no slice — while the zero-debt gate is closed: the last
    /// refresh measured zero debt everywhere and no version has been pushed since. Only a
    /// push lengthens a version list (new cells start with one version), so a structure
    /// measured at one version per cell stays there until the push count moves.
    fn next_member(&self, guard: &Guard) -> Option<(Arc<dyn Collectible>, u64)> {
        // Read before any walk: a push counted here is visible to the walk below.
        let pushed = self.pushed();
        // Decide whether a refresh is due under the lock, but run the `version_stats`
        // walks (O(cells) per structure) outside it: a refresh must not block
        // register()/members() — and with them a concurrently sweeping collector — for
        // a whole-registry scan. Passes are serialized by `collecting`, so no second
        // refresh can interleave.
        let (next_id, refresh_targets) = {
            let mut registry = self.registry.lock();
            registry.prune();
            if registry.entries.is_empty() {
                return None;
            }
            let targets = if registry.entries.iter().all(|e| e.debt == 0) {
                if registry.quiet_at == Some(pushed) {
                    return None;
                }
                if registry.until_refresh == 0 {
                    registry.until_refresh = registry.entries.len();
                    Some(
                        registry
                            .entries
                            .iter()
                            .map(|e| (e.id, e.member.clone()))
                            .collect::<Vec<_>>(),
                    )
                } else {
                    registry.until_refresh -= 1;
                    None
                }
            } else {
                None
            };
            (registry.next_id, targets)
        };
        if let Some(targets) = refresh_targets {
            let debts: Vec<(u64, u64)> = targets
                .into_iter()
                .filter_map(|(id, weak)| {
                    weak.upgrade().map(|member| {
                        let stats = member.version_stats(guard);
                        (id, stats.versions.saturating_sub(stats.cells) as u64)
                    })
                })
                .collect();
            let mut registry = self.registry.lock();
            for (id, debt) in debts {
                if let Some(entry) = registry.entries.iter_mut().find(|e| e.id == id) {
                    entry.debt = debt;
                }
            }
            // Close the gate only if nobody registered during the walk (an unmeasured
            // newcomer must get its own refresh).
            if registry.next_id == next_id && registry.entries.iter().all(|e| e.debt == 0) {
                registry.quiet_at = Some(pushed);
                return None;
            }
        }
        let registry = self.registry.lock();
        let idx = match registry
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.debt > 0)
            .max_by_key(|(_, e)| e.debt)
        {
            Some((idx, _)) => idx,
            // Nothing owes anything (or caches are dry): plain round-robin.
            // ORDERING: progress-heuristic — any interleaving of cursor bumps yields a
            // valid rotation; fairness, not correctness, is at stake.
            None => self.cursor.fetch_add(1, Ordering::Relaxed) % registry.entries.len(),
        };
        let entry = &registry.entries[idx];
        entry.member.upgrade().map(|m| (m, entry.id))
    }

    /// Settles a finished slice against the member's cached debt. The cache must always
    /// move toward zero, even when the slice retired nothing — debt that is not currently
    /// reclaimable (history a pinned snapshot still holds, measured before the pin) must
    /// not keep winning `max_by_key` forever, or every other member starves behind it and
    /// the all-zero refresh gate never reopens.
    fn note_slice_result(&self, id: u64, stats: CollectStats) {
        let mut registry = self.registry.lock();
        let Some(entry) = registry.entries.iter_mut().find(|e| e.id == id) else { return };
        if stats.versions_retired > 0 {
            entry.debt = entry.debt.saturating_sub(stats.versions_retired as u64);
        } else if stats.completed_cycle {
            // A full pass over the structure retired nothing: whatever the cache claims,
            // none of it is reclaimable right now.
            entry.debt = 0;
        } else {
            // A fruitless partial slice: decay by the ground it covered.
            entry.debt = entry.debt.saturating_sub(stats.cells_visited.max(1) as u64);
        }
    }

    /// Every live registered collectible, in registration order.
    fn members(&self) -> Vec<Arc<dyn Collectible>> {
        let mut registry = self.registry.lock();
        registry.prune();
        registry.entries.iter().filter_map(|e| e.member.upgrade()).collect()
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
        self.exclusive(|| match self.next_member(guard) {
            Some((member, id)) => {
                let stats = member.collect_bounded(min_active, budget, guard);
                self.note_slice_result(id, stats);
                stats
            }
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

    /// A collectible wrapping a handful of standalone cells, with a resumable cursor —
    /// enough to exercise the registry/policy machinery without a full data structure.
    struct Cells {
        cells: Vec<VersionedCas<u64>>,
        cursor: AtomicUsize,
    }

    impl Cells {
        fn new(camera: &Arc<Camera>, n: usize) -> Cells {
            Cells {
                cells: (0..n as u64).map(|i| VersionedCas::new(i, camera)).collect(),
                cursor: AtomicUsize::new(0),
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
        fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
            let mut stats = CollectStats::default();
            let start = self.cursor.load(Ordering::SeqCst);
            let end = (start + budget.max(1)).min(self.cells.len());
            for cell in &self.cells[start..end] {
                stats.versions_retired += cell.collect_before(min_active, guard);
                stats.cells_visited += 1;
            }
            if end == self.cells.len() {
                self.cursor.store(0, Ordering::SeqCst);
                stats.completed_cycle = true;
            } else {
                self.cursor.store(end, Ordering::SeqCst);
            }
            stats
        }

        fn version_stats(&self, guard: &Guard) -> VersionStats {
            let mut stats = VersionStats::default();
            for cell in &self.cells {
                stats.record_cell(cell.version_count(guard));
            }
            stats
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

    /// With no version ever pushed, one refresh measures zero debt and closes the gate:
    /// later slices neither re-walk the structure nor run a bounded pass over it.
    #[test]
    fn a_debt_free_structure_is_walked_at_most_once() {
        let (camera, member) = quiet_camera(8);
        let guard = pin();
        for _ in 0..10_000 {
            camera.reclaim_tick(&guard);
        }
        assert!(
            member.walks() <= 1,
            "{} version_stats walks over a quiet structure",
            member.walks()
        );
        assert_eq!(member.passes(), 0, "bounded passes over a structure measured debt-free");
    }

    /// A push after a quiet refresh reopens the gate: the next slices re-measure, find
    /// the debt and retire it.
    #[test]
    fn a_push_after_a_quiet_refresh_reopens_the_gate() {
        let (camera, member) = quiet_camera(4);
        let guard = pin();
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        assert_eq!(member.walks(), 1, "the gate must be closed before the push");
        let cell = &member.cells.cells[0];
        let pinned = camera.pin_snapshot();
        let cur = cell.read(&guard);
        assert!(cell.compare_and_swap(cur, cur + 1, &guard));
        assert_eq!(cell.version_count(&guard), 2, "the push must lengthen the list");
        drop(pinned);
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        assert!(camera.versions_retired() > 0, "the pushed debt was never retired");
        let stats = member.cells.version_stats(&guard);
        assert!(stats.max_versions_per_cell <= 2, "lists must be truncated, got {stats:?}");
    }

    /// Registering a member reopens the gate even though nothing was pushed: the
    /// newcomer has never been measured.
    #[test]
    fn registering_a_member_reopens_the_gate() {
        let (camera, first) = quiet_camera(4);
        let guard = pin();
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        assert_eq!(first.walks(), 1, "the gate must be closed before the registration");
        let created = camera.versions_created();
        let second = Arc::new(Counted::new(&camera, 4));
        camera.register_collectible(&second);
        for _ in 0..16 {
            camera.reclaim_tick(&guard);
        }
        assert!(second.walks() >= 1, "the newcomer was never measured");
        assert_eq!(camera.versions_created(), created + 4, "only initial versions were added");
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
        cells.cursor.store(6, Ordering::SeqCst);
        let tail = cells.collect_bounded(camera.min_active(), 64, &guard);
        assert!(tail.completed_cycle && tail.versions_retired > 0);
        cells.cursor.store(6, Ordering::SeqCst);

        // The first pass now completes retiring nothing; quiescence must NOT be declared
        // until a fresh cycle has swept the dirty prefix too.
        let total = camera.collect_to_quiescence(64, 16, &guard);
        assert!(total.completed_cycle, "quiescence must be reached");
        assert!(total.versions_retired > 0, "the dirty prefix must not be skipped");
        assert_eq!(cells.version_stats(&guard).max_versions_per_cell, 1);
    }

    /// Satellite regression (ROADMAP "Weighted registry fairness"): slice collection
    /// weights members by version debt (`version_stats`: cells × versions over the
    /// one-per-cell baseline), so a hot structure is served immediately instead of
    /// waiting behind idle structures' empty round-robin turns.
    #[test]
    fn weighted_slices_prefer_the_hot_structure_over_an_idle_one() {
        let camera = Camera::new();
        let idle = Arc::new(Cells::new(&camera, 8));
        let hot = Arc::new(Cells::new(&camera, 8));
        // Idle first: strict round-robin would hand the first slice to it and retire
        // nothing.
        camera.register_collectible(&idle);
        camera.register_collectible(&hot);
        let guard = pin();
        hot.churn(20, &guard);

        let s1 = camera.collect_slice(64, &guard);
        assert!(s1.versions_retired > 0, "first slice starved the hot structure: {s1:?}");
        assert_eq!(
            idle.version_stats(&guard).max_versions_per_cell,
            1,
            "the idle structure had nothing to collect"
        );
        // Follow-up slices drain the hot structure completely.
        for _ in 0..8 {
            camera.collect_slice(64, &guard);
        }
        assert_eq!(hot.version_stats(&guard).max_versions_per_cell, 1);
    }

    /// Review regression: cached debt that *cannot currently be retired* (history a pin
    /// still protects) must decay instead of winning every slice — otherwise the member
    /// holding it starves everyone else for as long as the pin lives.
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
        // Old behavior: `stuck` won every `max_by_key` pick, retired nothing, and its
        // debt never decayed, so `busy` was never served.
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
