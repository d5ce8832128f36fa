//! Hybrid posting containers: sorted `u32` arrays for sparse terms,
//! 64-bit word bitmaps for dense terms, and Roaring-style run lists for
//! contiguous terms.
//!
//! The representation of each term is chosen at build/compaction time.
//! First the run test: postings whose stored ids form few long
//! consecutive runs (average length at least [`RUN_MIN_AVG`]) become a
//! [`RunSet`] — `(start, last)` pairs plus a small sorted tombstone
//! overlay — which intersects in O(runs) and is the natural shape for
//! temporal postings, where ids are assigned in arrival order and a
//! term's documents cluster in contiguous ingest ranges. Otherwise the
//! density test: a term whose postings cover at least `1/density_den`
//! of the universe is stored as a present-bitmap (plus a second
//! *deleted* bitmap carrying the tombstones the array form keeps in
//! bit 31). Everything else stays a sorted array. Cardinality is cached
//! on every form, never recomputed per query.
//!
//! Conversions are one-way at run time — a sparse container promotes
//! when an insert pushes it over the density threshold (the build-time
//! chooser then picks run or bitmap form), a run container demotes only
//! when scattered inserts break the run rule, and
//! [`PostingContainer::compact`] (called at compaction) re-chooses — so
//! the invariants checked by `tir-check` stay simple: dense containers
//! always satisfy the density threshold against their recorded
//! universe, and run containers always satisfy the run rule against
//! their stored count.

use crate::kernels::{live, raw, TOMBSTONE};

/// Default density denominator: a term is dense when its live postings
/// cover at least 1/64 (~1.6%) of the id universe. Retuned 32 → 64 on
/// the vectorized-kernel grid: the fused AVX2 word-AND cut the
/// dense-dense cost to 1.49 ns/elem (from 1.75 scalar) and bitmap
/// probes answer at ~1.5 ns/probe, while the SIMD array kernels only
/// closed the gap in the comparable-size region — so the bitmap form
/// pays off one octave earlier, at ≤4 bitmap bits per stored
/// id-array bit in the marginal band (BENCH_kernels.json).
pub const DEFAULT_DENSITY_DEN: u32 = 64;

/// Tunable container policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerConfig {
    /// A term is dense when `live_count * density_den >= universe`.
    pub density_den: u32,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        ContainerConfig {
            density_den: DEFAULT_DENSITY_DEN,
        }
    }
}

/// A dense postings bitmap over `[0, universe)`: one *present* bit per
/// stored posting and one *deleted* bit per tombstoned posting.
#[derive(Debug, Clone, Default)]
pub struct DenseBits {
    present: Vec<u64>,
    deleted: Vec<u64>,
    universe: u32,
    present_count: u32,
    deleted_count: u32,
}

#[inline]
fn words_for(universe: u32) -> usize {
    (universe as usize).div_ceil(64)
}

impl DenseBits {
    /// An empty bitmap over `[0, universe)`.
    pub fn with_universe(universe: u32) -> DenseBits {
        DenseBits {
            present: vec![0; words_for(universe)],
            deleted: vec![0; words_for(universe)],
            universe,
            present_count: 0,
            deleted_count: 0,
        }
    }

    /// Builds from a raw-id-sorted slice that may carry bit-31 tombstones;
    /// tombstoned entries become present+deleted bits.
    pub fn from_sorted_ids(ids: &[u32], universe: u32) -> DenseBits {
        let mut d = DenseBits::with_universe(universe.max(ids.last().map_or(0, |&x| raw(x) + 1)));
        for &id in ids {
            d.set(raw(id));
            if !live(id) {
                d.tombstone(raw(id));
            }
        }
        d
    }

    /// The id universe this bitmap covers.
    #[inline]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// The present words (for word-at-a-time intersection).
    #[inline]
    pub fn present_words(&self) -> &[u64] {
        &self.present
    }

    /// The deleted words.
    #[inline]
    pub fn deleted_words(&self) -> &[u64] {
        &self.deleted
    }

    /// Number of present postings, tombstoned ones included.
    #[inline]
    pub fn present_count(&self) -> u32 {
        self.present_count
    }

    /// Number of tombstoned postings.
    #[inline]
    pub fn deleted_count(&self) -> u32 {
        self.deleted_count
    }

    /// Live cardinality (popcount-maintained, O(1)).
    #[inline]
    pub fn cardinality(&self) -> u32 {
        self.present_count - self.deleted_count
    }

    /// True if `id` is stored and not tombstoned.
    #[inline]
    pub fn contains_live(&self, id: u32) -> bool {
        if id >= self.universe {
            return false;
        }
        let (w, b) = (id as usize / 64, id % 64);
        (self.present[w] >> b) & 1 == 1 && (self.deleted[w] >> b) & 1 == 0
    }

    /// Marks `id` present and alive (growing the universe if needed),
    /// reviving it if a delete had tombstoned it; returns true if it was
    /// not alive before.
    pub fn set(&mut self, id: u32) -> bool {
        if id >= self.universe {
            self.universe = id + 1;
            self.present.resize(words_for(self.universe), 0);
            self.deleted.resize(words_for(self.universe), 0);
        }
        let (w, b) = (id as usize / 64, id % 64);
        if (self.present[w] >> b) & 1 == 1 {
            let dead = (self.deleted[w] >> b) & 1 == 1;
            if dead {
                self.deleted[w] &= !(1 << b);
                self.deleted_count -= 1;
            }
            return dead;
        }
        self.present[w] |= 1 << b;
        self.present_count += 1;
        true
    }

    /// Tombstones `id`; returns true if it was present and alive.
    pub fn tombstone(&mut self, id: u32) -> bool {
        if id >= self.universe {
            return false;
        }
        let (w, b) = (id as usize / 64, id % 64);
        if (self.present[w] >> b) & 1 == 0 || (self.deleted[w] >> b) & 1 == 1 {
            return false;
        }
        self.deleted[w] |= 1 << b;
        self.deleted_count += 1;
        true
    }

    /// Calls `f(id)` for every live id, ascending.
    pub fn for_each_live(&self, mut f: impl FnMut(u32)) {
        for (w, (&p, &d)) in self.present.iter().zip(&self.deleted).enumerate() {
            let mut m = p & !d;
            while m != 0 {
                // analyze:allow(unguarded-cast): word index * 64 + bit < universe, a u32
                f((w * 64) as u32 + m.trailing_zeros());
                m &= m - 1;
            }
        }
    }

    /// The live ids as a sorted vector (demotion / introspection).
    pub fn to_sorted_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.cardinality() as usize);
        self.for_each_live(|id| out.push(id));
        out
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        (self.present.capacity() + self.deleted.capacity()) * 8
    }
}

/// Minimum average stored run length for the run form: a term becomes a
/// [`RunSet`] when `run_count * RUN_MIN_AVG <= stored_count`. At that
/// shape a run costs at most one u32-array entry per 4 stored ids and
/// intersection work is proportional to runs, not ids.
pub const RUN_MIN_AVG: u32 = 8;

/// Minimum sparse-array length before insert-driven promotion starts
/// checking the run rule (at power-of-two sizes only — see
/// [`PostingContainer::insert`]).
pub const RUN_PROMOTE_CHECK: usize = 64;

/// Run-length postings: sorted, non-overlapping, non-adjacent
/// `(start, last)` id ranges (both inclusive) plus a sorted overlay of
/// tombstoned ids — the Roaring run container adapted to this crate's
/// tombstone model. Dense *contiguous* terms (the common temporal
/// shape: ids assigned in arrival order) intersect in O(runs).
#[derive(Debug, Clone, Default)]
pub struct RunSet {
    runs: Vec<(u32, u32)>,
    deleted: Vec<u32>,
    present_count: u32,
    universe: u32,
}

impl RunSet {
    /// Builds from a raw-id-sorted slice that may carry bit-31
    /// tombstones; tombstoned entries join the deleted overlay.
    pub fn from_sorted_ids(ids: &[u32], universe: u32) -> RunSet {
        let mut r = RunSet {
            universe: universe.max(ids.last().map_or(0, |&x| raw(x) + 1)),
            ..RunSet::default()
        };
        for &id in ids {
            let x = raw(id);
            match r.runs.last_mut() {
                Some(run) if run.1 + 1 == x => run.1 = x,
                Some(run) => {
                    debug_assert!(run.1 < x, "ids not sorted/unique by raw id");
                    r.runs.push((x, x));
                }
                None => r.runs.push((x, x)),
            }
            if !live(id) {
                r.deleted.push(x);
            }
        }
        // analyze:allow(unguarded-cast): stored count is bounded by the u32 id universe
        r.present_count = ids.len() as u32;
        r
    }

    /// The runs, sorted and non-adjacent (for O(runs) intersection).
    #[inline]
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// The tombstoned ids, sorted ascending.
    #[inline]
    pub fn deleted(&self) -> &[u32] {
        &self.deleted
    }

    /// The id universe this run set covers.
    #[inline]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Number of stored postings, tombstoned ones included.
    #[inline]
    pub fn present_count(&self) -> u32 {
        self.present_count
    }

    /// Number of tombstoned postings.
    #[inline]
    pub fn deleted_count(&self) -> u32 {
        // analyze:allow(unguarded-cast): deleted ids are a subset of the stored u32 ids
        self.deleted.len() as u32
    }

    /// Live cardinality (cached counts, O(1)).
    #[inline]
    pub fn cardinality(&self) -> u32 {
        self.present_count - self.deleted_count()
    }

    /// Index of the run containing `id`, if any.
    #[inline]
    fn run_of(&self, id: u32) -> Option<usize> {
        let i = self.runs.partition_point(|&(s, _)| s <= id);
        (i > 0 && self.runs[i - 1].1 >= id).then(|| i - 1)
    }

    /// True if `id` is stored and not tombstoned.
    #[inline]
    pub fn contains_live(&self, id: u32) -> bool {
        self.run_of(id).is_some() && self.deleted.binary_search(&id).is_err()
    }

    /// Marks `id` present and alive (growing the universe if needed),
    /// dropping it from the deleted overlay if a delete had put it there;
    /// returns true if it was not alive before. Mirrors [`DenseBits::set`].
    pub fn set(&mut self, id: u32) -> bool {
        self.universe = self.universe.max(id + 1);
        let i = self.runs.partition_point(|&(s, _)| s <= id);
        if i > 0 && self.runs[i - 1].1 >= id {
            let dead = self.deleted.binary_search(&id);
            if let Ok(p) = dead {
                self.deleted.remove(p);
            }
            return dead.is_ok();
        }
        let extends_prev = i > 0 && self.runs[i - 1].1 + 1 == id;
        let extends_next = i < self.runs.len() && id + 1 == self.runs[i].0;
        match (extends_prev, extends_next) {
            (true, true) => {
                self.runs[i - 1].1 = self.runs[i].1;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 = id,
            (false, true) => self.runs[i].0 = id,
            (false, false) => self.runs.insert(i, (id, id)),
        }
        self.present_count += 1;
        true
    }

    /// Tombstones `id`; returns true if it was present and alive.
    pub fn tombstone(&mut self, id: u32) -> bool {
        if self.run_of(id).is_none() {
            return false;
        }
        match self.deleted.binary_search(&id) {
            Ok(_) => false,
            Err(p) => {
                self.deleted.insert(p, id);
                true
            }
        }
    }

    /// True if the run rule still holds (average stored run length at
    /// least [`RUN_MIN_AVG`]); scattered inserts that break it trigger a
    /// demotion in [`PostingContainer::insert`].
    #[inline]
    pub fn run_rule_holds(&self) -> bool {
        // analyze:allow(unguarded-cast): run count <= stored count, bounded by u32
        u64::from(self.runs.len() as u32) * u64::from(RUN_MIN_AVG) <= u64::from(self.present_count)
    }

    /// Calls `f(id)` for every live id, ascending.
    pub fn for_each_live(&self, mut f: impl FnMut(u32)) {
        let mut di = 0usize;
        for &(s, l) in &self.runs {
            for id in s..=l {
                while di < self.deleted.len() && self.deleted[di] < id {
                    di += 1;
                }
                if di < self.deleted.len() && self.deleted[di] == id {
                    continue;
                }
                f(id);
            }
        }
    }

    /// The stored ids as a raw-sorted vector with bit-31 tombstones —
    /// the exact input [`PostingContainer::from_sorted`] takes, used
    /// when a broken run rule forces a representation re-choice.
    pub fn to_stored_ids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.present_count as usize);
        let mut di = 0usize;
        for &(s, l) in &self.runs {
            for id in s..=l {
                while di < self.deleted.len() && self.deleted[di] < id {
                    di += 1;
                }
                if di < self.deleted.len() && self.deleted[di] == id {
                    out.push(id | TOMBSTONE);
                } else {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.runs.capacity() * 8 + self.deleted.capacity() * 4
    }
}

/// One term's postings in whichever form the layout policy picked.
#[derive(Debug, Clone)]
pub enum PostingContainer {
    /// Sparse form: raw-id-sorted array, tombstones in bit 31, plus the
    /// cached live count.
    Sparse {
        /// The id array (sorted ascending by raw id).
        ids: Vec<u32>,
        /// Number of non-tombstoned entries.
        live: u32,
    },
    /// Dense form: present/deleted bitmaps.
    Dense(DenseBits),
    /// Run form: consecutive id ranges with a tombstone overlay.
    Runs(RunSet),
}

impl Default for PostingContainer {
    fn default() -> Self {
        PostingContainer::Sparse {
            ids: Vec::new(),
            live: 0,
        }
    }
}

impl PostingContainer {
    /// Builds from a raw-id-sorted slice (bit-31 tombstones allowed):
    /// run form if the stored ids satisfy the run rule, else bitmap by
    /// density over `universe`, else sorted array.
    pub fn from_sorted(ids: &[u32], universe: u32, cfg: ContainerConfig) -> PostingContainer {
        // analyze:allow(unguarded-cast): live count is bounded by the u32 id universe
        let live_count = ids.iter().filter(|&&id| live(id)).count() as u32;
        // analyze:allow(unguarded-cast): run count <= stored count, bounded by u32
        let run_count = count_runs(ids) as u32;
        // Density wins over clustering: a dense list answers big
        // conjunctions by word-AND (1.5 ns/elem on the kernel grid),
        // which run walking cannot match once the candidate side is a
        // bitmap. Runs take the clustered-but-sparse remainder.
        if is_dense(live_count, universe, cfg) {
            PostingContainer::Dense(DenseBits::from_sorted_ids(ids, universe))
        } else if !ids.is_empty()
            && u64::from(run_count) * u64::from(RUN_MIN_AVG) <= ids.len() as u64
        {
            PostingContainer::Runs(RunSet::from_sorted_ids(ids, universe))
        } else {
            PostingContainer::Sparse {
                ids: ids.to_vec(),
                live: live_count,
            }
        }
    }

    /// True for the bitmap form.
    #[inline]
    pub fn is_dense(&self) -> bool {
        matches!(self, PostingContainer::Dense(_))
    }

    /// True for the run form.
    #[inline]
    pub fn is_runs(&self) -> bool {
        matches!(self, PostingContainer::Runs(_))
    }

    /// Live cardinality.
    pub fn cardinality(&self) -> u32 {
        match self {
            PostingContainer::Sparse { live, .. } => *live,
            PostingContainer::Dense(d) => d.cardinality(),
            PostingContainer::Runs(r) => r.cardinality(),
        }
    }

    /// Stored entries, tombstoned ones included.
    pub fn raw_len(&self) -> usize {
        match self {
            PostingContainer::Sparse { ids, .. } => ids.len(),
            PostingContainer::Dense(d) => d.present_count() as usize,
            PostingContainer::Runs(r) => r.present_count() as usize,
        }
    }

    /// Adds `id` (must not be stored live already; a tombstoned entry of
    /// the same id is revived in place), promoting to dense
    /// or run form if the live count crosses the density threshold
    /// against `universe`, and demoting a run container whose run rule a
    /// scattered insert broke.
    pub fn insert(&mut self, id: u32, universe: u32, cfg: ContainerConfig) {
        match self {
            PostingContainer::Sparse { ids, live } => {
                match ids.last() {
                    Some(&last) if raw(last) >= id => {
                        let pos = ids.partition_point(|&x| raw(x) < id);
                        if ids[pos] == id {
                            return; // stored alive already: a caller bug, not a second entry
                        } else if raw(ids[pos]) == id {
                            ids[pos] = id; // the tombstone a delete left: revive it
                        } else {
                            ids.insert(pos, id);
                        }
                    }
                    _ => ids.push(id),
                }
                *live += 1;
                if is_dense(*live, universe, cfg) {
                    *self = PostingContainer::from_sorted(ids, universe, cfg);
                } else if ids.len() >= RUN_PROMOTE_CHECK && ids.len().is_power_of_two() {
                    // Geometric checkpoints: an O(n) run scan at 64,
                    // 128, 256, … amortizes to O(1) per insert, so
                    // clustered lists that never reach the density
                    // threshold still promote to the run form.
                    let rc = count_runs(ids);
                    if rc as u64 * u64::from(RUN_MIN_AVG) <= ids.len() as u64 {
                        *self = PostingContainer::Runs(RunSet::from_sorted_ids(ids, universe));
                    }
                }
            }
            PostingContainer::Dense(d) => {
                d.set(id);
            }
            PostingContainer::Runs(r) => {
                r.set(id);
                if !r.run_rule_holds() {
                    *self = PostingContainer::from_sorted(&r.to_stored_ids(), universe, cfg);
                }
            }
        }
    }

    /// Tombstones `id`; returns true if found alive.
    pub fn tombstone(&mut self, id: u32) -> bool {
        match self {
            PostingContainer::Sparse { ids, live } => {
                if let Ok(p) = ids.binary_search_by_key(&id, |&x| raw(x)) {
                    if live_at(ids, p) {
                        ids[p] |= TOMBSTONE;
                        *live -= 1;
                        return true;
                    }
                }
                false
            }
            PostingContainer::Dense(d) => d.tombstone(id),
            PostingContainer::Runs(r) => r.tombstone(id),
        }
    }

    /// Re-chooses the representation for the current live set: drops
    /// tombstones from the array form, merges the run form's deleted
    /// overlay away, and demotes bitmaps that fell under the threshold.
    /// The compaction-time counterpart of the build-time choice in
    /// [`PostingContainer::from_sorted`].
    pub fn compact(&mut self, universe: u32, cfg: ContainerConfig) {
        let live_ids = match self {
            PostingContainer::Sparse { ids, .. } => {
                ids.retain(|&id| live(id));
                ids.clone()
            }
            PostingContainer::Dense(d) => d.to_sorted_vec(),
            PostingContainer::Runs(r) => {
                let mut out = Vec::with_capacity(r.cardinality() as usize);
                r.for_each_live(|id| out.push(id));
                out
            }
        };
        *self = PostingContainer::from_sorted(&live_ids, universe, cfg);
    }

    /// Calls `f(id)` for every live id, ascending.
    pub fn for_each_live(&self, mut f: impl FnMut(u32)) {
        match self {
            PostingContainer::Sparse { ids, .. } => {
                for &id in ids {
                    if live(id) {
                        f(id);
                    }
                }
            }
            PostingContainer::Dense(d) => d.for_each_live(f),
            PostingContainer::Runs(r) => r.for_each_live(f),
        }
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            PostingContainer::Sparse { ids, .. } => ids.capacity() * 4,
            PostingContainer::Dense(d) => d.size_bytes(),
            PostingContainer::Runs(r) => r.size_bytes(),
        }
    }
}

/// Number of maximal consecutive raw-id runs in a sorted slice.
fn count_runs(ids: &[u32]) -> usize {
    let mut runs = 0usize;
    let mut prev: Option<u32> = None;
    for &id in ids {
        let x = raw(id);
        if prev != Some(x.wrapping_sub(1)) {
            runs += 1;
        }
        prev = Some(x);
    }
    runs
}

#[inline]
fn is_dense(live_count: u32, universe: u32, cfg: ContainerConfig) -> bool {
    universe > 0
        && live_count > 0
        && u64::from(live_count) * u64::from(cfg.density_den.max(1)) >= u64::from(universe)
}

#[inline]
fn live_at(ids: &[u32], p: usize) -> bool {
    live(ids[p])
}

/// A term → [`PostingContainer`] directory over one id universe — the
/// build-time product of the hybrid layout, dropped next to an index's
/// temporal lists to accelerate its conjunction steps.
#[derive(Debug, Clone, Default)]
pub struct HybridPostings {
    map: std::collections::HashMap<u32, PostingContainer>,
    universe: u32,
    cfg: ContainerConfig,
}

impl HybridPostings {
    /// Builds the directory from `(term, raw-sorted ids)` pairs. The
    /// universe should be `max id + 1` over the snapshot.
    pub fn from_lists<'a>(
        lists: impl Iterator<Item = (u32, &'a [u32])>,
        universe: u32,
        cfg: ContainerConfig,
    ) -> HybridPostings {
        let map = lists
            .map(|(e, ids)| (e, PostingContainer::from_sorted(ids, universe, cfg)))
            .collect();
        HybridPostings { map, universe, cfg }
    }

    /// The container of a term, if any posting was stored for it.
    #[inline]
    pub fn get(&self, e: u32) -> Option<&PostingContainer> {
        self.map.get(&e)
    }

    /// The id universe (`max id + 1`).
    #[inline]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// The density policy.
    #[inline]
    pub fn config(&self) -> ContainerConfig {
        self.cfg
    }

    /// Number of terms with a container.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no term has a container.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Adds one posting, growing the universe and promoting the term's
    /// container if it crosses the density threshold.
    pub fn insert(&mut self, e: u32, id: u32) {
        self.universe = self.universe.max(id + 1);
        let (universe, cfg) = (self.universe, self.cfg);
        self.map.entry(e).or_default().insert(id, universe, cfg);
    }

    /// Tombstones one posting; returns true if found alive.
    pub fn tombstone(&mut self, e: u32, id: u32) -> bool {
        self.map.get_mut(&e).is_some_and(|c| c.tombstone(id))
    }

    /// Re-chooses every term's representation (compaction).
    pub fn compact(&mut self) {
        let (universe, cfg) = (self.universe, self.cfg);
        for c in self.map.values_mut() {
            c.compact(universe, cfg);
        }
    }

    /// Calls `f(term, container)` for every term, unspecified order
    /// (introspection for validators).
    pub fn for_each(&self, mut f: impl FnMut(u32, &PostingContainer)) {
        for (&e, c) in &self.map {
            f(e, c);
        }
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.map
            .values()
            .map(|c| c.size_bytes() + std::mem::size_of::<PostingContainer>() + 16)
            .sum()
    }

    /// Deliberately desyncs a cached cardinality — used by `tir-check`'s
    /// property tests to prove the validator notices.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_cardinality(&mut self) {
        for c in self.map.values_mut() {
            match c {
                PostingContainer::Sparse { live, ids } if !ids.is_empty() => {
                    *live += 1;
                    return;
                }
                PostingContainer::Dense(d) => {
                    d.present_count += 1;
                    return;
                }
                PostingContainer::Runs(r) => {
                    r.present_count += 1;
                    return;
                }
                PostingContainer::Sparse { .. } => {}
            }
        }
    }

    /// Deliberately sets a deleted bit outside the present set — used by
    /// `tir-check`'s property tests to prove the validator notices.
    #[cfg(feature = "testing")]
    pub fn testing_corrupt_deleted_outside(&mut self) {
        for c in self.map.values_mut() {
            match c {
                PostingContainer::Dense(d) => {
                    for (w, (&p, del)) in d.present.iter().zip(d.deleted.iter_mut()).enumerate() {
                        if !p != 0 || w + 1 == d.present.len() {
                            let hole = (!p).trailing_zeros().min(63);
                            // analyze:allow(unguarded-cast): word index times 64 is bounded by the u32 universe
                            if (w * 64) as u32 + hole < d.universe {
                                *del |= 1u64 << hole;
                                return;
                            }
                        }
                    }
                }
                PostingContainer::Runs(r) => {
                    // A deleted id just past the last run is outside
                    // every run — exactly what the validator must flag.
                    if let Some(&(_, last)) = r.runs.last() {
                        r.deleted.push(last + 1);
                        return;
                    }
                }
                PostingContainer::Sparse { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_choice_at_build() {
        let cfg = ContainerConfig::default();
        // 4 live of universe 1000: sparse.
        let c = PostingContainer::from_sorted(&[1, 5, 9, 900], 1000, cfg);
        assert!(!c.is_dense());
        // 40 live of universe 1000 (1/25 > 1/32): dense.
        let ids: Vec<u32> = (0..40).map(|i| i * 25).collect();
        let c = PostingContainer::from_sorted(&ids, 1000, cfg);
        assert!(c.is_dense());
        assert_eq!(c.cardinality(), 40);
    }

    #[test]
    fn tombstones_on_every_form() {
        let cfg = ContainerConfig::default();
        let mut sparse = PostingContainer::from_sorted(&[1, 5, 9], 1000, cfg);
        assert!(sparse.tombstone(5));
        assert!(!sparse.tombstone(5));
        assert_eq!(sparse.cardinality(), 2);

        // Evens: 64 singleton runs fail the run rule, density picks the
        // bitmap.
        let ids: Vec<u32> = (0..64).map(|i| i * 2).collect();
        let mut dense = PostingContainer::from_sorted(&ids, 128, cfg);
        assert!(dense.is_dense());
        assert!(dense.tombstone(8));
        assert!(!dense.tombstone(8));
        assert_eq!(dense.cardinality(), 63);
        let PostingContainer::Dense(d) = &dense else {
            unreachable!()
        };
        assert!(!d.contains_live(8));
        assert!(d.contains_live(10));

        // One contiguous range in a universe too big for density: run
        // form (64/10000 < 1/64, so the bitmap never competes).
        let ids: Vec<u32> = (0..64).collect();
        let mut runs = PostingContainer::from_sorted(&ids, 10_000, cfg);
        assert!(runs.is_runs());
        assert!(runs.tombstone(7));
        assert!(!runs.tombstone(7));
        assert!(!runs.tombstone(99), "outside every run");
        assert_eq!(runs.cardinality(), 63);
        let PostingContainer::Runs(r) = &runs else {
            unreachable!()
        };
        assert_eq!(r.runs(), &[(0, 63)]);
        assert!(!r.contains_live(7));
        assert!(r.contains_live(8));
        let mut seen = Vec::new();
        r.for_each_live(|id| seen.push(id));
        assert_eq!(seen.len(), 63);
        assert!(!seen.contains(&7));
    }

    #[test]
    fn reinsert_revives_on_every_form() {
        // A deleted id may be inserted again: each form keeps one entry
        // per raw id and counts it alive again.
        let cfg = ContainerConfig::default();
        let evens: Vec<u32> = (0..64).map(|i| i * 2).collect();
        let range: Vec<u32> = (0..64).collect();
        for (mut c, id, universe) in [
            (
                PostingContainer::from_sorted(&[1, 5, 9], 1000, cfg),
                5,
                1000,
            ),
            (
                PostingContainer::from_sorted(&[1, 5, 9], 1000, cfg),
                9,
                1000,
            ),
            (PostingContainer::from_sorted(&evens, 128, cfg), 8, 128),
            (
                PostingContainer::from_sorted(&range, 10_000, cfg),
                7,
                10_000,
            ),
        ] {
            let (card, stored) = (c.cardinality(), c.raw_len());
            assert!(c.tombstone(id));
            c.insert(id, universe, cfg);
            assert_eq!((c.cardinality(), c.raw_len()), (card, stored));
            let mut seen = Vec::new();
            c.for_each_live(|x| seen.push(x));
            assert!(seen.contains(&id) && seen.windows(2).all(|w| w[0] < w[1]));
            assert!(c.tombstone(id), "alive again, so deletable again");
        }
    }

    #[test]
    fn run_set_insert_merges_and_demotes() {
        let mut r = RunSet::from_sorted_ids(&(10..30).collect::<Vec<u32>>(), 100);
        assert_eq!(r.runs(), &[(10, 29)]);
        // Extending either edge keeps one run; a bridge merges two.
        assert!(r.set(30));
        assert!(r.set(9));
        assert!(r.set(40));
        assert_eq!(r.runs(), &[(9, 30), (40, 40)]);
        assert!(r.set(31));
        assert!(!r.set(31), "already present");
        assert_eq!(r.runs(), &[(9, 31), (40, 40)]);
        for id in 32..40 {
            r.set(id);
        }
        assert_eq!(r.runs(), &[(9, 40)]);
        assert_eq!(r.present_count(), 32);

        // Stored round-trip keeps tombstones.
        assert!(r.tombstone(12));
        let stored = r.to_stored_ids();
        assert_eq!(stored.len(), 32);
        assert_eq!(stored[3], 12 | TOMBSTONE);
        let back = RunSet::from_sorted_ids(&stored, 100);
        assert_eq!(back.runs(), r.runs());
        assert_eq!(back.deleted(), r.deleted());

        // Scattered inserts break the run rule and demote the container.
        let cfg = ContainerConfig::default();
        let mut c =
            PostingContainer::Runs(RunSet::from_sorted_ids(&[0, 1, 2, 3, 4, 5, 6, 7], 1 << 20));
        assert!(c.is_runs());
        for id in [100u32, 300, 500, 700] {
            c.insert(id, 1 << 20, cfg);
        }
        assert!(!c.is_runs(), "run rule broken by scattered inserts");
        assert_eq!(c.cardinality(), 12);
    }

    #[test]
    fn dense_builder_carries_tombstones() {
        let ids: Vec<u32> = (0..64)
            .map(|i| if i == 3 { i | TOMBSTONE } else { i })
            .collect();
        let d = DenseBits::from_sorted_ids(&ids, 64);
        assert_eq!(d.present_count(), 64);
        assert_eq!(d.deleted_count(), 1);
        assert_eq!(d.cardinality(), 63);
        assert!(!d.contains_live(3));
        assert_eq!(d.to_sorted_vec().len(), 63);
    }

    #[test]
    fn insert_promotes_and_compact_demotes() {
        let cfg = ContainerConfig { density_den: 4 };
        let mut c = PostingContainer::default();
        for id in 0..24 {
            c.insert(id * 2, 200, cfg);
        }
        assert!(!c.is_dense(), "24/200 < 1/4");
        for id in 24..50 {
            c.insert(id * 2, 200, cfg);
        }
        assert!(c.is_dense(), "50/200 >= 1/4, evens fail the run rule");
        assert_eq!(c.cardinality(), 50);
        for id in 0..45 {
            assert!(c.tombstone(id * 2));
        }
        c.compact(200, cfg);
        assert!(
            !c.is_dense() && !c.is_runs(),
            "5/200 < 1/4 after compaction"
        );
        assert_eq!(c.cardinality(), 5);
        let mut seen = Vec::new();
        c.for_each_live(|id| seen.push(id));
        assert_eq!(seen, vec![90, 92, 94, 96, 98]);

        // The same growth with consecutive ids in a sparse universe
        // promotes to the run form at the 64-element checkpoint, and
        // compaction demotes it once tombstones shrink it.
        let mut c = PostingContainer::default();
        for id in 0..63 {
            c.insert(id, 10_000, cfg);
        }
        assert!(!c.is_runs(), "below the promotion checkpoint");
        c.insert(63, 10_000, cfg);
        assert!(c.is_runs(), "contiguous checkpoint promotion picks runs");
        assert_eq!(c.cardinality(), 64);
        for id in 0..59 {
            assert!(c.tombstone(id));
        }
        c.compact(10_000, cfg);
        assert!(!c.is_dense() && !c.is_runs(), "5 ids, one short run");
        assert_eq!(c.cardinality(), 5);
        let mut seen = Vec::new();
        c.for_each_live(|id| seen.push(id));
        assert_eq!(seen, vec![59, 60, 61, 62, 63]);
    }

    #[test]
    fn hybrid_directory_roundtrip() {
        let run_ids: Vec<u32> = (0..50).collect();
        // 50 and 3 of 10000 both stay under the 1/64 density threshold;
        // the contiguous list takes the run form, the scattered one
        // stays a sorted array.
        let sparse_ids = [3u32, 47, 99];
        let mut h = HybridPostings::from_lists(
            [(0u32, run_ids.as_slice()), (1, sparse_ids.as_slice())].into_iter(),
            10_000,
            ContainerConfig::default(),
        );
        assert!(h.get(0).is_some_and(PostingContainer::is_runs));
        assert!(h.get(1).is_some_and(|c| !c.is_dense()));
        assert!(h.get(2).is_none());
        assert!(h.tombstone(1, 47));
        assert!(!h.tombstone(1, 47));
        h.insert(2, 120);
        assert_eq!(h.universe(), 10_000, "inserts below the universe keep it");
        h.insert(2, 20_000);
        assert_eq!(h.universe(), 20_001);
        assert_eq!(h.get(1).map(PostingContainer::cardinality), Some(2));
        h.compact();
        assert_eq!(h.get(1).map(PostingContainer::raw_len), Some(2));
    }
}
