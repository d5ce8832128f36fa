//! **tIF+Sharding** (Anand et al., Section 2.2): every postings list is
//! horizontally partitioned into *shards* ordered by `o.tst` that (ideally)
//! satisfy the staircase property — start order implies end order — so a
//! temporal range maps to a contiguous run of entries. No replication, no
//! de-duplication. Impact lists accelerate shard scans.

use crate::collection::Collection;
use crate::method::Method;
use crate::per_term::{PerTerm, TermPartition};
use crate::types::{Interval, Timestamp};
use tir_hint::IntervalRecord;
use tir_invidx::planner::QueryScratch;
use tir_invidx::{live, ByStart, ColumnList, TOMBSTONE};

/// Entries per impact-list block.
pub const IMPACT_STRIDE: usize = 64;

/// One shard: entries sorted by start (read-only outside this module:
/// an index hands out `&Shard` only).
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// The `⟨o.id, [o.tst, o.tend]⟩` entries, starts non-decreasing; ends
    /// non-decreasing too iff `staircase`.
    pub entries: ColumnList<2, ByStart>,
    /// Whether ends are sorted too (ideal shards are, cost-merged ones may
    /// not be).
    pub staircase: bool,
    /// Relaxed shards only: the maximum end per block of [`IMPACT_STRIDE`]
    /// entries, so scans skip blocks that cannot qualify.
    pub impact: Vec<Timestamp>,
}

impl Shard {
    fn rebuild_impact(&mut self) {
        self.impact.clear();
        for chunk in self.entries.ends().chunks(IMPACT_STRIDE) {
            self.impact.push(chunk.iter().copied().max().unwrap_or(0));
        }
    }

    /// Calls `f(i)` for every live entry overlapping `[q_st, q_end]`.
    fn for_each_qualifying(&self, q_st: Timestamp, q_end: Timestamp, mut f: impl FnMut(usize)) {
        let (sts, ends) = (self.entries.sts(), self.entries.ends());
        // Entries starting after q_end cannot qualify: prefix by start.
        let hi = sts.partition_point(|&st| st <= q_end);
        let lo = if self.staircase {
            // Ends are sorted too: entries ending before q_st are a prefix.
            ends[..hi].partition_point(|&end| end < q_st)
        } else {
            0
        };
        if self.staircase {
            for i in lo..hi {
                if live(self.entries.ids[i]) {
                    f(i);
                }
            }
        } else {
            // Relaxed shard: walk blocks, skipping those whose max end is
            // below q_st (the impact list).
            let mut i = lo;
            while i < hi {
                let block = i / IMPACT_STRIDE;
                let block_end = ((block + 1) * IMPACT_STRIDE).min(hi);
                if self.impact.get(block).copied().unwrap_or(u64::MAX) < q_st {
                    i = block_end;
                    continue;
                }
                while i < block_end {
                    if ends[i] >= q_st && live(self.entries.ids[i]) {
                        f(i);
                    }
                    i += 1;
                }
            }
        }
    }
}

/// Ceiling on the shards of one postings list. A build merges the ideal
/// shards down to `⌈√n⌉` of them ([`shard_cap`], approximating the
/// cost-aware merging of Anand et al.) and never keeps more than this; an
/// insert that opens a new shard re-merges the list only once it holds
/// twice this many, because re-merging is a full rebuild of the list.
const MAX_SHARDS_PER_LIST: usize = 512;

/// The shard budget of a list of `n` postings.
fn shard_cap(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).clamp(1, MAX_SHARDS_PER_LIST)
}

/// The `(id, [start, end])` entries of a postings list, sorted by start,
/// then end, then id.
fn sort_by_start(entries: &mut [(u32, [Timestamp; 2])]) {
    entries.sort_unstable_by_key(|&(id, [st, end])| (st, end, id));
}

/// The tIF+Sharding index: a term holds its postings list cut into shards.
pub type TifSharding = PerTerm<Vec<Shard>>;

impl TifSharding {
    /// Builds with the cost-heuristic shard cap.
    pub fn build(coll: &Collection) -> Self {
        Self::build_with(coll, ())
    }
}

/// Greedy first-fit decomposition into ideal (staircase) shards — with the
/// entries sorted by start, placing each into the first shard whose tail
/// end is not larger yields the minimal number of staircase shards — then
/// cost-aware merging down to `cap` shards.
fn build_shards(entries: &[(u32, [Timestamp; 2])], cap: usize) -> Vec<Shard> {
    let key = |&(id, [st, end]): &(u32, [Timestamp; 2])| (st, end, id);
    debug_assert!(entries.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
    let mut shards: Vec<Shard> = Vec::new();
    for &(id, span) in entries {
        let slot = shards
            .iter()
            .position(|s| s.entries.ends().last().is_none_or(|&tail| tail <= span[1]));
        let slot = match slot {
            Some(i) => i,
            None => {
                shards.push(Shard::default());
                shards.len() - 1
            }
        };
        let shard = &mut shards[slot];
        shard.staircase = true;
        shard.entries.push_entry(id, span);
    }
    while shards.len() > cap {
        // Merge the two smallest shards: cheapest extra scan cost.
        let (mut a, mut b) = (0, 1);
        for i in 0..shards.len() {
            if shards[i].entries.len() < shards[a].entries.len() {
                b = a;
                a = i;
            } else if i != a && shards[i].entries.len() < shards[b].entries.len() {
                b = i;
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        let small = shards.swap_remove(b);
        let big = &mut shards[a];
        let mut merged: Vec<_> = big
            .entries
            .entries()
            .chain(small.entries.entries())
            .collect();
        sort_by_start(&mut merged);
        big.entries = ColumnList::from_entries(&merged);
        big.staircase = big.entries.ends().windows(2).all(|w| w[0] <= w[1]);
    }
    for s in &mut shards {
        if s.staircase {
            // Re-check staircase after merging (merge may coincidentally keep it).
            debug_assert!(s.entries.ends().windows(2).all(|w| w[0] <= w[1]));
        } else {
            s.rebuild_impact();
        }
    }
    shards
}

impl TermPartition for Vec<Shard> {
    type Shared = ();

    fn method(_: &()) -> Method {
        Method::Sharding
    }

    fn build(_: &(), records: &[IntervalRecord]) -> Self {
        let mut entries: Vec<_> = records.iter().map(|r| (r.id, [r.st, r.end])).collect();
        sort_by_start(&mut entries);
        build_shards(&entries, shard_cap(entries.len()))
    }

    fn insert(&mut self, _: &(), r: &IntervalRecord) {
        let (st, end, id) = (r.st, r.end, r.id);
        // First shard where inserting keeps both orders (staircase) or
        // at least the start order (relaxed).
        for s in self.iter_mut() {
            let (sts, ends) = (s.entries.sts(), s.entries.ends());
            let pos = sts.partition_point(|&x| x <= st);
            let stair_ok = s.staircase
                && (pos == 0 || ends[pos - 1] <= end)
                && (pos == sts.len() || end <= ends[pos]);
            if stair_ok || !s.staircase {
                s.entries.insert_at(pos, id, [st, end]);
                if !s.staircase {
                    s.rebuild_impact();
                }
                return;
            }
        }
        self.push(Shard {
            entries: ColumnList::from_entries(&[(id, [st, end])]),
            staircase: true,
            impact: Vec::new(),
        });
        if self.len() > MAX_SHARDS_PER_LIST * 2 {
            let mut all: Vec<_> = self.iter().flat_map(|s| s.entries.entries()).collect();
            sort_by_start(&mut all);
            *self = build_shards(&all, shard_cap(all.len()));
        }
    }

    fn tombstone(&mut self, _: &(), r: &IntervalRecord) -> bool {
        self.iter_mut()
            .any(|s| s.entries.tombstone_starting(r.st, r.id))
    }

    fn seed_into(&self, _: &(), q: Interval, scratch: &mut QueryScratch) -> u64 {
        let mut scanned = 0u64;
        for s in self {
            s.for_each_qualifying(q.st, q.end, |i| {
                scanned += 1;
                scratch.cands.push(s.entries.ids[i] & !TOMBSTONE);
            });
        }
        scanned
    }

    /// Offers each shard's qualifying ids to the planner's take-once
    /// round, which replaces per-round binary-search scans and candidate
    /// re-sorts.
    fn restrict(&self, _: &(), q: Interval, scratch: &mut QueryScratch) {
        scratch.intersect_offered(|taker| {
            let mut probed = 0u64;
            for s in self {
                s.for_each_qualifying(q.st, q.end, |i| {
                    probed += 1;
                    taker.offer_id(s.entries.ids[i] & !TOMBSTONE);
                });
            }
            probed
        });
    }

    fn for_each_id_list(&self, mut f: impl FnMut(&[u32])) {
        self.iter().for_each(|s| f(&s.entries.ids));
    }

    fn size_bytes(&self) -> usize {
        let shard = |s: &Shard| s.entries.size_bytes() + s.impact.capacity() * 8;
        self.iter().map(shard).sum::<usize>() + self.capacity() * std::mem::size_of::<Shard>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_shards_satisfy_staircase() {
        let entries: Vec<(u32, [Timestamp; 2])> = vec![
            (1, [0, 10]),
            (2, [1, 5]),
            (3, [2, 12]),
            (4, [3, 4]),
            (5, [4, 20]),
        ];
        let shards = build_shards(&entries, 100);
        for s in &shards {
            assert!(s.staircase);
            assert!(s.entries.sts().windows(2).all(|w| w[0] <= w[1]));
            assert!(s.entries.ends().windows(2).all(|w| w[0] <= w[1]));
        }
        let total: usize = shards.iter().map(|s| s.entries.len()).sum();
        assert_eq!(total, entries.len());
    }

    #[test]
    fn merging_respects_cap() {
        let entries: Vec<(u32, [Timestamp; 2])> = (0..100u32)
            .map(|i| (i, [i as u64, 200 - i as u64])) // anti-staircase: 100 ideal shards
            .collect();
        let ideal = build_shards(&entries, 1000);
        assert_eq!(ideal.len(), 100);
        let capped = build_shards(&entries, 4);
        assert!(capped.len() <= 4);
        let total: usize = capped.iter().map(|s| s.entries.len()).sum();
        assert_eq!(total, 100);
    }

    /// The index over `coll` with every list re-merged down to `cap`
    /// shards (the contract tests' shard-cap axis).
    fn build_capped(coll: &Collection, cap: usize) -> TifSharding {
        let mut idx = TifSharding::build(coll);
        for shards in idx.terms.values_mut() {
            let mut all: Vec<_> = shards.iter().flat_map(|s| s.entries.entries()).collect();
            sort_by_start(&mut all);
            *shards = build_shards(&all, cap);
        }
        idx
    }

    #[test]
    fn contract() {
        crate::per_term::contract::holds("sqrt cap", TifSharding::build);
        for cap in [1usize, 2, 100] {
            crate::per_term::contract::holds(&format!("cap={cap}"), |c| build_capped(c, cap));
        }
    }
}
