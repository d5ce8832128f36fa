//! **tIF+Sharding** (Anand et al., Section 2.2): every postings list is
//! horizontally partitioned into *shards* ordered by `o.tst` that (ideally)
//! satisfy the staircase property — start order implies end order — so a
//! temporal range maps to a contiguous run of entries. No replication, no
//! de-duplication. Impact lists accelerate shard scans.

use std::collections::HashMap;

use crate::collection::Collection;
use crate::freq::FreqTable;
use crate::index_trait::TemporalIrIndex;
use crate::method::Method;
use crate::types::{Object, ObjectId, TimeTravelQuery, Timestamp};
use tir_invidx::planner::{Kernel, QueryScratch};
use tir_invidx::{live, TOMBSTONE};

/// Entries per impact-list block.
pub const IMPACT_STRIDE: usize = 64;

/// One shard: entries sorted by start; `staircase` records whether ends
/// are also non-decreasing (ideal shards are, cost-merged ones may not
/// be). The impact list stores the maximum end per block of
/// [`IMPACT_STRIDE`] entries so scans skip blocks that cannot qualify.
#[derive(Debug, Clone, Default)]
struct Shard {
    ids: Vec<u32>,
    sts: Vec<Timestamp>,
    ends: Vec<Timestamp>,
    staircase: bool,
    impact: Vec<Timestamp>,
}

impl Shard {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn rebuild_impact(&mut self) {
        self.impact.clear();
        for chunk in self.ends.chunks(IMPACT_STRIDE) {
            self.impact.push(chunk.iter().copied().max().unwrap_or(0));
        }
    }

    /// Calls `f(i)` for every live entry overlapping `[q_st, q_end]`.
    fn for_each_qualifying(&self, q_st: Timestamp, q_end: Timestamp, mut f: impl FnMut(usize)) {
        // Entries starting after q_end cannot qualify: prefix by start.
        let hi = self.sts.partition_point(|&st| st <= q_end);
        let lo = if self.staircase {
            // Ends are sorted too: entries ending before q_st are a prefix.
            self.ends[..hi].partition_point(|&end| end < q_st)
        } else {
            0
        };
        if self.staircase {
            for i in lo..hi {
                if live(self.ids[i]) {
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
                    if self.ends[i] >= q_st && live(self.ids[i]) {
                        f(i);
                    }
                    i += 1;
                }
            }
        }
    }

    fn size_bytes(&self) -> usize {
        self.ids.capacity() * 4
            + (self.sts.capacity() + self.ends.capacity() + self.impact.capacity()) * 8
    }
}

/// Build/merge configuration for [`TifSharding`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardingConfig {
    /// Cap on shards per postings list; `None` uses the cost heuristic
    /// `⌈sqrt(list length)⌉` (bounded to 512), approximating the
    /// cost-aware merging of ideal shards in Anand et al.
    pub max_shards_per_list: Option<usize>,
}

/// The tIF+Sharding index.
#[derive(Debug, Clone)]
pub struct TifSharding {
    lists: HashMap<u32, Vec<Shard>>,
    freqs: FreqTable,
    config: ShardingConfig,
}

impl TifSharding {
    /// Builds with the default cost-heuristic shard cap.
    pub fn build(coll: &Collection) -> Self {
        Self::build_with_config(coll, ShardingConfig::default())
    }

    /// Builds with an explicit configuration.
    pub fn build_with_config(coll: &Collection, config: ShardingConfig) -> Self {
        // Group postings per element first.
        let mut per_elem: HashMap<u32, Vec<(Timestamp, Timestamp, u32)>> = HashMap::new();
        for o in coll.objects() {
            for &e in &o.desc {
                per_elem
                    .entry(e)
                    .or_default()
                    .push((o.interval.st, o.interval.end, o.id));
            }
        }
        let mut lists = HashMap::with_capacity(per_elem.len());
        for (e, mut entries) in per_elem {
            entries.sort_unstable();
            lists.insert(e, build_shards(&entries, config));
        }
        TifSharding {
            lists,
            freqs: FreqTable::from_counts(coll.freqs()),
            config,
        }
    }

    /// Number of shards of an element's list (0 if unknown).
    pub fn num_shards(&self, e: u32) -> usize {
        self.lists.get(&e).map(Vec::len).unwrap_or(0)
    }

    /// Total stored postings (no replication in sharding).
    pub fn num_postings(&self) -> usize {
        self.lists
            .values()
            .flat_map(|s| s.iter())
            .map(Shard::len)
            .sum()
    }

    /// Document frequency of an element as tracked by the planner.
    pub fn freq(&self, e: u32) -> u32 {
        self.freqs.get(e)
    }

    /// Calls `f(element, shard)` for every shard, in unspecified element
    /// order (introspection for validators).
    pub fn for_each_shard(&self, mut f: impl FnMut(u32, ShardView<'_>)) {
        for (&e, shards) in &self.lists {
            for s in shards {
                f(
                    e,
                    ShardView {
                        ids: &s.ids,
                        sts: &s.sts,
                        ends: &s.ends,
                        staircase: s.staircase,
                        impact: &s.impact,
                    },
                );
            }
        }
    }
}

/// A read-only view of one shard (introspection for validators).
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// Object ids (tombstone high bit marks logical deletes).
    pub ids: &'a [u32],
    /// Interval starts, non-decreasing.
    pub sts: &'a [Timestamp],
    /// Interval ends; non-decreasing iff `staircase`.
    pub ends: &'a [Timestamp],
    /// Whether the shard satisfies the staircase property.
    pub staircase: bool,
    /// Per-[`IMPACT_STRIDE`]-block maximum end (relaxed shards only).
    pub impact: &'a [Timestamp],
}

/// Greedy first-fit decomposition into ideal (staircase) shards — with the
/// entries sorted by start, placing each into the first shard whose tail
/// end is not larger yields the minimal number of staircase shards — then
/// cost-aware merging down to the configured cap.
fn build_shards(entries: &[(Timestamp, Timestamp, u32)], config: ShardingConfig) -> Vec<Shard> {
    debug_assert!(entries.windows(2).all(|w| w[0] <= w[1]));
    let mut shards: Vec<Shard> = Vec::new();
    for &(st, end, id) in entries {
        let slot = shards
            .iter()
            .position(|s| s.ends.last().is_none_or(|&tail| tail <= end));
        let slot = match slot {
            Some(i) => i,
            None => {
                shards.push(Shard {
                    staircase: true,
                    ..Default::default()
                });
                shards.len() - 1
            }
        };
        let shard = &mut shards[slot];
        shard.staircase = true;
        shard.ids.push(id);
        shard.sts.push(st);
        shard.ends.push(end);
    }
    let cap = config
        .max_shards_per_list
        .unwrap_or_else(|| ((entries.len() as f64).sqrt().ceil() as usize).clamp(1, 512));
    while shards.len() > cap {
        // Merge the two smallest shards: cheapest extra scan cost.
        let (mut a, mut b) = (0, 1);
        for i in 0..shards.len() {
            if shards[i].len() < shards[a].len() {
                b = a;
                a = i;
            } else if i != a && shards[i].len() < shards[b].len() {
                b = i;
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        let small = shards.swap_remove(b);
        let big = &mut shards[a];
        let mut merged: Vec<(Timestamp, Timestamp, u32)> = big
            .sts
            .iter()
            .zip(&big.ends)
            .zip(&big.ids)
            .map(|((&s, &e), &i)| (s, e, i))
            .chain(
                small
                    .sts
                    .iter()
                    .zip(&small.ends)
                    .zip(&small.ids)
                    .map(|((&s, &e), &i)| (s, e, i)),
            )
            .collect();
        merged.sort_unstable();
        big.ids = merged.iter().map(|&(_, _, i)| i).collect();
        big.sts = merged.iter().map(|&(s, _, _)| s).collect();
        big.ends = merged.iter().map(|&(_, e, _)| e).collect();
        big.staircase = big.ends.windows(2).all(|w| w[0] <= w[1]);
    }
    for s in &mut shards {
        if !s.staircase {
            s.rebuild_impact();
        }
    }
    // Re-check staircase after merging (merge may coincidentally keep it).
    for s in &mut shards {
        if s.staircase {
            debug_assert!(s.ends.windows(2).all(|w| w[0] <= w[1]));
        }
    }
    shards
}

impl TemporalIrIndex for TifSharding {
    fn name(&self) -> &'static str {
        Method::Sharding.paper_name()
    }

    fn query_into(&self, q: &TimeTravelQuery, scratch: &mut QueryScratch, out: &mut Vec<ObjectId>) {
        scratch.reset();
        self.freqs.plan_into(&q.elems, &mut scratch.plan);
        if scratch.plan.is_empty() {
            return;
        }
        let (q_st, q_end) = (q.interval.st, q.interval.end);

        let first = scratch.plan[0];
        let mut scanned = 0u64;
        if let Some(shards) = self.lists.get(&first) {
            for s in shards {
                s.for_each_qualifying(q_st, q_end, |i| {
                    scanned += 1;
                    scratch.cands.push(s.ids[i] & !TOMBSTONE);
                });
            }
        }
        scratch.note(Kernel::Merge, scanned);

        // Remaining elements: probe the candidate set with each shard's
        // qualifying ids; take-once probes replace the per-round
        // binary-search scans and candidate re-sorts.
        for pi in 1..scratch.plan.len() {
            if scratch.cands.is_empty() {
                break;
            }
            let e = scratch.plan[pi];
            let mut cands = std::mem::take(&mut scratch.cands);
            scratch.load_candidates(&cands, 0);
            cands.clear();
            let mut probed = 0u64;
            if let Some(shards) = self.lists.get(&e) {
                for s in shards {
                    s.for_each_qualifying(q_st, q_end, |i| {
                        probed += 1;
                        let id = s.ids[i] & !TOMBSTONE;
                        if scratch.probe_take(id) {
                            cands.push(id);
                        }
                    });
                }
            }
            scratch.note_probed(probed);
            scratch.end_probe();
            scratch.cands = cands;
        }
        scratch.take_into(out);
    }

    fn insert(&mut self, o: &Object) {
        for &e in &o.desc {
            let shards = self.lists.entry(e).or_default();
            let (st, end, id) = (o.interval.st, o.interval.end, o.id);
            // First shard where inserting keeps both orders (staircase) or
            // at least the start order (relaxed).
            let mut placed = false;
            for s in shards.iter_mut() {
                let pos = s.sts.partition_point(|&x| x <= st);
                let stair_ok = s.staircase
                    && (pos == 0 || s.ends[pos - 1] <= end)
                    && (pos == s.len() || end <= s.ends[pos]);
                if stair_ok || !s.staircase {
                    s.ids.insert(pos, id);
                    s.sts.insert(pos, st);
                    s.ends.insert(pos, end);
                    if !s.staircase {
                        s.rebuild_impact();
                    }
                    placed = true;
                    break;
                }
            }
            if !placed {
                shards.push(Shard {
                    ids: vec![id],
                    sts: vec![st],
                    ends: vec![end],
                    staircase: true,
                    impact: Vec::new(),
                });
                // Respect the configured cap loosely: merging on every
                // insert would be wasteful, so only merge when doubled.
                let cap = self.config.max_shards_per_list.unwrap_or(512).max(1);
                if shards.len() > cap * 2 {
                    let mut entries: Vec<(Timestamp, Timestamp, u32)> = shards
                        .iter()
                        .flat_map(|s| {
                            s.sts
                                .iter()
                                .zip(&s.ends)
                                .zip(&s.ids)
                                .map(|((&a, &b), &i)| (a, b, i))
                                .collect::<Vec<_>>()
                        })
                        .collect();
                    entries.sort_unstable();
                    *shards = build_shards(&entries, self.config);
                }
            }
            self.freqs.bump(e);
        }
    }

    fn delete(&mut self, o: &Object) -> bool {
        let mut any = false;
        for &e in &o.desc {
            if let Some(shards) = self.lists.get_mut(&e) {
                'next_elem: for s in shards.iter_mut() {
                    // Entries with this start form a contiguous run.
                    let lo = s.sts.partition_point(|&x| x < o.interval.st);
                    let hi = s.sts.partition_point(|&x| x <= o.interval.st);
                    for i in lo..hi {
                        if s.ids[i] == o.id {
                            s.ids[i] |= TOMBSTONE;
                            self.freqs.drop_one(e);
                            any = true;
                            break 'next_elem;
                        }
                    }
                }
            }
        }
        any
    }

    fn size_bytes(&self) -> usize {
        self.lists
            .values()
            .map(|shards| {
                shards.iter().map(Shard::size_bytes).sum::<usize>()
                    + shards.capacity() * std::mem::size_of::<Shard>()
                    + 16
            })
            .sum::<usize>()
            + self.freqs.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;

    #[test]
    fn running_example() {
        let coll = Collection::running_example();
        let idx = TifSharding::build(&coll);
        let q = TimeTravelQuery::new(5, 9, vec![0, 2]);
        let mut got = idx.query(&q);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 6]);
    }

    #[test]
    fn ideal_shards_satisfy_staircase() {
        let entries: Vec<(Timestamp, Timestamp, u32)> =
            vec![(0, 10, 1), (1, 5, 2), (2, 12, 3), (3, 4, 4), (4, 20, 5)];
        let shards = build_shards(
            &entries,
            ShardingConfig {
                max_shards_per_list: Some(100),
            },
        );
        for s in &shards {
            assert!(s.staircase);
            assert!(s.sts.windows(2).all(|w| w[0] <= w[1]));
            assert!(s.ends.windows(2).all(|w| w[0] <= w[1]));
        }
        let total: usize = shards.iter().map(Shard::len).sum();
        assert_eq!(total, entries.len());
    }

    #[test]
    fn merging_respects_cap() {
        let entries: Vec<(Timestamp, Timestamp, u32)> = (0..100u32)
            .map(|i| (i as u64, 200 - i as u64, i)) // anti-staircase: 100 ideal shards
            .collect();
        let ideal = build_shards(
            &entries,
            ShardingConfig {
                max_shards_per_list: Some(1000),
            },
        );
        assert_eq!(ideal.len(), 100);
        let capped = build_shards(
            &entries,
            ShardingConfig {
                max_shards_per_list: Some(4),
            },
        );
        assert!(capped.len() <= 4);
        let total: usize = capped.iter().map(Shard::len).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn matches_oracle_on_example_grid() {
        let coll = Collection::running_example();
        let bf = BruteForce::build(coll.objects());
        for cap in [1usize, 2, 100] {
            let idx = TifSharding::build_with_config(
                &coll,
                ShardingConfig {
                    max_shards_per_list: Some(cap),
                },
            );
            for st in 0..16u64 {
                for end in st..16 {
                    for elems in [vec![0], vec![2], vec![0, 2], vec![1, 2]] {
                        let q = TimeTravelQuery::new(st, end, elems);
                        let mut got = idx.query(&q);
                        got.sort_unstable();
                        assert_eq!(got, bf.answer(&q), "cap={cap} q={q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn updates_match_oracle() {
        let coll = Collection::running_example();
        let mut idx = TifSharding::build(&coll);
        let mut bf = BruteForce::build(coll.objects());
        let o = Object::new(8, 1, 14, vec![0, 2]);
        idx.insert(&o);
        bf.insert(&o);
        assert!(idx.delete(coll.get(1)));
        bf.delete(coll.get(1));
        assert!(!idx.delete(coll.get(1)));
        for (st, end) in [(0u64, 15u64), (5, 9), (0, 2)] {
            let q = TimeTravelQuery::new(st, end, vec![0, 2]);
            let mut got = idx.query(&q);
            got.sort_unstable();
            assert_eq!(got, bf.answer(&q));
        }
    }
}
