//! Validators for the interval-index substrate (`tir-hint`).

use std::collections::{BTreeMap, BTreeSet};

use crate::{fail, Validate, Violation};
use tir_hint::{DivisionKind, DivisionOrder, Hint};
// The same bit as `tir_hint::TOMBSTONE`; `tir-core` asserts they agree.
use tir_invidx::{live, raw};

/// Mirrors the crate-private `kept_endpoints` of `tir-hint`: which of the
/// two endpoint arrays each subdivision stores under the storage
/// optimization.
fn kept(kind: DivisionKind) -> (bool, bool) {
    match kind {
        DivisionKind::OrigIn => (true, true),
        DivisionKind::OrigAft => (true, false),
        DivisionKind::ReplIn => (false, true),
        DivisionKind::ReplAft => (false, false),
    }
}

impl Validate for Hint {
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let domain = self.domain();
        if self.num_levels() != domain.m() as usize + 1 {
            fail(
                &mut out,
                "hint/levels",
                format!(
                    "{} levels for m = {} (want m + 1)",
                    self.num_levels(),
                    domain.m()
                ),
            );
        }
        for level in 0..self.num_levels() as u32 {
            let keys = self.level_keys(level);
            let path = format!("hint/level{level}/keys");
            if !keys.windows(2).all(|w| w[0] < w[1]) {
                fail(
                    &mut out,
                    &path,
                    "partition keys not strictly ascending".into(),
                );
            }
            let width = 1u64 << level;
            if let Some(&last) = keys.last() {
                if (last as u64) >= width {
                    fail(
                        &mut out,
                        &path,
                        format!("partition index {last} out of range for level {level}"),
                    );
                }
            }
        }

        // Live original occurrences per raw id across every O_in/O_aft
        // division, for the minimal-cover check; live replica ids for the
        // dangling-replica check.
        let mut orig_count: BTreeMap<u32, usize> = BTreeMap::new();
        let mut repl_ids: BTreeSet<u32> = BTreeSet::new();

        self.for_each_division(|div, dead| {
            let path = format!("hint/level{}/partition{}/{}", div.level, div.j, div.kind.label());
            let n = div.ids.len();
            let actual_dead = div.ids.iter().filter(|&&id| !live(id)).count();
            if actual_dead != dead {
                fail(
                    &mut out,
                    &path,
                    format!("dead counter says {dead}, {actual_dead} tombstones stored"),
                );
            }
            let (keep_st, keep_end) = kept(div.kind);
            for (kept_flag, arr, name) in
                [(keep_st, div.sts, "sts"), (keep_end, div.ends, "ends")]
            {
                let want = if kept_flag { n } else { 0 };
                if arr.len() != want {
                    fail(
                        &mut out,
                        &path,
                        format!("{name} has {} entries, want {want} for {n} ids", arr.len()),
                    );
                }
            }
            // Bail before elementwise walks if the parallel arrays are
            // inconsistent — everything below indexes by ids position.
            if (keep_st && div.sts.len() != n) || (keep_end && div.ends.len() != n) {
                return;
            }

            match self.division_order() {
                DivisionOrder::Beneficial => match div.kind {
                    DivisionKind::OrigIn | DivisionKind::OrigAft => {
                        if !div.sts.windows(2).all(|w| w[0] <= w[1]) {
                            fail(&mut out, &path, "starts not ascending (Beneficial order)".into());
                        }
                    }
                    DivisionKind::ReplIn => {
                        if !div.ends.windows(2).all(|w| w[0] >= w[1]) {
                            fail(&mut out, &path, "ends not descending (Beneficial order)".into());
                        }
                    }
                    DivisionKind::ReplAft => {}
                },
                DivisionOrder::ById => {
                    if !div.ids.windows(2).all(|w| raw(w[0]) < raw(w[1])) {
                        fail(&mut out, &path, "ids not sorted".into());
                    }
                }
            }

            let fc = domain.partition_first_cell(div.level, div.j);
            let lc = domain.partition_last_cell(div.level, div.j);
            let original = !div.kind.is_replica();
            for i in 0..n {
                let id = div.ids[i];
                if keep_st && keep_end && div.sts[i] > div.ends[i] {
                    fail(
                        &mut out,
                        &path,
                        format!(
                            "id {}: inverted interval [{}, {}]",
                            raw(id),
                            div.sts[i],
                            div.ends[i]
                        ),
                    );
                }
                if keep_st {
                    let cs = domain.cell(div.sts[i]);
                    if original && !(fc..=lc).contains(&cs) {
                        fail(
                            &mut out,
                            &path,
                            format!(
                                "id {}: original with start cell {cs} outside partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if !original && cs >= fc {
                        fail(
                            &mut out,
                            &path,
                            format!(
                                "id {}: replica with start cell {cs} not before partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                }
                if keep_end {
                    let ce = domain.cell(div.ends[i]);
                    let inside = div.kind.ends_inside();
                    if inside && ce > lc {
                        fail(
                            &mut out,
                            &path,
                            format!(
                                "id {}: *_in entry with end cell {ce} after partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if div.kind == DivisionKind::ReplIn && ce < fc {
                        fail(
                            &mut out,
                            &path,
                            format!(
                                "id {}: R_in entry with end cell {ce} before partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                    if !inside && ce <= lc {
                        fail(
                            &mut out,
                            &path,
                            format!(
                                "id {}: *_aft entry with end cell {ce} inside partition [{fc}, {lc}]",
                                raw(id)
                            ),
                        );
                    }
                }
                if live(id) {
                    if original {
                        *orig_count.entry(id).or_insert(0) += 1;
                    } else {
                        repl_ids.insert(id);
                    }
                }
            }
        });

        for (&id, &count) in &orig_count {
            if count != 1 {
                fail(
                    &mut out,
                    "hint/cover",
                    format!("id {id} stored as original {count} times (minimal cover wants 1)"),
                );
            }
        }
        if orig_count.len() != self.len() {
            fail(
                &mut out,
                "hint/conservation",
                format!(
                    "{} live originals across divisions, index reports {} live intervals",
                    orig_count.len(),
                    self.len()
                ),
            );
        }
        for &id in repl_ids.difference(&orig_count.keys().copied().collect()) {
            fail(
                &mut out,
                "hint/replicas",
                format!("live replica of id {id} has no live original"),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir_hint::{HintConfig, IntervalRecord};

    fn records() -> Vec<IntervalRecord> {
        vec![
            IntervalRecord::new(1, 3, 19),
            IntervalRecord::new(2, 0, 4),
            IntervalRecord::new(3, 12, 12),
            IntervalRecord::new(4, 7, 30),
            IntervalRecord::new(5, 22, 29),
            IntervalRecord::new(6, 1, 31),
        ]
    }

    #[test]
    fn clean_hint_validates_under_every_config() {
        let recs = records();
        for order in [DivisionOrder::Beneficial, DivisionOrder::ById] {
            let h = Hint::build(&recs, HintConfig { m: Some(4), order });
            let v = h.validate();
            assert!(v.is_empty(), "{order:?}: {v:?}");
        }
    }

    #[test]
    fn hint_validates_after_deletes() {
        let recs = records();
        let cfg = HintConfig {
            m: Some(4),
            ..Default::default()
        };
        let mut h = Hint::build(&recs, cfg);
        assert!(h.delete(&recs[0]));
        assert!(h.delete(&recs[3]));
        let v = h.validate();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn empty_hint_validates() {
        let h = Hint::build(
            &[],
            HintConfig {
                m: Some(3),
                ..Default::default()
            },
        );
        assert!(h.validate().is_empty());
    }
}
