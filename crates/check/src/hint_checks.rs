//! Validators for the interval-index substrate (`tir-hint`).

use std::collections::{BTreeMap, BTreeSet};

use crate::{fail, Validate, Violation};
use tir_hint::{DivisionKind, DivisionOrder, DivisionView, Domain, Hint};
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

/// Partition `(level, j)`'s `kind` division of a hierarchy over `domain`:
/// where the placement rule lets its entries start and end.
pub(crate) struct DivisionAt {
    pub(crate) domain: Domain,
    pub(crate) level: u32,
    pub(crate) j: u32,
    pub(crate) kind: DivisionKind,
}

impl DivisionAt {
    /// Reports every way the entry of `id` — `st` and `end` absent where
    /// the storage optimization elides them, `elem` the list it sits in,
    /// if any — breaks the placement rule.
    pub(crate) fn check_entry(
        &self,
        path: &str,
        (elem, id): (Option<u32>, u32),
        st: Option<u64>,
        end: Option<u64>,
        out: &mut Vec<Violation>,
    ) {
        let domain = self.domain;
        let fc = domain.partition_first_cell(self.level, self.j);
        let lc = domain.partition_last_cell(self.level, self.j);
        let mut report = |what: String| {
            let elem = elem.map_or(String::new(), |e| format!("elem {e} "));
            fail(out, path, format!("{elem}id {}: {what}", raw(id)));
        };
        if let (Some(st), Some(end)) = (st, end) {
            if st > end {
                report(format!("inverted interval [{st}, {end}]"));
            }
        }
        let original = !self.kind.is_replica();
        if let Some(cs) = st.map(|st| domain.cell(st)) {
            if original && !(fc..=lc).contains(&cs) {
                report(format!(
                    "original with start cell {cs} outside partition [{fc}, {lc}]"
                ));
            }
            if !original && cs >= fc {
                report(format!(
                    "replica with start cell {cs} not before partition [{fc}, {lc}]"
                ));
            }
        }
        if let Some(ce) = end.map(|end| domain.cell(end)) {
            let inside = self.kind.ends_inside();
            if inside && ce > lc {
                report(format!(
                    "*_in entry with end cell {ce} after partition [{fc}, {lc}]"
                ));
            }
            if self.kind == DivisionKind::ReplIn && ce < fc {
                report(format!(
                    "R_in entry with end cell {ce} before partition [{fc}, {lc}]"
                ));
            }
            if !inside && ce <= lc {
                report(format!(
                    "*_aft entry with end cell {ce} inside partition [{fc}, {lc}]"
                ));
            }
        }
    }
}

/// Validates one interval division — its tombstone counter, the endpoint
/// columns its kind keeps, their `order` and every entry's placement —
/// under `path`. Returns false if the columns are too inconsistent to walk.
pub(crate) fn check_interval_division(
    domain: Domain,
    path: &str,
    (div, dead): (DivisionView<'_>, usize),
    order: DivisionOrder,
    out: &mut Vec<Violation>,
) -> bool {
    let n = div.ids.len();
    let actual_dead = div.ids.iter().filter(|&&id| !live(id)).count();
    if actual_dead != dead {
        fail(
            out,
            path,
            format!("dead counter says {dead}, {actual_dead} tombstones stored"),
        );
    }
    let (keep_st, keep_end) = kept(div.kind);
    for (kept_flag, arr, name) in [(keep_st, div.sts, "sts"), (keep_end, div.ends, "ends")] {
        let want = if kept_flag { n } else { 0 };
        if arr.len() != want {
            fail(
                out,
                path,
                format!("{name} has {} entries, want {want} for {n} ids", arr.len()),
            );
        }
    }
    // Bail before elementwise walks if the parallel arrays are
    // inconsistent — everything below indexes by ids position.
    if (keep_st && div.sts.len() != n) || (keep_end && div.ends.len() != n) {
        return false;
    }

    match order {
        DivisionOrder::Beneficial => match div.kind {
            DivisionKind::OrigIn | DivisionKind::OrigAft => {
                if !div.sts.windows(2).all(|w| w[0] <= w[1]) {
                    fail(out, path, "starts not ascending (Beneficial order)".into());
                }
            }
            DivisionKind::ReplIn => {
                if !div.ends.windows(2).all(|w| w[0] >= w[1]) {
                    fail(out, path, "ends not descending (Beneficial order)".into());
                }
            }
            DivisionKind::ReplAft => {}
        },
        DivisionOrder::ById => {
            if !div.ids.windows(2).all(|w| raw(w[0]) < raw(w[1])) {
                fail(out, path, "ids not sorted".into());
            }
        }
    }

    let at = DivisionAt {
        domain,
        level: div.level,
        j: div.j,
        kind: div.kind,
    };
    for (i, &id) in div.ids.iter().enumerate() {
        let st = keep_st.then(|| div.sts[i]);
        let end = keep_end.then(|| div.ends[i]);
        at.check_entry(path, (None, id), st, end, out);
    }
    true
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

        let order = self.division_order();
        self.for_each_division(|div, dead| {
            let path = format!(
                "hint/level{}/partition{}/{}",
                div.level,
                div.j,
                div.kind.label()
            );
            if !check_interval_division(domain, &path, (div, dead), order, &mut out) {
                return;
            }
            for &id in div.ids.iter().filter(|&&id| live(id)) {
                if div.kind.is_replica() {
                    repl_ids.insert(id);
                } else {
                    *orig_count.entry(id).or_insert(0) += 1;
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
