//! # tir-fault
//!
//! Seeded, deterministic fault injection for the temporal-ir stack.
//!
//! The durable write path (`tir-persist`) and the serving stack
//! (`tir-serve`) call into a small set of named **fault sites** at the
//! exact points where the real world fails: just before a WAL record is
//! written, before an fsync, before the fsynced batch is applied, around
//! a snapshot rename, before covered WAL segments are pruned, when a
//! query has taken its permit, when a connection is about to answer. Every
//! durable step has exactly one probe, and this is the only injection
//! registry in the workspace. In production nothing is installed and
//! every probe is a single atomic load that returns
//! [`FaultAction::None`]. Under the root `chaos` test a seeded [`FaultPlan`] is
//! [`install`]ed and each site visit is mapped — purely and
//! deterministically from `(seed, site, visit)` — to an injected
//! outcome: an I/O error shaped like ENOSPC/EIO, a short write, a stall,
//! or a dropped connection. The root `crash_points` test crashes one named
//! step at a time: its scripts' `Arm` op installs a [`OneShot`].
//!
//! Determinism is the point. A plan is a pure function of the site and a
//! per-site visit counter (reset on [`install`]), so replaying the same
//! workload against the same seed reproduces the same faults, and a
//! failing chaos schedule is re-runnable from its seed alone.
//!
//! The layer deliberately does **not** use feature gates: the `chaos`
//! test drives the server as it ships, in a release build too, so the
//! probes compile in everywhere and cost one relaxed-free atomic load
//! when no plan is installed.
//!
//! ```
//! use tir_fault::{FaultAction, FaultPlan, FaultSite, NoFaults};
//!
//! // The production path: a no-op plan, every site visit passes through.
//! let plan = NoFaults;
//! assert_eq!(plan.action(FaultSite::WalSync, 0), FaultAction::None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A named point in the stack where a fault can be injected.
///
/// I/O sites live in `tir-persist` (the durable write path); serving
/// sites live in `tir-serve` (queries, the applier, connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `Wal::append`, before the record bytes reach the segment file.
    WalAppend,
    /// `Wal::sync`, before the segment fsync.
    WalSync,
    /// Snapshot write, before the temp file is written.
    SnapshotWrite,
    /// Snapshot publish, before the temp → final rename (a torn rename
    /// leaves the temp file behind and the old snapshot current).
    SnapshotRename,
    /// `TermLog::append`, before a new dictionary term is persisted.
    TermLogAppend,
    /// Query path, once per query with its permit in hand (injected
    /// stall).
    WorkerStall,
    /// Epoch applier, once per applied batch (injected delay).
    ApplierDelay,
    /// Connection handler, once per request (injected disconnect).
    ConnDrop,
    /// `Durability::apply_batch`, after the WAL fsync and before the
    /// batch is applied to the index (a crash that leaves a durable
    /// record nobody was told about).
    Apply,
    /// `Durability::write_snapshot`, after the rename and directory fsync
    /// and before covered WAL segments are pruned.
    WalPrune,
}

/// Number of distinct [`FaultSite`]s (size of the visit-counter table).
const SITE_COUNT: usize = 10;

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::WalAppend,
        FaultSite::WalSync,
        FaultSite::SnapshotWrite,
        FaultSite::SnapshotRename,
        FaultSite::TermLogAppend,
        FaultSite::WorkerStall,
        FaultSite::ApplierDelay,
        FaultSite::ConnDrop,
        FaultSite::Apply,
        FaultSite::WalPrune,
    ];

    /// Stable lower-case name, used in injected error messages and logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalSync => "wal-sync",
            FaultSite::SnapshotWrite => "snapshot-write",
            FaultSite::SnapshotRename => "snapshot-rename",
            FaultSite::TermLogAppend => "termlog-append",
            FaultSite::WorkerStall => "worker-stall",
            FaultSite::ApplierDelay => "applier-delay",
            FaultSite::ConnDrop => "conn-drop",
            FaultSite::Apply => "apply",
            FaultSite::WalPrune => "wal-prune",
        }
    }

    /// Declaration order. Seeded schedules hash this, so new sites are
    /// appended after the existing ones, never inserted between them.
    fn idx(self) -> usize {
        self as usize
    }
}

/// What a plan decided for one visit of one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: the site proceeds normally.
    None,
    /// Fail with an injected I/O error (ENOSPC/EIO-shaped).
    Error,
    /// Write a truncated prefix of the payload, then fail (torn write).
    /// Only meaningful at [`FaultSite::WalAppend`]; other sites treat it
    /// like [`FaultAction::Error`].
    ShortWrite,
    /// Sleep this many milliseconds, then proceed normally.
    Stall(u64),
    /// Drop the connection without answering. Only meaningful at
    /// [`FaultSite::ConnDrop`]; other sites treat it like
    /// [`FaultAction::Error`].
    Drop,
}

/// A fault schedule: a **pure** function of `(site, visit)`.
///
/// `visit` is the zero-based count of probes at that site since the plan
/// was installed, so a plan must not keep interior mutability — purity is
/// what makes a schedule replayable from its seed.
pub trait FaultPlan: Send + Sync {
    /// Decide the outcome of the `visit`-th probe of `site`.
    fn action(&self, site: FaultSite, visit: u64) -> FaultAction;
}

/// The production plan: never injects anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultPlan for NoFaults {
    fn action(&self, _site: FaultSite, _visit: u64) -> FaultAction {
        FaultAction::None
    }
}

/// Fires `action` at exactly one `(site, visit)`; every other probe
/// passes. What the crash-point sweep arms to fail one named step of the
/// durable write path.
#[derive(Debug, Clone, Copy)]
pub struct OneShot {
    /// The site to fail.
    pub site: FaultSite,
    /// The zero-based visit of `site` at which to fail.
    pub visit: u64,
    /// What to inject there.
    pub action: FaultAction,
}

impl FaultPlan for OneShot {
    fn action(&self, site: FaultSite, visit: u64) -> FaultAction {
        if site == self.site && visit == self.visit {
            self.action
        } else {
            FaultAction::None
        }
    }
}

/// splitmix64 finalizer: the workhorse hash behind every seeded decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of `(seed, site, visit)` — the single source of randomness.
fn h(seed: u64, site: FaultSite, visit: u64) -> u64 {
    mix(mix(seed ^ mix(site.idx() as u64 + 1)).wrapping_add(visit))
}

/// A deterministic mixed-fault schedule derived from a single seed.
///
/// Each seed picks **at most one I/O fault** — a site from the durable
/// write path plus the visit number at which it fires (exactly once) —
/// because the server's answer to a durability failure is to degrade
/// permanently until restart, so a second I/O fault would never be
/// reached. Roughly one seed in eight schedules no I/O fault at all,
/// which keeps clean recovery paths in the test population. Serving
/// faults (worker stalls, applier delays, connection drops) fire
/// repeatedly at seed-derived periods throughout the schedule.
#[derive(Debug, Clone, Copy)]
pub struct SeededPlan {
    seed: u64,
}

impl SeededPlan {
    /// Builds the schedule for `seed`.
    pub fn new(seed: u64) -> SeededPlan {
        SeededPlan { seed }
    }

    /// The I/O fault this seed schedules, if any:
    /// `(site, firing visit, action)`.
    pub fn io_fault(&self) -> Option<(FaultSite, u64, FaultAction)> {
        let pick = mix(self.seed ^ 0xD1B5_4A32_D192_ED03) % 8;
        let visit = mix(self.seed ^ 0x8CB9_2BA7_2F3D_8DD7) % 6;
        match pick {
            0 => None,
            1 => Some((FaultSite::WalAppend, visit, FaultAction::Error)),
            2 => Some((FaultSite::WalAppend, visit, FaultAction::ShortWrite)),
            3 | 4 => Some((FaultSite::WalSync, visit, FaultAction::Error)),
            5 => Some((FaultSite::SnapshotWrite, visit, FaultAction::Error)),
            6 => Some((FaultSite::SnapshotRename, visit, FaultAction::Error)),
            _ => Some((FaultSite::TermLogAppend, visit, FaultAction::Error)),
        }
    }
}

impl FaultPlan for SeededPlan {
    fn action(&self, site: FaultSite, visit: u64) -> FaultAction {
        match site {
            FaultSite::WalAppend
            | FaultSite::WalSync
            | FaultSite::SnapshotWrite
            | FaultSite::SnapshotRename
            | FaultSite::TermLogAppend => match self.io_fault() {
                Some((s, v, a)) if s == site && v == visit => a,
                _ => FaultAction::None,
            },
            FaultSite::WorkerStall => {
                // Stall roughly one query in 4..8, for 1..=12 ms.
                let r = h(self.seed, site, visit);
                if r.is_multiple_of(4 + self.seed % 5) {
                    FaultAction::Stall(1 + (r >> 32) % 12)
                } else {
                    FaultAction::None
                }
            }
            FaultSite::ApplierDelay => {
                // Delay roughly one applied batch in 3..7, for 1..=8 ms.
                let r = h(self.seed, site, visit);
                if r.is_multiple_of(3 + self.seed % 5) {
                    FaultAction::Stall(1 + (r >> 32) % 8)
                } else {
                    FaultAction::None
                }
            }
            FaultSite::ConnDrop => {
                // Drop roughly one request in 17..33.
                let r = h(self.seed, site, visit);
                if r.is_multiple_of(17 + self.seed % 17) {
                    FaultAction::Drop
                } else {
                    FaultAction::None
                }
            }
            // Crash-sweep sites: armed by name in tests, never scheduled.
            FaultSite::Apply | FaultSite::WalPrune => FaultAction::None,
        }
    }
}

// ---------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------

/// Fast-path gate: a single atomic load when no plan is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed plan. `RwLock` because probes only ever read it; the
/// write lock is taken by `install`/`clear` (cold, test-only paths).
static PLAN: RwLock<Option<Arc<dyn FaultPlan>>> = RwLock::new(None);

/// Per-site visit counters, reset on `install`.
static VISITS: [AtomicU64; SITE_COUNT] = [const { AtomicU64::new(0) }; SITE_COUNT];

/// Count of non-[`FaultAction::None`] decisions since the last `install`.
static INJECTED: AtomicU64 = AtomicU64::new(0);

/// Installs `plan` process-wide and resets every visit counter, so the
/// schedule restarts from visit 0 at every site.
pub fn install(plan: Arc<dyn FaultPlan>) {
    let mut slot = PLAN.write().unwrap_or_else(|p| p.into_inner());
    for v in &VISITS {
        v.store(0, Ordering::SeqCst);
    }
    INJECTED.store(0, Ordering::SeqCst);
    *slot = Some(plan);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Removes any installed plan; every subsequent probe passes through.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    let mut slot = PLAN.write().unwrap_or_else(|p| p.into_inner());
    *slot = None;
}

/// Probes `site`: consumes one visit and returns the plan's decision.
///
/// With no plan installed this is a single atomic load returning
/// [`FaultAction::None`]. The plan lock is released before returning, so
/// callers may sleep or fail without holding anything.
pub fn check(site: FaultSite) -> FaultAction {
    if !ENABLED.load(Ordering::SeqCst) {
        return FaultAction::None;
    }
    let plan = {
        let slot = PLAN.read().unwrap_or_else(|p| p.into_inner());
        slot.clone()
    };
    let Some(plan) = plan else {
        return FaultAction::None;
    };
    let visit = VISITS[site.idx()].fetch_add(1, Ordering::SeqCst);
    let action = plan.action(site, visit);
    if action != FaultAction::None {
        INJECTED.fetch_add(1, Ordering::SeqCst);
    }
    action
}

/// Probes `site` as an I/O operation: `Ok(())` to proceed, an injected
/// [`io::Error`] to fail. Stalls sleep, then proceed.
pub fn fire(site: FaultSite) -> io::Result<()> {
    match check(site) {
        FaultAction::None => Ok(()),
        FaultAction::Stall(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        FaultAction::Error | FaultAction::ShortWrite | FaultAction::Drop => {
            Err(injected_error(site))
        }
    }
}

/// Probes `site` as a pure delay point: sleeps if the plan says stall,
/// otherwise does nothing. Non-stall actions are ignored here.
pub fn stall(site: FaultSite) {
    if let FaultAction::Stall(ms) = check(site) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Probes `site` as a connection-drop point: `true` means hang up now.
pub fn drop_conn(site: FaultSite) -> bool {
    matches!(check(site), FaultAction::Drop)
}

/// Marker substring present in every injected error's message.
pub const INJECTED_MARKER: &str = "injected fault";

/// Builds the injected error for `site` (ENOSPC/EIO-shaped, tagged with
/// [`INJECTED_MARKER`] so tests can tell it from a real disk failure).
pub fn injected_error(site: FaultSite) -> io::Error {
    io::Error::other(format!(
        "{INJECTED_MARKER} at {} (simulated ENOSPC/EIO)",
        site.name()
    ))
}

/// Whether `e` (or its message) is an injected fault from this layer.
pub fn is_injected(e: &io::Error) -> bool {
    e.to_string().contains(INJECTED_MARKER)
}

/// Whether a rendered error message carries the injected-fault marker.
pub fn message_is_injected(msg: &str) -> bool {
    msg.contains(INJECTED_MARKER)
}

/// Number of faults injected (non-`None` decisions) since `install`.
pub fn injected_count() -> u64 {
    INJECTED.load(Ordering::SeqCst)
}

/// Number of probes seen at `site` since `install`.
pub fn visits(site: FaultSite) -> u64 {
    VISITS[site.idx()].load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_inert() {
        for site in FaultSite::ALL {
            for visit in 0..32 {
                assert_eq!(NoFaults.action(site, visit), FaultAction::None);
            }
        }
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        for seed in 0..64u64 {
            let a = SeededPlan::new(seed);
            let b = SeededPlan::new(seed);
            for site in FaultSite::ALL {
                for visit in 0..256 {
                    assert_eq!(a.action(site, visit), b.action(site, visit));
                }
            }
        }
    }

    #[test]
    fn seeded_plans_cover_every_io_flavor() {
        // Across a modest seed range we must see every I/O fault flavor
        // (including the no-I/O-fault schedule) and some of each serving
        // fault — i.e. the schedule space actually exercises the matrix.
        let mut flavors = std::collections::HashSet::new();
        let mut stalls = 0u32;
        let mut drops = 0u32;
        for seed in 0..64u64 {
            let plan = SeededPlan::new(seed);
            match plan.io_fault() {
                None => {
                    flavors.insert("none");
                }
                Some((site, _, FaultAction::ShortWrite)) => {
                    assert_eq!(site, FaultSite::WalAppend);
                    flavors.insert("short-write");
                }
                Some((site, _, _)) => {
                    flavors.insert(site.name());
                }
            }
            for visit in 0..64 {
                if matches!(
                    plan.action(FaultSite::WorkerStall, visit),
                    FaultAction::Stall(_)
                ) {
                    stalls += 1;
                }
                if plan.action(FaultSite::ConnDrop, visit) == FaultAction::Drop {
                    drops += 1;
                }
            }
        }
        for want in [
            "none",
            "wal-append",
            "short-write",
            "wal-sync",
            "snapshot-write",
            "snapshot-rename",
            "termlog-append",
        ] {
            assert!(flavors.contains(want), "missing flavor {want}");
        }
        assert!(stalls > 0 && drops > 0);
    }

    #[test]
    fn existing_seeds_keep_their_schedules() {
        // Digest of every seeded decision over the eight sites schedules
        // may pick, taken before `Apply`/`WalPrune` were appended: a
        // chaos failure stays re-runnable from its seed across this
        // crate's history.
        fn code(a: FaultAction) -> u64 {
            match a {
                FaultAction::None => 0,
                FaultAction::Error => 1,
                FaultAction::ShortWrite => 2,
                FaultAction::Drop => 3,
                FaultAction::Stall(ms) => 16 + ms,
            }
        }
        let mut digest = 0u64;
        for seed in 0..256u64 {
            let plan = SeededPlan::new(seed);
            let io = plan.io_fault().map_or(0, |(site, visit, a)| {
                1 + site.idx() as u64 * 1000 + visit * 10 + code(a)
            });
            digest = mix(digest ^ io);
            for site in &FaultSite::ALL[..8] {
                for visit in 0..16 {
                    digest = mix(digest ^ code(plan.action(*site, visit)));
                }
            }
            for site in &FaultSite::ALL[8..] {
                for visit in 0..16 {
                    assert_eq!(plan.action(*site, visit), FaultAction::None);
                }
            }
        }
        assert_eq!(digest, 5_492_718_479_322_468_171);
    }

    #[test]
    fn io_fault_fires_exactly_once() {
        for seed in 0..64u64 {
            let plan = SeededPlan::new(seed);
            let Some((site, visit, action)) = plan.io_fault() else {
                continue;
            };
            let mut fired = 0;
            for v in 0..64 {
                let a = plan.action(site, v);
                if a != FaultAction::None {
                    assert_eq!(v, visit);
                    assert_eq!(a, action);
                    fired += 1;
                }
            }
            assert_eq!(fired, 1, "seed {seed}");
        }
    }

    #[test]
    fn registry_roundtrip() {
        // Single test touching the global registry (tests in this module
        // run in one process; keeping all registry assertions here avoids
        // cross-test interference on the process-wide plan slot).
        assert_eq!(check(FaultSite::WalSync), FaultAction::None);
        assert!(fire(FaultSite::WalSync).is_ok());

        let fail_second_sync = OneShot {
            site: FaultSite::WalSync,
            visit: 1,
            action: FaultAction::Error,
        };
        install(Arc::new(fail_second_sync));
        assert!(fire(FaultSite::WalSync).is_ok());
        let err = fire(FaultSite::WalSync).expect_err("second sync fails");
        assert!(is_injected(&err));
        assert!(message_is_injected(&err.to_string()));
        assert_eq!(visits(FaultSite::WalSync), 2);
        assert_eq!(injected_count(), 1);

        // install resets the visit counters: the same plan fires again.
        install(Arc::new(fail_second_sync));
        assert_eq!(visits(FaultSite::WalSync), 0);
        assert!(fire(FaultSite::WalSync).is_ok());
        assert!(fire(FaultSite::WalSync).is_err());

        clear();
        assert!(fire(FaultSite::WalSync).is_ok());
        assert_eq!(check(FaultSite::ConnDrop), FaultAction::None);
        assert!(!drop_conn(FaultSite::ConnDrop));
        stall(FaultSite::WorkerStall); // no plan: returns immediately
    }
}
