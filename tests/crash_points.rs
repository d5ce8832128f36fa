//! Every crash point on every method, through the differential harness's
//! recovered tier. Each (crash point, method) pair runs the harness's
//! `armed` script: writes, `Arm(site, action)`, more writes, a `SNAPSHOT`
//! barrier, reads, a kill-recover, more writes and reads, and a second
//! kill-recover. The applier stays gated, so the model knows which batch
//! the fault killed: answers on the degraded server are exact at the epoch
//! it still serves, and recovery lands on that epoch or on the killed
//! batch's. The fault registry is process-global, so this binary holds one
//! `#[test]`.

#[allow(dead_code)] // the tier tests' entry points
#[path = "differential/harness.rs"]
mod harness;

use harness::{armed, check_method, Beside, TierKind};
use tir_core::prelude::*;
use tir_datagen::SyntheticConfig;
use tir_fault::{FaultAction, FaultSite};

/// Every step of the durable apply and snapshot paths, in path order:
/// before the WAL append, mid-record (a torn tail), before the fsync,
/// before the apply, before the snapshot temp write, before the rename,
/// and after the rename before the WAL is pruned; then a `terms.log`
/// append that refuses one `INSERT` and degrades nothing.
const CRASH_POINTS: [(FaultSite, FaultAction); 8] = [
    (FaultSite::WalAppend, FaultAction::Error),
    (FaultSite::WalAppend, FaultAction::ShortWrite),
    (FaultSite::WalSync, FaultAction::Error),
    (FaultSite::Apply, FaultAction::Error),
    (FaultSite::SnapshotWrite, FaultAction::Error),
    (FaultSite::SnapshotRename, FaultAction::Error),
    (FaultSite::WalPrune, FaultAction::Error),
    (FaultSite::TermLogAppend, FaultAction::Error),
];

#[test]
fn every_crash_point_on_every_method() {
    let mut cfg = SyntheticConfig::default().scaled(0.0005);
    (cfg.desc_size, cfg.seed) = (3, 5);
    let coll = tir_datagen::generate(&cfg);
    for (k, (site, action)) in CRASH_POINTS.into_iter().enumerate() {
        for (m, method) in Method::ALL.into_iter().enumerate() {
            let seed = (k * Method::ALL.len() + m) as u64 + 1;
            let script = armed(&coll, seed, site, action);
            let label = format!("{site:?} {action:?}, seed {seed}");
            let tier = TierKind::Recovered;
            let report = check_method(&label, &coll, &script, tier, method, Beside::Nothing);
            // An armed fault that never fired would pass vacuously.
            let fired = tir_fault::visits(site);
            assert!(fired > 0, "{label}, {method}: never fired");
            assert_eq!(report.recoveries, 2, "{label}, {method}");
        }
    }
}
