//! Fault injection through the differential harness. Seed `s` replays the
//! harness's script for seed `s` on `Method::ALL[s % 9]` through the
//! recovered tier, under `SeededPlan::new(s)`: one I/O fault on the
//! durable write path, and stalls and dropped connections throughout. Any
//! nine consecutive seeds cover every method. The fault registry is
//! process-global, so this binary holds one `#[test]`.

#[allow(dead_code)] // the tier tests' entry points
#[path = "differential/harness.rs"]
mod harness;

use harness::{check_method, generate, Beside, TierKind};
use tir_core::prelude::*;
use tir_datagen::SyntheticConfig;
use tir_fault::{FaultSite, SeededPlan};

/// Ops per script.
const OPS: usize = 150;

#[test]
fn seeded_faults() {
    let mut fired = Vec::new();
    for seed in 1..=24u64 {
        let method = Method::ALL[(seed % Method::ALL.len() as u64) as usize];
        let mut cfg = SyntheticConfig::default().scaled(0.0005);
        (cfg.desc_size, cfg.seed) = (4, seed);
        let coll = tir_datagen::generate(&cfg);
        let script = generate(&coll, seed, OPS);
        let plan = SeededPlan::new(seed);
        let tier = TierKind::Recovered;
        check_method(
            &format!("seed {seed}"),
            &coll,
            &script,
            tier,
            method,
            Beside::Plan(plan),
        );
        // The seed's I/O fault fired if its site was visited past it.
        let io = plan.io_fault();
        let fire = io.filter(|&(site, visit, _)| tir_fault::visits(site) > visit);
        fired.extend(fire.map(|f| f.0));
        let injected = tir_fault::injected_count();
        println!(
            "seed {seed}: {method}, {io:?} fired: {}, {injected} faults",
            fire.is_some()
        );
    }
    use FaultSite::*;
    for site in [
        WalAppend,
        WalSync,
        SnapshotWrite,
        SnapshotRename,
        TermLogAppend,
    ] {
        assert!(fired.contains(&site), "no seed fired {site:?}");
    }
}
