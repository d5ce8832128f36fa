//! Lock acquisition helper + dynamic lock-order witness.
//!
//! Every mutex in the serving stack is taken through [`lock`] (and, where
//! a holder parks on a condvar, [`wait`]), which does two jobs:
//!
//! 1. **Poison policy** — a poisoned mutex (a holder panicked) means the
//!    serving invariants no longer hold, so propagating the panic is
//!    correct. This was the PR 2 helper; it now lives here.
//! 2. **Lock-order witness** (debug builds only) — the runtime
//!    counterpart of tir-analyze's static `lock-order` rule. Each call
//!    site (via `#[track_caller]`) registers the acquisition in a global
//!    ordering registry keyed by *mutex address*; acquiring mutex B
//!    while holding A establishes the order A → B. If any thread later
//!    tries an acquisition that would close a cycle, the witness panics
//!    **before blocking on the lock**, naming both call sites and the
//!    full path of previously established edges — turning a
//!    once-in-a-million deadlock hang into a deterministic test failure
//!    with actionable site IDs.
//!
//! The check-then-acquire order matters: the edge is recorded inside the
//! registry's critical section before the target mutex is contended, so
//! two threads racing opposite orders for the first time serialize on
//! the registry and the second one panics instead of deadlocking.
//!
//! Release builds compile the witness out entirely; [`lock`] reduces to
//! the bare poison-tolerant acquire.
//!
//! Limits, stated honestly: identity is the mutex's address, so a mutex
//! freed and another allocated at the same address could alias histories
//! (harmless for the long-lived serving mutexes this guards), and the
//! registry never forgets an edge — which is the point: ordering is a
//! program-wide invariant, not a per-run accident.

#[cfg(debug_assertions)]
pub(crate) use tracked::{lock, wait};

#[cfg(not(debug_assertions))]
pub(crate) use plain::{lock, wait};

#[cfg(not(debug_assertions))]
mod plain {
    use std::sync::{Condvar, Mutex, MutexGuard};

    /// Poison-tolerant acquire (release build: no witness overhead).
    pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // analyze:allow(raw-lock): this IS the tracked helper's release form
        // analyze:allow(panic-reachability): poison policy — a poisoned serving
        // mutex means the invariants are gone; propagating the panic is correct
        m.lock()
            .expect("serving mutex poisoned by a panicked thread")
    }

    /// `Condvar::wait` under the same poison policy as [`lock`].
    pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        // analyze:allow(panic-reachability): poison policy, as in `lock`
        cv.wait(guard)
            .expect("serving mutex poisoned by a panicked thread")
    }
}

#[cfg(debug_assertions)]
mod tracked {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

    /// A lock identity: the mutex's address.
    type LockId = usize;

    /// A call site, for reporting (`file:line:col`).
    type SiteId = &'static Location<'static>;

    struct Edge {
        /// Site that was holding `from` when `to` was acquired.
        held_at: SiteId,
        /// Site that acquired `to`.
        acquired_at: SiteId,
    }

    #[derive(Default)]
    struct Registry {
        /// `from → to`: `to` was acquired while `from` was held.
        edges: HashMap<LockId, Vec<LockId>>,
        /// First witness of each edge, for diagnostics.
        sites: HashMap<(LockId, LockId), Edge>,
    }

    impl Registry {
        /// Is `to` reachable from `from` over established edges?
        /// Returns the path as `(from, to)` pairs when it is.
        fn path(&self, from: LockId, to: LockId) -> Option<Vec<(LockId, LockId)>> {
            let mut stack = vec![(from, Vec::new())];
            let mut seen = vec![from];
            while let Some((node, path)) = stack.pop() {
                if node == to {
                    return Some(path);
                }
                for &next in self.edges.get(&node).into_iter().flatten() {
                    if !seen.contains(&next) {
                        seen.push(next);
                        let mut p = path.clone();
                        p.push((node, next));
                        stack.push((next, p));
                    }
                }
            }
            None
        }
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
    }

    thread_local! {
        /// Locks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<(LockId, SiteId)>> = const { RefCell::new(Vec::new()) };
    }

    /// A [`MutexGuard`] that unregisters its site from the held stack on
    /// drop. Transparent via `Deref`/`DerefMut`.
    pub(crate) struct TrackedGuard<'a, T> {
        inner: MutexGuard<'a, T>,
        held: HeldEntry,
    }

    /// The guard's entry in the held stack; dropping it removes the
    /// entry. Its own type so [`wait`] can take the guard apart.
    struct HeldEntry(LockId);

    impl<T> Deref for TrackedGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for TrackedGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl Drop for HeldEntry {
        fn drop(&mut self) {
            let id = self.0;
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(h, _)| h == id) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Number of tracked locks the current thread holds (test hook).
    #[cfg(test)]
    fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }

    /// Poison-tolerant, order-witnessed acquire. Panics (before
    /// blocking) on an acquisition that inverts an established order.
    #[track_caller]
    pub(crate) fn lock<T>(m: &Mutex<T>) -> TrackedGuard<'_, T> {
        let site: SiteId = Location::caller();
        let id = std::ptr::from_ref(m) as usize;
        witness_acquire(id, site);
        // analyze:allow(raw-lock): this IS the tracked helper
        // analyze:allow(panic-reachability): poison policy — a poisoned serving
        // mutex means the invariants are gone; propagating the panic is correct
        let inner = m
            .lock()
            .expect("serving mutex poisoned by a panicked thread");
        HELD.with(|held| held.borrow_mut().push((id, site)));
        TrackedGuard {
            inner,
            held: HeldEntry(id),
        }
    }

    /// `Condvar::wait` for a tracked guard, under the same poison policy
    /// as [`lock`]. The mutex stays on the held stack while its holder is
    /// parked — a parked thread acquires nothing, and waking re-takes
    /// the same mutex under the same held set, so no new edge can form.
    pub(crate) fn wait<'a, T>(cv: &Condvar, guard: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
        let TrackedGuard { inner, held } = guard;
        // analyze:allow(panic-reachability): poison policy, as in `lock`
        let inner = cv
            .wait(inner)
            .expect("serving mutex poisoned by a panicked thread");
        TrackedGuard { inner, held }
    }

    /// Checks the acquisition of `id` at `site` against every held lock
    /// and records the new ordering edges. Panics on inversion.
    fn witness_acquire(id: LockId, site: SiteId) {
        let held: Vec<(LockId, SiteId)> = HELD.with(|h| h.borrow().clone());
        if held.is_empty() {
            return;
        }
        // Collect the violation message (if any) with the registry
        // guard released, so the panic cannot poison it.
        let mut violation: Option<String> = None;
        {
            // analyze:allow(panic-reachability): a poisoned witness registry means a
            // witness panic unwound mid-update; the debug-build witness must die loudly
            let mut reg = registry()
                .lock() // analyze:allow(raw-lock): the witness registry cannot recurse through the tracked helper
                .expect("lock-order witness registry poisoned");
            for &(held_id, held_site) in &held {
                if held_id == id {
                    violation = Some(format!(
                        "lock-order witness: relocking a mutex already held by this thread\n  \
                         first acquired at {held_site}\n  re-acquired at {site}"
                    ));
                    break;
                }
                if let Some(path) = reg.path(id, held_id) {
                    let mut lines = vec![format!(
                        "lock-order witness: inversion detected in thread {:?}",
                        std::thread::current().name().unwrap_or("<unnamed>")
                    )];
                    lines.push(format!(
                        "  acquiring the lock at site {site} while holding the lock taken at site {held_site}"
                    ));
                    lines.push("  but the opposite order was already established:".into());
                    for (a, b) in &path {
                        if let Some(e) = reg.sites.get(&(*a, *b)) {
                            lines.push(format!(
                                "    held {} -> acquired {}",
                                e.held_at, e.acquired_at
                            ));
                        }
                    }
                    lines.push(format!(
                        "  full held stack: [{}]",
                        held.iter()
                            .map(|(_, s)| s.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                    violation = Some(lines.join("\n"));
                    break;
                }
                // Record held → id before the acquisition is attempted,
                // so a racing opposite-order thread sees it and panics
                // instead of deadlocking.
                let tos = reg.edges.entry(held_id).or_default();
                if !tos.contains(&id) {
                    tos.push(id);
                    reg.sites.insert(
                        (held_id, id),
                        Edge {
                            held_at: held_site,
                            acquired_at: site,
                        },
                    );
                }
            }
        }
        if let Some(msg) = violation {
            // analyze:allow(panic-path): the witness's whole purpose — a debug-build
            // lock-order inversion must abort loudly, not limp on toward a deadlock
            // analyze:allow(panic-reachability): same — this panic replacing a
            // deadlock hang is the feature, so its reachability from the workers is intended
            panic!("{msg}");
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        fn must_panic(f: impl FnOnce() + Send + 'static) -> String {
            let err = std::thread::Builder::new()
                .name("witness-victim".into())
                .spawn(f)
                .expect("spawn")
                .join()
                .expect_err("the closure must panic");
            match err.downcast::<String>() {
                Ok(s) => *s,
                Err(e) => *e
                    .downcast::<&'static str>()
                    .map(|s| Box::new((*s).to_string()))
                    .expect("panic payload is a string"),
            }
        }

        #[test]
        fn consistent_order_is_quiet() {
            let a = Mutex::new(1u32);
            let b = Mutex::new(2u32);
            for _ in 0..3 {
                let ga = lock(&a);
                let gb = lock(&b);
                assert_eq!(*ga + *gb, 3);
            }
            assert_eq!(held_count(), 0, "guards unregistered on drop");
        }

        #[test]
        fn inversion_panics_with_both_sites() {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            // Establish a → b on a helper thread.
            {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                std::thread::spawn(move || {
                    let _ga = lock(&a);
                    let _gb = lock(&b);
                })
                .join()
                .expect("establishing thread");
            }
            // b → a must now panic, naming sites in this file.
            let msg = must_panic(move || {
                let _gb = lock(&b);
                let _ga = lock(&a);
            });
            assert!(msg.contains("inversion detected"), "{msg}");
            assert!(msg.contains("witness.rs"), "sites are file:line:col: {msg}");
            assert!(msg.contains("established"), "{msg}");
        }

        #[test]
        fn relock_of_held_mutex_panics() {
            let m = Arc::new(Mutex::new(0u32));
            let msg = must_panic(move || {
                let _g1 = lock(&m);
                let _g2 = lock(&m); // would self-deadlock without the witness
            });
            assert!(msg.contains("relocking"), "{msg}");
        }

        #[test]
        fn wait_hands_back_a_guard_that_is_still_tracked() {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let waiter = {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    let mut ready = lock(&pair.0);
                    while !*ready {
                        ready = wait(&pair.1, ready);
                    }
                    assert_eq!(held_count(), 1, "held across the wait");
                    drop(ready);
                    assert_eq!(held_count(), 0, "and unregistered once on drop");
                })
            };
            *lock(&pair.0) = true;
            pair.1.notify_one();
            waiter.join().expect("waiter thread");
        }

        #[test]
        fn out_of_order_drop_keeps_stack_consistent() {
            let a = Mutex::new(0u32);
            let b = Mutex::new(0u32);
            let ga = lock(&a);
            let gb = lock(&b);
            drop(ga); // non-LIFO release
            assert_eq!(held_count(), 1);
            drop(gb);
            assert_eq!(held_count(), 0);
        }
    }
}
