//! Per-thread ring-buffer flight recorder.
//!
//! A flight recorder answers "what was this thread doing just before it
//! died?" — the question aggregate counters cannot. Each thread that
//! calls [`record`] lazily registers a fixed-capacity ring; at capacity
//! the oldest entry is overwritten. Rings are held alive by the global
//! registry (`Arc`), so a panicked worker's last events survive the
//! thread and show up in [`snapshot`] / [`dump_string`] — the serve
//! supervisor dumps them into the event stream when it reaps a dead
//! worker, and the fault injector records every fired fault here.
//! The registry keeps at most [`MAX_DEAD_RINGS`] rings of exited
//! threads: registering a new ring drops the oldest ones beyond that,
//! so a process that keeps spawning short-lived recording threads holds
//! bounded memory without ever calling [`drain`].
//!
//! Recording takes one global atomic for the cross-thread sequence
//! number plus one short per-ring mutex (uncontended: each thread
//! writes only its own ring).

use crate::span::monotonic_ns;
use crate::sync::lock_unpoisoned;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default per-thread ring capacity.
pub const DEFAULT_CAPACITY: usize = 256;

/// Rings of exited threads the registry keeps for post-mortem dumps,
/// most recently registered first.
pub const MAX_DEAD_RINGS: usize = 64;

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global (cross-thread) sequence number, 1-based: merges rings
    /// into one causally ordered timeline.
    pub seq: u64,
    /// Wall nanoseconds from the process monotonic epoch.
    pub at_ns: u64,
    /// Instrumentation point (e.g. `serve.batch.claim`).
    pub point: String,
    /// Free-form detail string.
    pub detail: String,
}

/// Snapshot of one thread's ring.
#[derive(Debug, Clone)]
pub struct ThreadFlight {
    /// Thread name, or `ThreadId(..)` for unnamed threads.
    pub thread: String,
    /// Events oldest-first (at most the ring capacity).
    pub events: Vec<FlightEvent>,
}

struct Ring {
    thread: String,
    events: Mutex<VecDeque<FlightEvent>>,
}

struct Registry {
    rings: Mutex<Vec<Arc<Ring>>>,
    seq: AtomicU64,
    capacity: AtomicUsize,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        seq: AtomicU64::new(0),
        capacity: AtomicUsize::new(DEFAULT_CAPACITY),
    })
}

thread_local! {
    static RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

fn current_ring() -> Arc<Ring> {
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_ref() {
            Some(r) => r.clone(),
            None => {
                let cur = std::thread::current();
                let thread = match cur.name() {
                    Some(n) => n.to_string(),
                    None => format!("{:?}", cur.id()),
                };
                let ring = Arc::new(Ring {
                    thread,
                    events: Mutex::new(VecDeque::new()),
                });
                let mut rings = lock_unpoisoned(&registry().rings);
                prune_dead(&mut rings, MAX_DEAD_RINGS);
                rings.push(ring.clone());
                drop(rings);
                *slot = Some(ring.clone());
                ring
            }
        }
    })
}

/// A ring only the registry still holds belongs to an exited thread
/// (a live thread keeps its own `Arc` in its thread-local). Drops the
/// oldest-registered such rings until at most `keep` remain.
fn prune_dead(rings: &mut Vec<Arc<Ring>>, keep: usize) {
    let dead = rings.iter().filter(|r| Arc::strong_count(r) == 1).count();
    let mut excess = dead.saturating_sub(keep);
    rings.retain(|r| {
        let drop_it = excess > 0 && Arc::strong_count(r) == 1;
        excess -= usize::from(drop_it);
        !drop_it
    });
}

/// Records one event into the calling thread's ring, overwriting the
/// oldest entry at capacity.
pub fn record(point: &str, detail: impl Into<String>) {
    let reg = registry();
    let cap = reg.capacity.load(Ordering::Relaxed).max(1);
    let ev = FlightEvent {
        seq: reg.seq.fetch_add(1, Ordering::Relaxed) + 1,
        at_ns: monotonic_ns(),
        point: point.to_string(),
        detail: detail.into(),
    };
    let ring = current_ring();
    let mut q = lock_unpoisoned(&ring.events);
    while q.len() >= cap {
        q.pop_front();
    }
    q.push_back(ev);
}

/// Sets the per-thread ring capacity (minimum 1). Existing rings shrink
/// lazily on their next [`record`].
pub fn set_capacity(capacity: usize) {
    registry()
        .capacity
        .store(capacity.max(1), Ordering::Relaxed);
}

/// Copies every non-empty ring — including rings of threads that have
/// since exited (the registry keeps them alive precisely so post-mortem
/// dumps work).
pub fn snapshot() -> Vec<ThreadFlight> {
    let rings = lock_unpoisoned(&registry().rings);
    rings
        .iter()
        .filter_map(|r| {
            let events: Vec<FlightEvent> = lock_unpoisoned(&r.events).iter().cloned().collect();
            if events.is_empty() {
                None
            } else {
                Some(ThreadFlight {
                    thread: r.thread.clone(),
                    events,
                })
            }
        })
        .collect()
}

/// Takes and clears every ring's contents (and forgets rings of dead
/// threads). Use between tests or after a dump has been persisted.
pub fn drain() -> Vec<ThreadFlight> {
    let mut rings = lock_unpoisoned(&registry().rings);
    let out = rings
        .iter()
        .filter_map(|r| {
            let events: Vec<FlightEvent> = lock_unpoisoned(&r.events).drain(..).collect();
            if events.is_empty() {
                None
            } else {
                Some(ThreadFlight {
                    thread: r.thread.clone(),
                    events,
                })
            }
        })
        .collect();
    // Rings whose thread is gone will never record again; dropping the
    // registry's Arc frees them (live threads still hold their own).
    rings.retain(|r| Arc::strong_count(r) > 1);
    out
}

/// Renders every recorded event, all threads merged and sorted by the
/// global sequence number — the "black box" text a supervisor attaches
/// to a worker-panic event.
pub fn dump_string() -> String {
    let mut all: Vec<(String, FlightEvent)> = snapshot()
        .into_iter()
        .flat_map(|t| t.events.into_iter().map(move |e| (t.thread.clone(), e)))
        .collect();
    all.sort_by_key(|(_, e)| e.seq);
    if all.is_empty() {
        return "flight recorder: empty".to_string();
    }
    let mut out = format!("flight recorder ({} events):\n", all.len());
    for (thread, e) in &all {
        out.push_str(&format!(
            "  [seq {:06} +{}ns {}] {}: {}\n",
            e.seq, e.at_ns, thread, e.point, e.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes these tests: the registry, capacity and drain are
    /// process-global, so concurrent flight tests would race.
    fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        lock_unpoisoned(GUARD.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn ring_overwrites_oldest_at_capacity() {
        let _g = registry_guard();
        set_capacity(4);
        let handle = std::thread::Builder::new()
            .name("flight-cap-test".to_string())
            .spawn(|| {
                for i in 0..10 {
                    record("test.flight.cap", format!("event-{i}"));
                }
            })
            .unwrap();
        handle.join().unwrap();
        set_capacity(DEFAULT_CAPACITY);
        let snap = snapshot();
        let ring = snap
            .iter()
            .find(|t| t.thread == "flight-cap-test")
            .expect("ring registered");
        let details: Vec<&str> = ring.events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["event-6", "event-7", "event-8", "event-9"]);
        assert!(
            ring.events.windows(2).all(|w| w[0].seq < w[1].seq),
            "per-ring seq must be increasing"
        );
    }

    #[test]
    fn dead_threads_ring_survives_for_post_mortem() {
        let _g = registry_guard();
        let handle = std::thread::Builder::new()
            .name("flight-dead-test".to_string())
            .spawn(|| {
                record("test.flight.dead", "last words");
            })
            .unwrap();
        handle.join().unwrap();
        // The thread is gone; its ring must still be visible.
        let dump = dump_string();
        assert!(
            dump.contains("flight-dead-test") && dump.contains("last words"),
            "dump missing dead thread's events:\n{dump}"
        );
    }

    #[test]
    fn drain_empties_rings() {
        let _g = registry_guard();
        let handle = std::thread::Builder::new()
            .name("flight-drain-test".to_string())
            .spawn(|| {
                record("test.flight.drain", "a");
                record("test.flight.drain", "b");
            })
            .unwrap();
        handle.join().unwrap();
        let drained = drain();
        assert!(drained
            .iter()
            .any(|t| t.thread == "flight-drain-test" && t.events.len() == 2));
        assert!(!snapshot()
            .iter()
            .any(|t| t.events.iter().any(|e| e.point == "test.flight.drain")));
    }

    /// Serve-hot style churn: 1,000 short-lived threads each record one
    /// event. Without pruning the registry would hold 1,000 rings; it
    /// keeps at most `MAX_DEAD_RINGS` exited ones (plus the last thread,
    /// which exited after its own registration pruned), and the most
    /// recent thread's events stay dumpable.
    #[test]
    fn short_lived_threads_leave_a_bounded_number_of_rings() {
        let _g = registry_guard();
        for i in 0..1000 {
            std::thread::Builder::new()
                .name(format!("flight-churn-{i}"))
                .spawn(move || record("test.flight.churn", format!("churn {i}")))
                .unwrap()
                .join()
                .unwrap();
        }
        let dead = lock_unpoisoned(&registry().rings)
            .iter()
            .filter(|r| Arc::strong_count(r) == 1)
            .count();
        assert!(
            dead <= MAX_DEAD_RINGS + 1,
            "{dead} exited-thread rings retained"
        );
        let dump = dump_string();
        assert!(dump.contains("flight-churn-999") && dump.contains("churn 999"));
        assert!(
            !dump.contains("churn 0\n"),
            "the oldest exited ring was kept"
        );
        drain();
    }
}
