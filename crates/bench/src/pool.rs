//! A dependency-free scoped worker pool.
//!
//! `std::thread::scope` workers pull items off a shared atomic cursor
//! (work-stealing by index), so load imbalance between items — the common
//! case for simulation sweeps, where one schedule point can run 10x longer
//! than the next — does not serialize the batch. Results land in their
//! item's slot, so the output order (and therefore anything computed from
//! it) is deterministic regardless of thread interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on up to `threads` scoped worker threads and
/// returns the results in item order.
///
/// With `threads <= 1` (or a single item) this degrades to a plain
/// sequential map with no thread or synchronization overhead, which keeps
/// the sequential path byte-for-byte identical to a `for` loop.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items move to workers through per-slot mutexes (claimed exactly once
    // via the cursor, so the locks are never contended).
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut produced = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item =
                        slots[i].lock().expect("uncontended slot").take().expect("unclaimed");
                    produced.push((i, f(item)));
                }
                produced
            }));
        }
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        out[i] = Some(r);
                    }
                }
                // Re-raise with the worker's original payload so callers
                // (and test harnesses) see the real panic message.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter().map(|r| r.expect("every slot claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = parallel_map(1, items.clone(), |x| x * x);
        let par = parallel_map(8, items, |x| x * x);
        assert_eq!(seq, par);
        assert_eq!(par[7], 49);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(4, vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let r = parallel_map(64, vec![1, 2, 3], |x| x * 10);
        assert_eq!(r, vec![10, 20, 30]);
    }

    #[test]
    fn propagates_original_panic_payload() {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(2, vec![1, 2, 3], |x| if x == 2 { panic!("boom {x}") } else { x })
        }));
        let payload = res.unwrap_err();
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert!(msg.contains("boom 2"), "original payload lost: {msg:?}");
    }

    #[test]
    fn zero_threads_degrades_to_sequential() {
        // threads = 0 must clamp to 1, not panic or spawn nothing.
        let r = parallel_map(0, vec![3, 1, 4, 1, 5], |x| x * 2);
        assert_eq!(r, vec![6, 2, 8, 2, 10]);
    }

    #[test]
    fn panic_in_last_item_still_propagates() {
        // The last item may be claimed after other workers have already
        // drained the cursor and exited; its panic must still surface.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(4, (0..16).collect::<Vec<i32>>(), |x| {
                if x == 15 {
                    panic!("tail {x}");
                }
                x
            })
        }));
        let payload = res.unwrap_err();
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert!(msg.contains("tail 15"), "last-item panic lost: {msg:?}");
    }

    #[test]
    fn large_batch_order_stress() {
        // Uneven per-item work scrambles the claim order across workers;
        // the output must still land in item order, every slot filled.
        let items: Vec<u64> = (0..4096).collect();
        let out = parallel_map(8, items, |x| {
            if x % 97 == 0 {
                std::thread::yield_now();
            }
            x.wrapping_mul(2654435761) ^ x
        });
        assert_eq!(out.len(), 4096);
        for (i, &v) in out.iter().enumerate() {
            let x = i as u64;
            assert_eq!(v, x.wrapping_mul(2654435761) ^ x, "slot {i} out of order");
        }
    }
}
