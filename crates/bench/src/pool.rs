//! A dependency-free scoped worker pool.
//!
//! `std::thread::scope` workers pull `(index, item)` pairs off one shared
//! iterator, so load imbalance between items — the common case for
//! simulation sweeps, where one schedule point can run 10x longer than the
//! next — does not serialize the batch. Each result is put back at its
//! item's index, so the output order (and therefore anything computed from
//! it) is deterministic regardless of thread interleaving.

use std::sync::Mutex;

/// Applies `f` to every item on up to `threads` scoped worker threads (at
/// least one) and returns the results in item order.
///
/// # Panics
///
/// Re-raises the panic of the first worker (in spawn order) whose `f`
/// panicked, with its original payload.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    // The lock is held for the claim only, never across `f`.
    let claim = || queue.lock().expect("claims never panic").next();
    let mut done = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let work = || {
            let mut produced = Vec::new();
            while let Some((i, item)) = claim() {
                produced.push((i, f(item)));
            }
            produced
        };
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1))).map(|_| scope.spawn(work)).collect();
        for worker in workers {
            match worker.join() {
                Ok(produced) => done.extend(produced),
                // Re-raise with the worker's original payload so callers
                // (and test harnesses) see the real panic message.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
