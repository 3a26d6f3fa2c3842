//! Host-side parallelism: the ordered parameter-sweep map.
//!
//! Every experiment point is an independent simulation (its own `Machine`),
//! so sweeps parallelize trivially across host threads. [`par_map`] maps
//! borrowed items on scoped threads and is what the figure sweeps in
//! [`crate::figures`] run through.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Parallel map preserving input order. `f` runs on scoped threads sized to
/// the host parallelism (capped by the number of items).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    // Each thread claims the next index from a shared cursor and keeps its
    // own `(index, result)` pairs; sorting the pairs restores input order.
    let cursor = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = par_map((0..100).collect(), |&x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        // Early items take longest, so every thread claims some and the
        // results come back out of input order.
        let out = par_map((0..16u64).collect(), |&x| {
            thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![41], |&x| x + 1), vec![42]);
    }
}
