//! Host-side parallelism: a reusable worker pool and the parameter-sweep map.
//!
//! Every experiment point is an independent simulation (its own `Machine`),
//! so sweeps parallelize trivially across host threads. Two tools live here,
//! both on `std::sync::mpsc` (no external dependencies):
//!
//! * [`WorkerPool`] — a long-lived pool executing boxed `'static` tasks.
//!   This is the execution substrate of the `pasm-server` simulation service;
//!   it drains every already-submitted task on [`WorkerPool::join`], which is
//!   what makes the server's graceful shutdown possible.
//! * [`par_map`] — an ordered parallel map over borrowed items on scoped
//!   threads, used by the figure sweeps in [`crate::figures`].

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// A boxed unit of work for a [`WorkerPool`].
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size thread pool over a shared `std::sync::mpsc` channel.
///
/// Tasks are executed in submission order (each worker pops the next pending
/// task); the pool itself never queues more than the channel holds and leaves
/// admission control — bounding, rejection — to the caller, which is exactly
/// the split `pasm-server` needs: its bounded job queue decides *whether* a
/// job is admitted, the pool decides *when* it runs.
pub struct WorkerPool {
    tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Task>();
        // `mpsc::Receiver` is single-consumer; share it behind a mutex so all
        // workers pop from one queue (the idiomatic std-only work queue).
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("pasm-worker-{i}"))
                    .spawn(move || loop {
                        let task = {
                            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match task {
                            Ok(task) => task(),
                            Err(_) => break, // all senders dropped: drain done
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submit a task. Panics if called after [`WorkerPool::join`].
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool already joined")
            .send(Box::new(task))
            .expect("worker channel closed");
    }

    /// Close the queue and block until every already-submitted task has
    /// finished (graceful drain). Idempotent.
    pub fn join(&mut self) {
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join();
    }
}

/// Parallel map preserving input order. `f` runs on scoped threads sized to
/// the host parallelism (capped by the number of items).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    let (tx, rx) = channel::<(usize, &T)>();
    for pair in items.iter().enumerate() {
        tx.send(pair).expect("queue send");
    }
    drop(tx);
    let rx = Mutex::new(rx);

    let (out_tx, out_rx) = channel::<(usize, R)>();
    thread::scope(|s| {
        for _ in 0..workers {
            let rx = &rx;
            let out_tx = out_tx.clone();
            let f = &f;
            s.spawn(move || loop {
                // Pop under the lock, compute outside it.
                let next = rx.lock().unwrap_or_else(|e| e.into_inner()).try_recv();
                match next {
                    Ok((i, item)) => out_tx.send((i, f(item))).expect("result send"),
                    Err(_) => break, // the input queue was fully pre-filled
                }
            });
        }
        drop(out_tx);
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    while let Ok((i, r)) = out_rx.recv() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("all results delivered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn maps_in_order() {
        let out = par_map((0..100).collect(), |&x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
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

    #[test]
    fn pool_runs_all_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(4);
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn join_drains_pending_tasks() {
        // One slow worker, many queued tasks: join must wait for all of them.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(1);
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                thread::sleep(std::time::Duration::from_millis(1));
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        pool.join(); // idempotent
    }
}
