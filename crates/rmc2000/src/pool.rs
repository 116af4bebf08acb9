//! The fleet's worker pool: persistent threads that run one job on each
//! item of a vector, with the calling thread running jobs too.
//!
//! One round: [`Pool::run`] lends every item of the caller's vector to
//! its own cell, wakes the workers, and every thread scans the cells
//! once, claiming and running each item still lent. Each thread starts
//! its scan at its own offset, so in a balanced round an item runs on
//! the thread that ran it last round and its data stays in that core's
//! cache. The caller waits only on an item some thread has claimed and
//! not finished, never on an idle worker, so a worker that wakes late
//! finds nothing to do and costs the round nothing. Once every job has
//! ended, `run` puts every item back into the vector, in order, and
//! returns how each job ended: to its end, stopped short on a worker
//! (the caller finishes it), or with a panic's payload (the caller
//! re-raises it). A panic never leaves a cell claimed, so it cannot
//! hang the round.
//!
//! Workers spin for [`SPIN`] after their last round, then park until
//! the next one. Dropping the pool stops and joins them, so no thread
//! outlives the pool's owner.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a worker polls for the next round before it parks.
const SPIN: Duration = Duration::from_micros(50);

/// The job run on each lent item: its index, and whether it runs on a
/// worker thread (`true`) or on the calling one. It returns whether it
/// ran to its end, which it must on the calling thread.
pub(crate) type Job<T> = fn(&mut T, usize, bool) -> bool;

/// How a lent item's job ended: `Ok(true)` ran to its end, `Ok(false)`
/// stopped short on a worker, and `Err` holds a panic's payload.
pub(crate) type Ended = Result<bool, Box<dyn Any + Send>>;

enum Cell<T> {
    /// Not lent, or claimed by a thread that is running its job.
    Empty,
    /// Lent, not yet claimed.
    Lent(T),
    Ran(T, Ended),
}

/// One cell, alone on its cache lines: threads running neighbouring
/// cells do not contend for one line.
#[repr(align(128))]
struct Slot<T>(Mutex<Cell<T>>);

struct Shared<T> {
    cells: Box<[Slot<T>]>,
    job: Job<T>,
    /// Lent items whose job has not ended. Set before a round's items
    /// become claimable and lowered (Release) after each `Ran` is stored,
    /// so a zero read (Acquire) means every lent item is back in its cell.
    pending: AtomicUsize,
    /// Bumped (Release) once a round's items are lent; a worker that
    /// reads a new value (Acquire) scans the cells.
    round: AtomicU64,
    stop: AtomicBool,
}

impl<T> Shared<T> {
    fn cell(&self, i: usize) -> MutexGuard<'_, Cell<T>> {
        self.cells[i]
            .0
            .lock()
            .expect("no thread panics while it holds a cell")
    }

    /// Scans every cell once from `first` on, running the job on each
    /// item still lent.
    fn claim(&self, first: usize, on_worker: bool) {
        let n = self.cells.len();
        for i in (first..n).chain(0..first) {
            let mut item = {
                let mut cell = self.cell(i);
                match std::mem::replace(&mut *cell, Cell::Empty) {
                    Cell::Lent(item) => item,
                    other => {
                        *cell = other;
                        continue;
                    }
                }
            };
            let ended = panic::catch_unwind(AssertUnwindSafe(|| {
                (self.job)(&mut item, i, on_worker)
            }));
            debug_assert!(
                on_worker || !matches!(ended, Ok(false)),
                "a job on the calling thread runs to its end"
            );
            *self.cell(i) = Cell::Ran(item, ended);
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Persistent worker threads over a fixed number of cells.
pub(crate) struct Pool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
    /// How each job of the last round ended (kept to reuse its buffer).
    ended: Vec<Ended>,
}

impl<T: Send + 'static> Pool<T> {
    /// A pool of `workers` threads over `cells` cells, running `job`.
    /// If the system refuses a thread, the pool runs with those it has
    /// (the calling thread alone, at worst).
    pub(crate) fn new(cells: usize, workers: usize, job: Job<T>) -> Pool<T> {
        let shared = Arc::new(Shared {
            cells: (0..cells).map(|_| Slot(Mutex::new(Cell::Empty))).collect(),
            job,
            pending: AtomicUsize::new(0),
            round: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let workers = (1..=workers)
            .map_while(|k| {
                let shared = Arc::clone(&shared);
                // Thread k of `workers + 1` (the caller is thread 0)
                // starts its scan k shares of the cells in.
                let first = k * cells / (workers + 1);
                thread::Builder::new()
                    .name(format!("fleet-worker-{k}"))
                    .spawn(move || work(&shared, first))
                    .ok()
            })
            .collect();
        Pool {
            shared,
            workers,
            ended: Vec::with_capacity(cells),
        }
    }

    /// Number of cells.
    pub(crate) fn cells(&self) -> usize {
        self.shared.cells.len()
    }

    /// Runs the job once on every item of `items`, one per cell: lends
    /// them all, wakes the workers, claims cells alongside them, and
    /// waits until every job has ended. Returns with `items` refilled in
    /// the same order, yielding how each one's job ended.
    pub(crate) fn run(&mut self, items: &mut Vec<T>) -> std::vec::Drain<'_, Ended> {
        let shared = &*self.shared;
        assert_eq!(items.len(), shared.cells.len(), "one item per cell");
        shared.pending.store(items.len(), Ordering::Relaxed);
        for (i, item) in items.drain(..).enumerate() {
            *shared.cell(i) = Cell::Lent(item);
        }
        shared.round.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        shared.claim(0, false);
        let mut spun = 0u32;
        while shared.pending.load(Ordering::Acquire) != 0 {
            if spun < 1 << 12 {
                // A worker holds a cell: poll briefly, then give it the
                // core.
                spun += 1;
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        for i in 0..shared.cells.len() {
            match std::mem::replace(&mut *shared.cell(i), Cell::Empty) {
                Cell::Ran(item, ended) => {
                    items.push(item);
                    self.ended.push(ended);
                }
                Cell::Empty | Cell::Lent(_) => unreachable!("run ends every lent job"),
            }
        }
        self.ended.drain(..)
    }
}

impl<T: Send + 'static> Drop for Pool<T> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            // Jobs run under `catch_unwind`; a worker has nothing else
            // that could panic, and `drop` must not.
            let _ = w.join();
        }
    }
}

/// A worker's life: wait for a round, claim cells, repeat until stopped.
fn work<T>(shared: &Shared<T>, first: usize) {
    let mut seen = 0;
    loop {
        let idle_since = Instant::now();
        loop {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let round = shared.round.load(Ordering::Acquire);
            if round != seen {
                seen = round;
                break;
            }
            if idle_since.elapsed() < SPIN {
                std::hint::spin_loop();
            } else {
                // `run` and `drop` unpark after publishing: a wake-up
                // between the check and the park is not lost.
                thread::park();
            }
        }
        shared.claim(first, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles a value; a worker stops short on even values first seen,
    /// and 13 panics.
    fn double(v: &mut (u64, bool), i: usize, on_worker: bool) -> bool {
        assert!(v.0 != 13, "unlucky cell {i}");
        if on_worker && v.0.is_multiple_of(2) && !v.1 {
            v.1 = true;
            return false;
        }
        v.0 *= 2;
        true
    }

    #[test]
    fn every_lent_box_comes_back_once_whatever_the_worker_count() {
        for workers in [0, 1, 3] {
            let mut pool = Pool::new(6, workers, double as Job<(u64, bool)>);
            let mut items = Vec::new();
            for round in 0..200u64 {
                let start = |i: usize| round * 10 + i as u64 + 100;
                items.clear();
                items.extend((0..6).map(|i| (start(i), false)));
                let buffer = items.as_ptr();
                let ended: Vec<Ended> = pool.run(&mut items).collect();
                assert_eq!((items.len(), ended.len()), (6, 6), "{workers} workers");
                assert_eq!(items.as_ptr(), buffer, "the vector keeps its buffer");
                for (i, (v, ended)) in items.iter_mut().zip(ended).enumerate() {
                    match ended {
                        Ok(true) => {}
                        // Stopped short on a worker: the caller finishes.
                        Ok(false) => assert!(double(v, i, false)),
                        Err(_) => panic!("no job panics here"),
                    }
                    assert_eq!(v.0, 2 * start(i), "{workers} workers: cell {i} doubled once");
                }
            }
        }
    }

    /// Set once a worker has run a job of
    /// [`a_job_a_worker_stops_short_is_finished_by_the_caller_once`].
    static WORKER_RAN: AtomicBool = AtomicBool::new(false);

    /// Counts its runs to the end. On a worker it stops short; on the
    /// calling thread, cell 0 first waits until a worker has run.
    fn count_after_a_worker(runs: &mut u32, i: usize, on_worker: bool) -> bool {
        if on_worker {
            WORKER_RAN.store(true, Ordering::Release);
            return false;
        }
        let since = Instant::now();
        while i == 0 && !WORKER_RAN.load(Ordering::Acquire) {
            assert!(since.elapsed() < Duration::from_secs(10), "no worker ran");
            thread::yield_now();
        }
        *runs += 1;
        true
    }

    #[test]
    fn a_job_a_worker_stops_short_is_finished_by_the_caller_once() {
        // The caller scans from cell 0 and waits there; the one worker
        // scans from cell 1, so it claims cell 1 and stops short.
        let mut pool = Pool::new(2, 1, count_after_a_worker as Job<u32>);
        let mut items = vec![0, 0];
        let ended: Vec<Ended> = pool.run(&mut items).collect();
        assert!(matches!(ended[..], [Ok(true), Ok(false)]), "{ended:?}");
        assert!(count_after_a_worker(&mut items[1], 1, false));
        assert_eq!(items, [1, 1]);
    }

    #[test]
    fn a_panicking_job_comes_back_with_its_payload() {
        let mut pool = Pool::new(4, 2, double as Job<(u64, bool)>);
        let mut items: Vec<_> = (0..4).map(|i| (if i == 2 { 13 } else { 1 }, false)).collect();
        let ended: Vec<Ended> = pool.run(&mut items).collect();
        let payload = ended[2].as_ref().expect_err("cell 2 panicked");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(msg, "unlucky cell 2");
        assert!(ended.iter().enumerate().all(|(i, e)| i == 2 || matches!(e, Ok(true))));
        assert_eq!(items.iter().map(|v| v.0).collect::<Vec<_>>(), [2, 2, 13, 2]);
    }
}
