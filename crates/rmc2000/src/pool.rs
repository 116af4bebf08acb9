//! The fleet's worker pool: persistent threads that run one job on each
//! of a set of lent boxes, with the calling thread running jobs too.
//!
//! One round: the caller [`Pool::lend`]s boxes into per-index cells,
//! then [`Pool::run`] wakes the workers, and every thread scans the
//! cells once, claiming and running each box still lent. Each thread
//! starts its scan at its own offset, so in a balanced round a box runs
//! on the thread that ran it last round and its data stays in that
//! core's cache. The caller waits only on a box some thread has claimed
//! and not finished, never on an idle worker, so a worker that wakes
//! late finds nothing to do and costs the round nothing.
//!
//! A job on a worker may stop short; the worker hands the box back, and
//! the caller runs the job on it again, to the end, while the workers
//! carry on. [`Pool::take`] then returns each box with how its job
//! ended. A job that panics ends with the panic's payload, which the
//! caller re-raises; a panic never leaves a cell claimed, so it cannot
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

/// The job run on each lent box: its cell index, and whether it runs on
/// a worker thread (`true`) or on the calling one. It returns whether it
/// ran to its end, which it must on the calling thread; a worker's
/// `false` hands the box back to the caller, which runs the job again.
pub(crate) type Job<T> = fn(&mut T, usize, bool) -> bool;

/// How a lent box's job ended: `Err` holds a panic's payload.
pub(crate) type Ended = Result<(), Box<dyn Any + Send>>;

enum Cell<T> {
    Empty,
    /// Lent, not yet claimed.
    Lent(Box<T>),
    /// Stopped short on a worker, for the caller to finish.
    HandedBack(Box<T>),
    Ran(Box<T>, Ended),
}

/// One cell, alone on its cache lines: threads running neighbouring
/// cells do not contend for one line.
#[repr(align(128))]
struct Slot<T>(Mutex<Cell<T>>);

struct Shared<T> {
    cells: Box<[Slot<T>]>,
    job: Job<T>,
    /// Lent boxes whose job has not ended. Raised before a box becomes
    /// claimable and lowered (Release) after its `Ran` is stored, so a
    /// zero read (Acquire) means every lent box is back in its cell.
    pending: AtomicUsize,
    /// Cells holding a handed-back box. Raised (Release) after the cell
    /// is stored; the caller reads it (Acquire) while it waits.
    handed_back: AtomicUsize,
    /// Bumped (Release) once a round's boxes are lent; a worker that
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
    /// box still lent (and, on the calling thread, each handed back).
    fn claim(&self, first: usize, on_worker: bool) {
        let n = self.cells.len();
        for i in (first..n).chain(0..first) {
            let mut item = {
                let mut cell = self.cell(i);
                match std::mem::replace(&mut *cell, Cell::Empty) {
                    Cell::Lent(item) => item,
                    Cell::HandedBack(item) if !on_worker => {
                        self.handed_back.fetch_sub(1, Ordering::Relaxed);
                        item
                    }
                    other => {
                        *cell = other;
                        continue;
                    }
                }
            };
            let ended = panic::catch_unwind(AssertUnwindSafe(|| {
                (self.job)(&mut item, i, on_worker)
            }));
            if let Ok(false) = ended {
                if on_worker {
                    *self.cell(i) = Cell::HandedBack(item);
                    self.handed_back.fetch_add(1, Ordering::Release);
                    continue;
                }
                debug_assert!(false, "a job on the calling thread runs to its end");
            }
            *self.cell(i) = Cell::Ran(item, ended.map(drop));
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Persistent worker threads over a fixed number of cells.
pub(crate) struct Pool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
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
            handed_back: AtomicUsize::new(0),
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
        Pool { shared, workers }
    }

    /// Number of cells.
    pub(crate) fn cells(&self) -> usize {
        self.shared.cells.len()
    }

    /// Puts `item` in cell `i` for the next [`Pool::run`].
    pub(crate) fn lend(&mut self, i: usize, item: Box<T>) {
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        *self.shared.cell(i) = Cell::Lent(item);
    }

    /// Runs the job on every lent box: wakes the workers, runs
    /// `meanwhile` on the calling thread, then claims cells alongside
    /// the workers, finishes what they hand back, and returns once every
    /// lent box's job has ended.
    pub(crate) fn run(&mut self, meanwhile: impl FnOnce()) {
        let shared = &*self.shared;
        shared.round.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        meanwhile();
        shared.claim(0, false);
        let mut spun = 0u32;
        while shared.pending.load(Ordering::Acquire) != 0 {
            if shared.handed_back.load(Ordering::Acquire) != 0 {
                shared.claim(0, false);
            } else if spun < 1 << 12 {
                // A worker holds a cell: poll briefly, then give it the
                // core.
                spun += 1;
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
    }

    /// Takes back cell `i`'s box and how its job ended, if it was lent.
    pub(crate) fn take(&mut self, i: usize) -> Option<(Box<T>, Ended)> {
        match std::mem::replace(&mut *self.shared.cell(i), Cell::Empty) {
            Cell::Ran(item, ended) => Some((item, ended)),
            Cell::Empty => None,
            Cell::Lent(_) | Cell::HandedBack(_) => unreachable!("run ends every lent job"),
        }
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
        let lent = |i: usize, round: u64| !(i as u64 + round).is_multiple_of(3);
        for workers in [0, 1, 3] {
            let mut pool = Pool::new(6, workers, double as Job<(u64, bool)>);
            for round in 0..200u64 {
                for i in (0..6).filter(|&i| lent(i, round)) {
                    pool.lend(i, Box::new((round + i as u64 + 100, false)));
                }
                let mut ran_meanwhile = false;
                pool.run(|| ran_meanwhile = true);
                assert!(ran_meanwhile);
                for i in 0..6 {
                    match pool.take(i) {
                        Some((v, Ok(()))) => {
                            assert!(lent(i, round));
                            assert_eq!(v.0, 2 * (round + i as u64 + 100), "doubled once");
                        }
                        None => assert!(!lent(i, round), "{workers} workers: cell {i} lost"),
                        Some((_, Err(_))) => panic!("no job panics here"),
                    }
                }
            }
        }
    }

    #[test]
    fn a_panicking_job_comes_back_with_its_payload() {
        let mut pool = Pool::new(4, 2, double as Job<(u64, bool)>);
        for i in 0..4 {
            pool.lend(i, Box::new((if i == 2 { 13 } else { 1 }, false)));
        }
        pool.run(|| {});
        let ended: Vec<Ended> = (0..4).map(|i| pool.take(i).expect("lent").1).collect();
        let payload = ended[2].as_ref().expect_err("cell 2 panicked");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(msg, "unlucky cell 2");
        assert!(ended.iter().enumerate().all(|(i, e)| i == 2 || e.is_ok()));
    }
}
