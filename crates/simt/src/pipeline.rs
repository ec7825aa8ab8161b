//! The executor's two-stage replay pipeline.
//!
//! Stage one runs on the launching thread: functional kernel execution
//! plus the pure [`gather`](crate::timing::gather_warp) of each warp's
//! trace into a [`ReplayBatch`]. Stage two runs on a replay worker: it
//! owns the launch's [`SmState`]s and chip-wide L2 and charges the
//! batches. The worker reads only the batches, never [`GpuMem`], so the
//! stages overlap without changing a modeled bit.
//!
//! * **Order.** There is one worker per launching thread and one FIFO
//!   between them. Batches are filled in block-id/warp order and replayed
//!   in the order they were sent, so every cache probe and counter update
//!   happens in the same sequence as the single-threaded replay.
//! * **Persistence.** The worker is spawned on a thread's first launch and
//!   lives as long as that thread (a thread-local owns it; its destructor
//!   stops and joins the worker), so a launch pays no thread spawn.
//! * **Memory bound.** [`POOL`] batches of a fixed budget circulate
//!   between the two threads: the launching thread fills one, and once it
//!   is full takes an empty one back from the worker, waiting if there is
//!   none. Bytes in flight are therefore fixed, whatever the size of a
//!   warp or a launch, and the steady state allocates nothing.
//! * **Panics.** A kernel that panics unwinds through [`Feed`]'s drop,
//!   which ends the worker's launch and waits for it, so the worker keeps
//!   no state of a half-finished launch. A panic in the worker's replay is
//!   caught there and resumed on the launching thread at the end of the
//!   launch.
//!
//! [`GpuMem`]: crate::mem::GpuMem

use crate::config::Device;
use crate::exec::Timing;
use crate::timing::cache::Cache;
use crate::timing::{ReplayBatch, ReplayCursor, SmState};
use crate::trace::WarpTrace;
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Batches circulating between a launching thread and its worker.
const POOL: usize = 4;

/// A blocking FIFO between exactly one producer and one consumer. Its
/// buffer is allocated once, for every message that can be in flight at
/// a time, so sending never allocates.
struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> Queue<T> {
    fn with_capacity(n: usize) -> Self {
        Self {
            items: Mutex::new(VecDeque::with_capacity(n)),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        // No code panics while holding the lock; a poisoned lock still
        // holds a consistent queue.
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, item: T) {
        self.lock().push_back(item);
        self.ready.notify_one();
    }

    fn pop(&self) -> T {
        let mut items = self.lock();
        loop {
            if let Some(item) = items.pop_front() {
                return item;
            }
            items = self
                .ready
                .wait(items)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Launching thread → worker.
// The queue holds at most `POOL + 2` requests; boxing `Begin` would only
// add an allocation per launch.
#[allow(clippy::large_enum_variant)]
enum Request {
    /// Start a launch: its fresh SM states and L2, allocated by the
    /// launching thread so that the worker never allocates.
    Begin(Replayed),
    /// Replay, then return the batch.
    Replay(ReplayBatch),
    /// Finish the launch and return its state.
    End,
    /// Exit the worker thread.
    Stop,
}

/// What a worker hands back at the end of a launch.
type Outcome = thread::Result<Replayed>;

/// Worker → launching thread.
// The queue holds at most `POOL + 1` replies; boxing `Done` would only
// add an allocation per launch.
#[allow(clippy::large_enum_variant)]
enum Reply {
    /// A replayed batch, emptied for reuse.
    Free(ReplayBatch),
    /// The launch is over.
    Done(Outcome),
}

/// The timing state of one launch, owned by the worker while it runs.
pub(crate) struct Replayed {
    dev: Device,
    /// Per-SM state, indexed by SM id.
    pub sms: Vec<SmState>,
    /// The chip-wide L2.
    pub l2: Cache,
    cursor: ReplayCursor,
}

impl Replayed {
    fn new(dev: Device) -> Self {
        Self {
            sms: (0..dev.num_sms).map(|_| SmState::new(&dev)).collect(),
            l2: Cache::new(dev.l2_bytes, dev.l2_line_bytes, dev.l2_ways),
            cursor: ReplayCursor::default(),
            dev,
        }
    }

    fn replay(&mut self, batch: &ReplayBatch) {
        batch.replay(&self.dev, &mut self.sms, &mut self.l2, &mut self.cursor);
    }
}

/// The worker thread's loop: one launch at a time, batches in arrival
/// order.
fn work(requests: &Queue<Request>, replies: &Queue<Reply>) {
    let mut launch: Option<Replayed> = None;
    let mut failed: Option<Box<dyn Any + Send>> = None;
    loop {
        match requests.pop() {
            Request::Begin(fresh) => {
                launch = Some(fresh);
                failed = None;
            }
            Request::Replay(mut batch) => {
                if let (Some(l), None) = (launch.as_mut(), &failed) {
                    if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| l.replay(&batch))) {
                        failed = Some(p);
                    }
                }
                batch.clear();
                replies.push(Reply::Free(batch));
            }
            Request::End => {
                let outcome = match (failed.take(), launch.take()) {
                    (Some(p), _) => Err(p),
                    (None, Some(l)) => Ok(l),
                    (None, None) => Err(Box::new("replay worker: End without Begin") as _),
                };
                replies.push(Reply::Done(outcome));
            }
            Request::Stop => return,
        }
    }
}

/// A launching thread's handle on its replay worker.
struct Worker {
    requests: Arc<Queue<Request>>,
    replies: Arc<Queue<Reply>>,
    /// Empty batches on this side.
    spare: Vec<ReplayBatch>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn() -> Self {
        // Begin/End bracket at most POOL batches.
        let requests = Arc::new(Queue::with_capacity(POOL + 2));
        let replies = Arc::new(Queue::with_capacity(POOL + 1));
        let thread = {
            let (requests, replies) = (Arc::clone(&requests), Arc::clone(&replies));
            thread::Builder::new()
                .name("simt-replay".into())
                .spawn(move || work(&requests, &replies))
                .expect("spawn the simt replay worker")
        };
        Self {
            requests,
            replies,
            spare: (0..POOL).map(|_| ReplayBatch::new()).collect(),
            thread: Some(thread),
        }
    }

    /// An empty batch: a spare one, else the next one the worker frees.
    fn take_empty(&mut self) -> ReplayBatch {
        if let Some(b) = self.spare.pop() {
            return b;
        }
        match self.replies.pop() {
            Reply::Free(b) => b,
            Reply::Done(_) => unreachable!("replay worker finished a launch early"),
        }
    }

    /// Sends the full `batch` for replay and leaves an empty one in its
    /// place.
    fn send(&mut self, batch: &mut ReplayBatch) {
        let full = std::mem::replace(batch, self.take_empty());
        self.requests.push(Request::Replay(full));
    }

    /// Ends the current launch and collects every batch back.
    fn end(&mut self) -> Outcome {
        self.requests.push(Request::End);
        loop {
            match self.replies.pop() {
                Reply::Free(b) => self.spare.push(b),
                Reply::Done(outcome) => {
                    debug_assert_eq!(self.spare.len(), POOL, "every batch came back");
                    return outcome;
                }
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.requests.push(Request::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

thread_local! {
    /// This thread's replay worker, spawned on first use.
    static WORKER: RefCell<Option<Worker>> = const { RefCell::new(None) };
}

/// The launching side of one pipelined launch: gathers warps into the
/// current batch and sends each full batch to the worker.
pub(crate) struct Feed<'a> {
    dev: &'a Device,
    worker: &'a mut Worker,
    /// The batch being filled; `None` once the launch has finished.
    batch: Option<ReplayBatch>,
}

impl Timing for Feed<'_> {
    fn warp(&mut self, sm: u32, trace: &WarpTrace) {
        let worker = &mut *self.worker;
        let batch = self.batch.as_mut().expect("launch in progress");
        batch.push_warp(self.dev, sm, trace, &mut |b| worker.send(b));
    }

    fn block_scan(&mut self, sm: u32, threads: u32) {
        let worker = &mut *self.worker;
        let batch = self.batch.as_mut().expect("launch in progress");
        batch.push_block_scan(sm, threads, &mut |b| worker.send(b));
    }

    fn base_atomics(&mut self, grid: u32) {
        let worker = &mut *self.worker;
        let batch = self.batch.as_mut().expect("launch in progress");
        batch.push_base_atomics(grid, &mut |b| worker.send(b));
    }
}

impl Feed<'_> {
    /// Sends the last batch and waits for the worker to replay
    /// everything.
    fn finish(mut self) -> Replayed {
        let batch = self.batch.take().expect("launch in progress");
        if batch.is_empty() {
            self.worker.spare.push(batch);
        } else {
            self.worker.requests.push(Request::Replay(batch));
        }
        match self.worker.end() {
            Ok(replayed) => replayed,
            Err(p) => panic::resume_unwind(p),
        }
    }
}

impl Drop for Feed<'_> {
    /// Abandons a launch that did not finish (the kernel panicked): the
    /// worker drops its state and every batch returns to the pool.
    fn drop(&mut self) {
        if let Some(mut batch) = self.batch.take() {
            batch.clear();
            self.worker.spare.push(batch);
            let _ = self.worker.end();
        }
    }
}

/// Runs `body` as one launch on `dev`: what `body` feeds is replayed on
/// this thread's worker while `body` keeps running.
/// Returns `body`'s result and the replayed timing state.
///
/// # Panics
///
/// If `body` panics, after the worker has dropped the launch; if the
/// replay panics, with its payload; if called from inside `body`.
pub(crate) fn pipelined<R>(dev: &Device, body: impl FnOnce(&mut Feed<'_>) -> R) -> (R, Replayed) {
    WORKER.with(|cell| {
        let mut slot = cell
            .try_borrow_mut()
            .expect("a launch cannot start inside another");
        let worker = slot.get_or_insert_with(Worker::spawn);
        let fresh = Replayed::new(dev.clone());
        let first = worker.take_empty();
        worker.requests.push(Request::Begin(fresh));
        let mut feed = Feed {
            dev,
            worker,
            batch: Some(first),
        };
        let out = body(&mut feed);
        (out, feed.finish())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_in_flight_stay_under_a_megabyte() {
        let bytes = POOL * ReplayBatch::new().reserved_bytes();
        assert!(bytes < 1 << 20, "{bytes} bytes of replay batches");
    }
}
