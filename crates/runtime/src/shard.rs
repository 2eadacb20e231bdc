//! Sharded multi-core execution of one scheduler step.
//!
//! The [`PerceptionServer`](crate::PerceptionServer) partitions its
//! streams round-robin across `shards` workers. Every processing step
//! still *picks* frames with the single global round-robin coalescer —
//! the pop schedule (and therefore every backpressure drop, stall, and
//! queue-wait tick) is computed exactly as in the single-core scheduler,
//! which is what makes per-stream behavior independent of the shard
//! count. The picked frames are then grouped per `(home shard, options)`
//! into `StepUnit`s and executed in parallel by one worker per shard,
//! each against its own replica of the (read-only at inference time)
//! `EcoFusionModel`.
//!
//! **Workers.** A `ShardPool` starts its `shards − 1` helper threads
//! once, with the server, and joins them when it is dropped. The thread
//! that calls `process_step` is shard 0's worker. A parallel step wakes
//! every helper once, runs shard 0's units, and waits once for the
//! helpers to finish; between steps they are parked on a condition
//! variable, so an idle server costs no CPU. Because a helper lives as
//! long as the server, its thread-local kernel buffers are grown once,
//! not once a step. A panic in a helper's unit is caught there and
//! raised again on the calling thread; a panic in the caller's own work
//! waits for the helpers first, so no worker is left running a step the
//! caller has abandoned. One shard, or a step of one unit, runs inline
//! and wakes nobody.
//!
//! **Work stealing.** A worker that drains its own shard's units claims
//! whole units from the shard with the most unclaimed work (ties to the
//! lowest shard id), newest unit first. The hand-off granularity is the
//! unit: all frames a stream contributed to a step live in one unit, in
//! FIFO order, so stealing can never reorder or split a stream's frames.
//! Claims go through one atomic compare-exchange per unit — no queues,
//! no locks on the hot path — and because batched inference is
//! bit-identical regardless of which (identical) model replica runs it,
//! the nondeterministic *claim order* cannot perturb any output.
//!
//! **Determinism invariant.** Per-stream outputs, selection digests, and
//! reports are bit-identical for any shard count and with stealing on or
//! off. The scheduler guarantees this by construction: global pick →
//! parallel execute (result-invariant) → serial accounting in unit
//! order. The runtime test suite asserts it directly.

use ecofusion_core::model::InferError;
use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions, InferenceOutput};
use serde::Serialize;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The home shard of a stream: streams are dealt round-robin so
/// neighboring stream indices land on different workers.
pub(crate) fn shard_of(stream: usize, num_shards: usize) -> usize {
    stream % num_shards
}

/// One worker shard: a private model replica and the wall-clock time
/// its worker spent executing. Replicas are restored from a single
/// snapshot of the serving model, and inference never mutates observable
/// model state, so all replicas stay bit-identical for the server's
/// lifetime. What a worker executed is counted by the serial accounting,
/// from each unit's `executed_by`.
pub(crate) struct ShardState {
    pub(crate) model: EcoFusionModel,
    pub(crate) busy_ns: u64,
}

/// What one shard's worker actually did over a run (host-dependent where
/// noted; never part of the shard-determinism invariant).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Streams whose home this shard is.
    pub streams: usize,
    /// Frames this worker executed (own + stolen).
    pub frames: u64,
    /// Micro-batches this worker executed.
    pub batches: u64,
    /// Units this worker claimed from other shards.
    pub steals: u64,
    /// Frames inside those stolen units.
    pub stolen_frames: u64,
    /// Wall-clock time this worker spent executing, ms (host-dependent).
    pub busy_ms: f64,
}

/// The mutable payload of one work unit: one shard's frames sharing one
/// set of inference options, and what running them produced. The
/// scheduler keeps its units across steps: every list here is cleared and
/// refilled, never dropped, so a warm step builds and accounts its units
/// without allocating.
pub(crate) struct UnitPayload {
    pub(crate) opts: InferenceOptions,
    /// Global lane index per frame, in pick order.
    pub(crate) lane_ids: Vec<usize>,
    pub(crate) frames: Vec<Frame>,
    /// Queue-wait ticks per frame.
    pub(crate) waits: Vec<u64>,
    /// Global pick index per frame within the step. Accounting sorts all
    /// frames of a step by this, so telemetry, budget moves, and trace
    /// events replay in the single global pick order regardless of how
    /// the frames were grouped into units (= regardless of shard count).
    pub(crate) picks: Vec<u64>,
    /// The worker that actually executed the unit (differs from the home
    /// shard exactly when the unit was stolen). Recorded by the worker,
    /// read by the serial accounting phase, which counts the unit to that
    /// worker and records its shard-track span; with stealing enabled it
    /// is schedule-dependent, like
    /// [`ShardReport::busy_ms`], and explicitly outside the determinism
    /// invariant.
    pub(crate) executed_by: usize,
    /// Filled by the executing worker: one output per frame, or none and
    /// the error that failed the unit.
    pub(crate) outputs: Vec<InferenceOutput>,
    pub(crate) error: Option<InferError>,
}

impl UnitPayload {
    fn new(opts: InferenceOptions) -> Self {
        UnitPayload {
            opts,
            lane_ids: Vec::new(),
            frames: Vec::new(),
            waits: Vec::new(),
            picks: Vec::new(),
            executed_by: 0,
            outputs: Vec::new(),
            error: None,
        }
    }
}

/// One claimable piece of a step: the unit of parallel execution and of
/// work stealing.
pub(crate) struct StepUnit {
    /// Home shard (the worker that executes it unless stolen).
    pub(crate) shard: usize,
    claimed: AtomicBool,
    payload: Mutex<UnitPayload>,
}

impl StepUnit {
    /// An empty unit for `shard` running `opts`.
    pub(crate) fn new(shard: usize, opts: InferenceOptions) -> Self {
        StepUnit {
            shard,
            claimed: AtomicBool::new(false),
            payload: Mutex::new(UnitPayload::new(opts)),
        }
    }

    /// Makes the unit a new, unclaimed one for `shard` running `opts`,
    /// its lists emptied but kept: what the scheduler does to a unit slot
    /// it fills again.
    pub(crate) fn reset(&mut self, shard: usize, opts: InferenceOptions) {
        self.shard = shard;
        *self.claimed.get_mut() = false;
        let payload = self.payload_mut();
        payload.opts = opts;
        payload.executed_by = shard;
        payload.error = None;
        payload.lane_ids.clear();
        payload.frames.clear();
        payload.waits.clear();
        payload.picks.clear();
        payload.outputs.clear();
    }

    /// The payload, outside the parallel phase (single-threaded again).
    /// A worker that panicked holding the lock took its step down with
    /// it; a later step may take the payload as it stands, since
    /// [`StepUnit::reset`] rewrites every field before the unit is used.
    pub(crate) fn payload_mut(&mut self) -> &mut UnitPayload {
        self.payload.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_claim(&self) -> bool {
        self.claimed.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    fn is_claimed(&self) -> bool {
        self.claimed.load(Ordering::Acquire)
    }
}

/// The shard workers of one server: every shard's state, and the helper
/// threads that run shards 1.. (shard 0 is the thread that calls
/// [`ShardPool::execute`]). Helpers start with the pool and are stopped
/// and joined when it is dropped.
pub(crate) struct ShardPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

/// What the caller and the helpers share.
struct Shared {
    /// Shard `i`'s state. A worker holds its own shard's lock for the
    /// whole parallel phase; between steps nobody holds any.
    states: Vec<Mutex<ShardState>>,
    /// The step's unit list, moved in for the parallel phase (and out
    /// again before the caller returns); the workers read-lock it.
    units: RwLock<Vec<StepUnit>>,
    control: Mutex<Control>,
    /// Signalled once a step, and on shutdown: wakes the helpers.
    start: Condvar,
    /// Signalled by the last helper to finish a step: wakes the caller.
    done: Condvar,
}

/// The hand-off between the caller and the helpers.
#[derive(Default)]
struct Control {
    /// Parallel steps started so far; a helper runs each one once.
    step: u64,
    /// Units of the current step, and whether workers steal.
    live: usize,
    stealing: bool,
    /// Helpers that have not yet finished the current step.
    running: usize,
    /// The first panic a helper caught this step, raised again by the
    /// caller.
    panic: Option<Box<dyn Any + Send>>,
    stop: bool,
}

/// Locks `mutex`, taking its value as it stands if a panicking worker
/// poisoned it: the step it panicked in was raised to the caller, and
/// every later step rewrites what it reads ([`StepUnit::reset`]).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardPool {
    /// `num_shards` shards, shard 0 serving `model` and every other one a
    /// snapshot-restored replica of it, and a parked helper thread for
    /// each shard but the first.
    pub(crate) fn new(mut model: EcoFusionModel, num_shards: usize) -> Self {
        let mut states = Vec::with_capacity(num_shards);
        if num_shards > 1 {
            let snapshot = model.snapshot();
            for _ in 1..num_shards {
                let replica = snapshot.restore().expect("replica restores");
                states.push(Mutex::new(ShardState { model: replica, busy_ns: 0 }));
            }
        }
        states.insert(0, Mutex::new(ShardState { model, busy_ns: 0 }));
        let shared = Arc::new(Shared {
            states,
            units: RwLock::new(Vec::new()),
            control: Mutex::default(),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let helpers = (1..num_shards)
            .map(|sid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ecofusion-shard-{sid}"))
                    .spawn(move || helper(&shared, sid))
                    .expect("a shard worker starts")
            })
            .collect();
        ShardPool { shared, helpers }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.shared.states.len()
    }

    /// Every shard's state, in shard order. Between steps no worker
    /// holds a lock, so this never waits.
    pub(crate) fn states(&self) -> impl Iterator<Item = MutexGuard<'_, ShardState>> {
        self.shared.states.iter().map(lock)
    }

    /// Executes the first `live` of `units`, in parallel across the
    /// shards when there is parallelism to exploit. Outputs land inside
    /// the units; callers account them serially afterwards, in unit
    /// order. Every unit leaves executed: what no worker claimed runs
    /// serially at the end.
    ///
    /// # Panics
    /// Raises again, on this thread, a panic of any unit, after every
    /// helper has finished the step.
    pub(crate) fn execute(&mut self, units: &mut Vec<StepUnit>, live: usize, stealing: bool) {
        if self.len() > 1 && live > 1 {
            self.run_parallel(units, live, stealing);
        }
        // Serially, each unit on its home shard's model (so the unit
        // counts to its home shard), every unit no worker
        // claimed: all of them on the serial path — a single shard (the
        // default) or a single unit gains nothing from threads — and none
        // after the workers, each of which drains its own shard's units
        // before it finishes.
        for unit in &units[..live] {
            if !unit.try_claim() {
                continue;
            }
            let started = Instant::now();
            let shard = unit.shard.min(self.len() - 1);
            let mut state = lock(&self.shared.states[shard]);
            run_unit(unit, &mut state, shard);
            state.busy_ns += started.elapsed().as_nanos() as u64;
        }
    }

    /// One parallel step: hands `units` to the helpers, wakes them, runs
    /// shard 0 on this thread, waits for the helpers and takes `units`
    /// back.
    fn run_parallel(&self, units: &mut Vec<StepUnit>, live: usize, stealing: bool) {
        let shared = &*self.shared;
        std::mem::swap(units, &mut shared.units.write().unwrap_or_else(PoisonError::into_inner));
        {
            let mut control = lock(&shared.control);
            control.step += 1;
            control.live = live;
            control.stealing = stealing;
            control.running = self.helpers.len();
        }
        shared.start.notify_all();
        let own = panic::catch_unwind(AssertUnwindSafe(|| shared.drain(0, live, stealing)));
        let helper_panic = {
            let control = shared.done.wait_while(lock(&shared.control), |c| c.running > 0);
            control.unwrap_or_else(PoisonError::into_inner).panic.take()
        };
        std::mem::swap(units, &mut shared.units.write().unwrap_or_else(PoisonError::into_inner));
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        lock(&self.shared.control).stop = true;
        self.shared.start.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper catches its units' panics, so it only ever returns.
            let _ = helper.join();
        }
    }
}

/// A helper thread's life: park until a step starts, run shard `sid`'s
/// part of it, report back; until the pool stops.
fn helper(shared: &Shared, sid: usize) {
    let mut seen = 0;
    loop {
        let (live, stealing) = {
            let control =
                shared.start.wait_while(lock(&shared.control), |c| c.step == seen && !c.stop);
            let control = control.unwrap_or_else(PoisonError::into_inner);
            if control.stop {
                return;
            }
            seen = control.step;
            (control.live, control.stealing)
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| shared.drain(sid, live, stealing)));
        let mut control = lock(&shared.control);
        if let Err(payload) = outcome {
            control.panic.get_or_insert(payload);
        }
        control.running -= 1;
        if control.running == 0 {
            shared.done.notify_one();
        }
    }
}

impl Shared {
    /// Worker `sid`'s share of a parallel step: its own shard's units in
    /// unit order and then, with `stealing`, other shards' units.
    fn drain(&self, sid: usize, live: usize, stealing: bool) {
        let units = self.units.read().unwrap_or_else(PoisonError::into_inner);
        let units = &units[..live];
        let mut state = lock(&self.states[sid]);
        let started = Instant::now();
        loop {
            // Own work first, in unit order.
            let unit = units.iter().find(|u| u.shard == sid && u.try_claim()).or_else(|| {
                if stealing {
                    claim_steal(units, sid, self.states.len())
                } else {
                    None
                }
            });
            let Some(unit) = unit else { break };
            run_unit(unit, &mut state, sid);
        }
        state.busy_ns += started.elapsed().as_nanos() as u64;
    }
}

/// Runs one claimed unit on `state`'s model replica, recording the
/// executing worker in the unit.
fn run_unit(unit: &StepUnit, state: &mut ShardState, worker: usize) {
    let mut payload = lock(&unit.payload);
    let UnitPayload { opts, frames, outputs, error, executed_by, .. } = &mut *payload;
    outputs.clear();
    *error = state.model.infer_batch_into(frames, opts, outputs).err();
    *executed_by = worker;
}

/// Steals one unit for `thief`: picks the victim shard with the most
/// unclaimed units (ties to the lowest shard id) and claims its newest
/// unclaimed unit. Retries on claim races until no unclaimed foreign work
/// remains.
fn claim_steal(units: &[StepUnit], thief: usize, num_shards: usize) -> Option<&StepUnit> {
    let backlog = |sid: usize| units.iter().filter(|u| u.shard == sid && !u.is_claimed()).count();
    loop {
        let victim = (0..num_shards)
            .filter(|&sid| sid != thief)
            .map(|sid| (sid, backlog(sid)))
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(sid, n)| (n, std::cmp::Reverse(sid)))?
            .0;
        // Newest first: the oldest units are what the victim's own worker
        // is about to reach, so stealing from the back minimizes claim
        // contention.
        for u in units.iter().rev() {
            if u.shard == victim && u.try_claim() {
                return Some(u);
            }
        }
        // Raced out of every candidate; re-survey.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamSpec, VehicleStream};
    use ecofusion_tensor::rng::Rng;

    const GRID: usize = 32;

    fn pool(num_shards: usize) -> ShardPool {
        ShardPool::new(EcoFusionModel::new(GRID, 8, &mut Rng::new(0x5A4D)), num_shards)
    }

    /// A unit for `shard` holding one frame. A `broken` unit runs it with
    /// a negative γ, which candidate selection rejects with a panic.
    fn unit(shard: usize, broken: bool) -> StepUnit {
        let opts = InferenceOptions::new(0.01, 0.5);
        let opts = if broken { InferenceOptions { gamma: -1.0, ..opts } } else { opts };
        let mut unit = StepUnit::new(shard, opts);
        let payload = unit.payload_mut();
        payload
            .frames
            .push(VehicleStream::new(StreamSpec::new(40 + shard as u64, GRID)).next_frame());
        payload.lane_ids.push(shard);
        unit
    }

    /// Per unit, the worker that ran it to completion, if one did.
    fn ran(units: &mut [StepUnit]) -> Vec<Option<usize>> {
        units
            .iter_mut()
            .map(StepUnit::payload_mut)
            .map(|p| (p.outputs.len() == p.frames.len()).then_some(p.executed_by))
            .collect()
    }

    fn panic_message(payload: &(dyn Any + Send)) -> String {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        text.or_else(|| payload.downcast_ref::<&str>().copied()).unwrap_or("").to_string()
    }

    #[test]
    fn only_shards_after_the_first_get_a_thread() {
        assert_eq!(pool(1).helpers.len(), 0);
        assert_eq!(pool(3).helpers.len(), 2);
    }

    #[test]
    fn a_panic_on_either_side_reaches_the_caller_and_the_pool_serves_on() {
        let mut pool = pool(2);
        // Without stealing, shard 1's unit runs on the helper, and
        // shard 0's on this thread.
        let mut step = |units: &mut Vec<StepUnit>| {
            panic::catch_unwind(AssertUnwindSafe(|| pool.execute(units, 2, false)))
                .map_err(|payload| panic_message(&*payload))
        };

        let mut units = vec![unit(0, false), unit(1, true)];
        let raised = step(&mut units).expect_err("the helper's panic reaches the caller");
        assert!(raised.contains("gamma must be non-negative"), "raised {raised:?}");
        assert_eq!(ran(&mut units), [Some(0), None], "the units came back, the caller's run");

        // The caller's own unit panics: the helper's unit still finishes
        // before the panic is raised.
        let mut units = vec![unit(0, true), unit(1, false)];
        let raised = step(&mut units).expect_err("the caller's panic is raised");
        assert!(raised.contains("gamma must be non-negative"), "raised {raised:?}");
        assert_eq!(ran(&mut units), [None, Some(1)]);

        // The same helper serves the next step.
        let mut units = vec![unit(0, false), unit(1, false)];
        step(&mut units).expect("a clean step runs");
        assert_eq!(ran(&mut units), [Some(0), Some(1)]);
    }
}
