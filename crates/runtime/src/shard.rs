//! Sharded multi-core execution of one scheduler step.
//!
//! The [`PerceptionServer`](crate::PerceptionServer) partitions its
//! streams round-robin across `shards` workers. Every processing step
//! still *picks* frames with the single global round-robin coalescer —
//! the pop schedule (and therefore every backpressure drop, stall, and
//! queue-wait tick) is computed exactly as in the single-core scheduler,
//! which is what makes per-stream behavior independent of the shard
//! count. The picked frames are then grouped per `(home shard, options)`
//! into [`StepUnit`]s and executed in parallel by one worker thread per
//! shard, each against its own replica of the (read-only at inference
//! time) `EcoFusionModel`, fanned out with [`std::thread::scope`] — the
//! same dependency-free pattern as the Blocked tensor backend.
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
use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions, InferenceOutput, StemFeatureCache};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The home shard of a stream: streams are dealt round-robin so
/// neighboring stream indices land on different workers.
pub(crate) fn shard_of(stream: usize, num_shards: usize) -> usize {
    stream % num_shards
}

/// One worker shard: a private model replica plus executed-work counters.
/// Replicas are restored from a single snapshot of the serving model, and
/// inference never mutates observable model state, so all replicas stay
/// bit-identical for the server's lifetime.
pub(crate) struct ShardState {
    pub(crate) model: EcoFusionModel,
    pub(crate) frames: u64,
    pub(crate) batches: u64,
    pub(crate) steals: u64,
    pub(crate) stolen_frames: u64,
    pub(crate) busy_ns: u64,
}

impl ShardState {
    pub(crate) fn new(model: EcoFusionModel) -> Self {
        ShardState { model, frames: 0, batches: 0, steals: 0, stolen_frames: 0, busy_ns: 0 }
    }
}

/// What one shard's worker actually did over a run (host-dependent where
/// noted; never part of the shard-determinism invariant).
#[derive(Debug, Clone, Serialize)]
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
/// set of inference options, plus the stem-feature caches of the lanes
/// involved (moved in so a stolen unit still hits its streams' caches,
/// keeping hit/miss counters shard- and steal-invariant). The scheduler
/// keeps its units across steps: every list here is cleared and refilled,
/// never dropped, so a warm step builds and accounts its units without
/// allocating.
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
    /// read by the serial accounting phase for shard-track trace spans;
    /// with stealing enabled it is schedule-dependent, like
    /// [`ShardReport::busy_ms`], and explicitly outside the determinism
    /// invariant.
    pub(crate) executed_by: usize,
    /// Stem caches of the distinct lanes in this unit, moved out of the
    /// server for the duration of the step.
    pub(crate) caches: Vec<StemFeatureCache>,
    /// Global lane index per cache slot (for restoring after the join).
    pub(crate) cache_lanes: Vec<usize>,
    /// Cache-slot index per frame (parallel to `frames`).
    pub(crate) cache_slot: Vec<usize>,
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
            caches: Vec::new(),
            cache_lanes: Vec::new(),
            cache_slot: Vec::new(),
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
        payload.caches.clear();
        payload.cache_lanes.clear();
        payload.cache_slot.clear();
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

/// Executes every unit, fanning out one scoped worker thread per shard
/// when there is parallelism to exploit. Outputs land inside the units;
/// callers account them serially afterwards, in unit order. Every unit
/// leaves executed: what no worker claimed runs serially at the end.
pub(crate) fn execute_units(shards: &mut [ShardState], units: &[StepUnit], stealing: bool) {
    if shards.len() > 1 && units.len() > 1 {
        run_workers(shards, units, stealing);
    }
    // Serially, each unit on its home shard's model (so the counters
    // attribute work as the workers do), every unit no worker claimed:
    // all of them on the serial path — a single shard (the default) or a
    // single unit gains nothing from threads — and none after the
    // workers, each of which drains its own shard's units before it
    // exits.
    for unit in units {
        if !unit.try_claim() {
            continue;
        }
        let started = Instant::now();
        let shard = unit.shard.min(shards.len() - 1);
        run_unit(unit, &mut shards[shard], shard);
        shards[shard].busy_ns += started.elapsed().as_nanos() as u64;
    }
}

/// One scoped worker thread per shard, each running its own shard's
/// units in unit order and then, with `stealing`, other shards' units.
fn run_workers(shards: &mut [ShardState], units: &[StepUnit], stealing: bool) {
    let num_shards = shards.len();
    std::thread::scope(|scope| {
        for (sid, state) in shards.iter_mut().enumerate() {
            scope.spawn(move || {
                let started = Instant::now();
                loop {
                    // Own work first, in unit order.
                    let unit =
                        units.iter().find(|u| u.shard == sid && u.try_claim()).or_else(|| {
                            if stealing {
                                claim_steal(units, sid, num_shards)
                            } else {
                                None
                            }
                        });
                    let Some(unit) = unit else { break };
                    run_unit(unit, state, sid);
                }
                state.busy_ns += started.elapsed().as_nanos() as u64;
            });
        }
    });
}

/// Runs one claimed unit on `state`'s model replica, recording the
/// executing worker's counters.
fn run_unit(unit: &StepUnit, state: &mut ShardState, worker: usize) {
    // Poisoned only by a panic in an earlier step, after which `reset`
    // rewrote every field (`StepUnit::payload_mut`).
    let mut payload = unit.payload.lock().unwrap_or_else(PoisonError::into_inner);
    let UnitPayload { opts, frames, caches, cache_slot, outputs, error, executed_by, .. } =
        &mut *payload;
    outputs.clear();
    *error = state.model.infer_batch_cached_into(frames, opts, caches, cache_slot, outputs).err();
    let n = frames.len() as u64;
    *executed_by = worker;
    state.frames += n;
    state.batches += 1;
    if unit.shard != worker {
        state.steals += 1;
        state.stolen_frames += n;
    }
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
