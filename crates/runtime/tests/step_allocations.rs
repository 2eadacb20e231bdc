//! A warm serving step asks the allocator for what it hands out and for
//! nothing else: per frame the fused detections, the ground truth that
//! telemetry keeps, the gate's predicted losses and the configuration's
//! label; per step `StepStats::batch_sizes`; and the amortized growth of
//! telemetry's retained history (its three per-frame vectors double, and
//! a configuration's first sight clones its label into the histogram).
//! Every other buffer of the step — the pipeline's stage buffers, the
//! scheduler's work units, decode, selection, the oracle's scorer — lives
//! in scratch kept across steps.
//!
//! Three small servers on one shard each: a batched fleet on the
//! attention gate, four streams on four gates including the loss-based
//! oracle, and streams a tight budget squeezes onto the int8 rung; and
//! the fleet again on two shards (work stealing off, so that each unit
//! runs on the replica that served it in the first pass). Each serves a sequence of ticks twice:
//! the first pass grows every buffer to what those frames need, the
//! second — the same frames under the same options — is counted. A
//! single shard runs every unit inline, so its counts are this thread's.
//! Two shards run shard 1's units on the server's worker thread, so their
//! counts are the whole process's; the file's single test keeps other
//! tests from adding to them.

#[path = "../../core/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_in_process, allocs_on_this_thread};
use ecofusion_core::{ConfigId, EcoFusionModel, Frame, InferenceOptions, Precision};
use ecofusion_gating::GateKind;
use ecofusion_runtime::{EnergyBudget, PerceptionServer, RuntimeConfig, StreamSpec, VehicleStream};
use ecofusion_scene::Context;
use ecofusion_tensor::rng::Rng;

const GRID: usize = 32;

/// A server with its streams.
struct Served {
    name: &'static str,
    server: PerceptionServer,
    streams: Vec<VehicleStream>,
    /// The allocation counter that sees all of the server's work.
    allocs: fn() -> u64,
}

impl Served {
    fn new(name: &'static str, specs: &[StreamSpec], max_batch: usize) -> Self {
        Served::sharded(name, specs, max_batch, 1)
    }

    fn sharded(name: &'static str, specs: &[StreamSpec], max_batch: usize, shards: usize) -> Self {
        let model = EcoFusionModel::new(GRID, 8, &mut Rng::new(0xEC0F));
        // Without stealing every unit runs on its home shard's replica, as
        // it did in the first pass: a stolen unit can be the first of its
        // shape a replica runs, and grow that replica's buffers.
        let cfg = RuntimeConfig { max_batch, work_stealing: false, ..RuntimeConfig::default() }
            .with_shards(shards);
        let server = PerceptionServer::new(model, specs, cfg);
        assert_eq!(server.num_shards(), shards, "{name}: every shard has streams");
        let streams = specs.iter().map(|s| VehicleStream::new(*s)).collect();
        let allocs = if shards == 1 { allocs_on_this_thread } else { allocs_in_process };
        Served { name, server, streams, allocs }
    }

    /// The next tick's frames, one a stream.
    fn next_frames(&mut self) -> Vec<Frame> {
        self.streams.iter_mut().map(VehicleStream::next_frame).collect()
    }

    /// One tick: `frames` ingested, then one step. Returns the
    /// allocations made by `ingest` and `process_step_stats` and the
    /// frames the step served.
    fn serve(&mut self, frames: Vec<Frame>) -> (u64, usize) {
        let before = (self.allocs)();
        for (i, frame) in frames.into_iter().enumerate() {
            let _ = self.server.ingest(i, frame);
        }
        let stats = self.server.process_step_stats().expect("the step serves");
        let allocs = (self.allocs)() - before;
        self.server.advance_tick();
        (allocs, stats.frames)
    }

    /// Per stream, the configurations its telemetry has recorded.
    fn history(&self) -> Vec<Vec<ConfigId>> {
        (0..self.streams.len())
            .map(|i| self.server.telemetry(i).selected_configs().to_vec())
            .collect()
    }
}

/// What telemetry's retained history may request while it grows from
/// `before` to `after` frames: its three per-frame vectors (detections,
/// ground truth, selected configurations) reallocate together when a push
/// meets a full buffer — at lengths 0, 4, 8, 16, … — and a configuration
/// the stream has not selected before costs its label's clone and at most
/// one histogram node.
fn history_growth(before: &[ConfigId], after: &[ConfigId]) -> u64 {
    let doublings = (before.len()..after.len())
        .filter(|&len| len == 0 || (len >= 4 && len.is_power_of_two()))
        .count() as u64;
    let mut seen: Vec<ConfigId> = before.to_vec();
    let mut firsts = 0;
    for c in &after[before.len()..] {
        if !seen.contains(c) {
            seen.push(*c);
            firsts += 1;
        }
    }
    3 * doublings + 2 * firsts
}

/// Serves `ticks` ticks of frames twice and holds every step of the
/// second pass to the hand-outs.
fn assert_warm_steps_allocate_only_hand_outs(mut served: Served, ticks: usize) {
    let sequence: Vec<Vec<Frame>> = (0..ticks).map(|_| served.next_frames()).collect();
    for frames in &sequence {
        served.serve(frames.clone());
    }
    let (mut total_allocs, mut total_frames) = (0, 0);
    for (step, frames) in sequence.iter().enumerate() {
        let frames = frames.clone();
        let before = served.history();
        let (allocs, served_frames) = served.serve(frames);
        let after = served.history();
        let growth: u64 = before.iter().zip(&after).map(|(b, a)| history_growth(b, a)).sum();
        // Four hand-outs a frame, `batch_sizes` once a step.
        let budget = 4 * served_frames as u64 + 1 + growth;
        assert!(
            allocs <= budget,
            "{}: warm step {step} made {allocs} allocations for {served_frames} frames; \
             the hand-outs and history growth account for {budget}",
            served.name
        );
        total_allocs += allocs;
        total_frames += served_frames;
    }
    assert!(total_frames > 0, "{}: the measured steps served nothing", served.name);
    println!(
        "{}: {:.2} allocations a frame over {ticks} warm steps",
        served.name,
        total_allocs as f64 / total_frames as f64
    );
}

/// One `#[test]`, so that the four servers are measured one after
/// another on this thread, and nothing else runs beside the two-shard
/// one.
#[test]
fn a_warm_step_allocates_only_what_it_hands_out() {
    // A batched fleet on the attention gate.
    let fleet: Vec<StreamSpec> = (0..8)
        .map(|i| StreamSpec::new(500 + i as u64, GRID).with_context(Context::ALL[i % 8]))
        .collect();
    assert_warm_steps_allocate_only_hand_outs(Served::new("fleet", &fleet, 8), 24);

    // The same fleet on two shards: two units a step, one of them on the
    // server's worker thread.
    assert_warm_steps_allocate_only_hand_outs(Served::sharded("2-shard fleet", &fleet, 8, 2), 24);

    // Four streams on four gates, so four batch-1 units a step and one
    // of them the loss-based oracle.
    let mixed: Vec<StreamSpec> = GateKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &gate)| {
            StreamSpec::new(701 + i as u64, GRID)
                .with_context(Context::ALL[2 * i % 8])
                .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(gate))
        })
        .collect();
    assert_warm_steps_allocate_only_hand_outs(Served::new("mixed gates", &mixed, 8), 24);

    // Streams a 0.5 J budget squeezes onto the int8 emergency rung.
    let squeezed: Vec<StreamSpec> = (0..4)
        .map(|i| {
            StreamSpec::new(401 + i as u64, GRID)
                .with_context(Context::ALL[i % 8])
                .with_budget(EnergyBudget { target_j: 0.5, window: 8, relax_margin: 0.8 })
        })
        .collect();
    let mut served = Served::new("int8 squeeze", &squeezed, 4);
    for _ in 0..64 {
        let frames = served.next_frames();
        served.serve(frames);
    }
    for i in 0..squeezed.len() {
        let opts = served.server.stream_options(i);
        assert_eq!(opts.precision, Precision::Int8, "stream {i} reached the int8 rung");
    }
    assert_warm_steps_allocate_only_hand_outs(served, 16);
}
