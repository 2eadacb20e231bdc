//! A server's shard workers live exactly as long as the server: a
//! one-shard server starts no thread, an S-shard server starts S − 1,
//! and dropping it stops and joins them all. Counted in the process's
//! `/proc/self/task`, so Linux only, and one `#[test]` in its own binary:
//! libtest would run a second test on a thread of its own.
#![cfg(target_os = "linux")]

use ecofusion_core::EcoFusionModel;
use ecofusion_runtime::{PerceptionServer, RuntimeConfig, StreamSpec, VehicleStream};
use ecofusion_tensor::rng::Rng;
use std::time::{Duration, Instant};

const GRID: usize = 32;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists").count()
}

/// Waits for the thread count to reach `expected`: a joined thread may
/// stay listed for a moment after `join` returns.
fn assert_threads_settle_at(expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), expected, "{what}");
}

#[test]
fn servers_start_their_shard_workers_and_join_them_when_dropped() {
    let specs: Vec<StreamSpec> = (0..4).map(|i| StreamSpec::new(60 + i, GRID)).collect();
    let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
    let server = |shards: usize| {
        let model = EcoFusionModel::new(GRID, 8, &mut Rng::new(0x7A5C));
        PerceptionServer::new(model, &specs, RuntimeConfig::default().with_shards(shards))
    };
    let before = threads();

    let one = server(1);
    assert_eq!(threads(), before, "a one-shard server starts no thread");
    drop(one);

    for round in 0..10 {
        for shards in [2, 4] {
            let mut sharded = server(shards);
            assert_eq!(threads(), before + shards - 1, "round {round}: {shards} shards started");
            // Serve a step, so the workers have woken and parked again.
            for (i, stream) in streams.iter_mut().enumerate() {
                sharded.ingest(i, stream.next_frame());
            }
            assert_eq!(sharded.process_step().expect("the step serves"), specs.len());
            drop(sharded);
            assert_threads_settle_at(before, &format!("round {round}: {shards} shards joined"));
        }
    }
}
