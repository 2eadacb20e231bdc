//! Microbenchmarks of the NN substrate kernels: the blocked kernels
//! against the reference oracle, the comparison the kernel layer is
//! judged by — `Blocked` must hold a ≥3× advantage on the 128³ matmul and
//! the representative stem convolution below.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ecofusion_tensor::backend::{Backend, Blocked, ConvSpec, Reference};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;

const BACKENDS: [(&str, &dyn Backend); 2] = [("reference", &Reference), ("blocked", &Blocked)];

/// The acceptance shape: 128×128×128 matmul per backend.
fn bench_backend_matmul(c: &mut Criterion) {
    let mut rng = Rng::new(7);
    let a = Tensor::randn(&[128, 128], 1.0, &mut rng);
    let b = Tensor::randn(&[128, 128], 1.0, &mut rng);
    let mut group = c.benchmark_group("backend_matmul_128x128x128");
    for (name, backend) in BACKENDS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |bench, be| {
            bench.iter(|| black_box(a.matmul_with(&b, *be)));
        });
    }
    group.finish();
}

/// A representative stem convolution (`Stem`'s 3×3 over a 64 px raster)
/// per backend.
fn bench_backend_stem_conv(c: &mut Criterion) {
    let mut rng = Rng::new(8);
    let spec = ConvSpec { in_channels: 1, out_channels: 8, kernel: 3, stride: 1, padding: 1 };
    let x = Tensor::randn(&[1, 1, 64, 64], 1.0, &mut rng);
    let w = Tensor::randn(&[8, spec.patch_len()], 0.2, &mut rng);
    let bias = vec![0.1f32; 8];
    let mut group = c.benchmark_group("backend_stem_conv_1to8_64px");
    for (name, backend) in BACKENDS {
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |bench, be| {
            bench.iter(|| black_box(be.conv2d_forward(&x, &w, &bias, &spec, &mut scratch)));
        });
    }
    group.finish();
}

/// A branch-backbone convolution shape per backend, forward and backward.
fn bench_backend_branch_conv(c: &mut Criterion) {
    let mut rng = Rng::new(9);
    let spec = ConvSpec { in_channels: 8, out_channels: 16, kernel: 3, stride: 2, padding: 1 };
    let x = Tensor::randn(&[1, 8, 32, 32], 1.0, &mut rng);
    let w = Tensor::randn(&[16, spec.patch_len()], 0.2, &mut rng);
    let bias = vec![0.0f32; 16];
    let (ho, wo) = spec.out_size(32, 32);
    let grad = Tensor::randn(&[1, 16, ho, wo], 1.0, &mut rng);
    let mut group = c.benchmark_group("backend_branch_conv_8to16_s2_32px");
    for (name, backend) in BACKENDS {
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::new("forward", name), &backend, |bench, be| {
            bench.iter(|| black_box(be.conv2d_forward(&x, &w, &bias, &spec, &mut scratch)));
        });
        group.bench_with_input(BenchmarkId::new("backward", name), &backend, |bench, be| {
            bench.iter(|| black_box(be.conv2d_backward(&x, &w, &grad, &spec, &mut scratch, false)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backend_matmul, bench_backend_stem_conv, bench_backend_branch_conv);
criterion_main!(benches);
