//! Ray-casting throughput with the packet-size axis.
//!
//! Every render mode runs on one row loop and one sample loop over a shared
//! sampling core: a packet of samples is located once per axis (clamp,
//! bracket, fraction) and fetched, then composited serially, with the
//! gradient taps of a shaded sample reusing its brackets. Output is
//! invariant to the packet width, so this axis isolates the throughput
//! effect of batching the per-sample work.
//!
//! `IFET_QUICK=1` shrinks the volume and framebuffer for a CI smoke-run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ifet_render::{Camera, RenderParams, Renderer};
use ifet_tf::{ColorMap, TransferFunction1D};
use ifet_volume::{Dims3, ScalarVolume};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var("IFET_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Volume side and framebuffer size under test.
fn shape() -> (usize, usize) {
    if quick() {
        (16, 24)
    } else {
        (48, 96)
    }
}

/// A soft sphere: rays accumulate over many samples before terminating, so
/// the packet phases dominate.
fn scene(n: usize) -> (ScalarVolume, TransferFunction1D, Camera) {
    let d = Dims3::cube(n);
    let c = n as f32 / 2.0;
    let vol = ScalarVolume::from_fn(d, |x, y, z| {
        let r = ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt();
        (1.0 - r / c).max(0.0)
    });
    let tf = TransferFunction1D::band(0.0, 1.0, 0.2, 0.9, 0.25);
    let cam = Camera::framing(d, 0.6, 0.4);
    (vol, tf, cam)
}

fn bench_render_packet_axis(c: &mut Criterion) {
    let (n, size) = shape();
    let (vol, tf, cam) = scene(n);
    let mut g = c.benchmark_group("render_packet");
    for &packet in &[1usize, 4, 8, 16, 64] {
        let r = Renderer::new(RenderParams {
            packet,
            ..Default::default()
        });
        g.bench_with_input(BenchmarkId::new("samples", packet), &packet, |b, _| {
            b.iter(|| black_box(r.render(&vol, &tf, ColorMap::Rainbow, &cam, size, size)))
        });
    }
    g.finish();
}

fn bench_render_mip(c: &mut Criterion) {
    let (n, size) = shape();
    let (vol, _, cam) = scene(n);
    let mut g = c.benchmark_group("render_mip");
    for &packet in &[1usize, 8] {
        let r = Renderer::new(RenderParams {
            packet,
            shading: false,
            ..Default::default()
        });
        g.bench_with_input(BenchmarkId::new("samples", packet), &packet, |b, _| {
            b.iter(|| black_box(r.render_mip(&vol, ColorMap::Rainbow, &cam, size, size)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_render_packet_axis, bench_render_mip);
criterion_main!(benches);
