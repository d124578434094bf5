//! Continuous sampling of volumes: trilinear interpolation and
//! central-difference gradients (used by the renderer and the fluid solver's
//! semi-Lagrangian advection).

use crate::volume::ScalarVolume;

/// Trilinearly interpolate `vol` at continuous voxel coordinates `(x, y, z)`.
///
/// Coordinates are in voxel units where integer positions coincide with voxel
/// centers; out-of-range coordinates are clamped (Neumann boundary).
pub fn trilinear(vol: &ScalarVolume, x: f32, y: f32, z: f32) -> f32 {
    Sampler::new(vol).value(x, y, z)
}

/// A volume's voxels and strides, borrowed once so a caller that samples
/// many points (a ray caster) resolves the storage and index math once.
#[derive(Debug, Clone, Copy)]
pub struct Sampler<'a> {
    data: &'a [f32],
    /// Voxel count per axis.
    n: [usize; 3],
    /// Linear-index stride per axis.
    stride: [usize; 3],
    /// Clamp bound per axis: `(n - 1) as f32`.
    max: [f32; 3],
}

/// One axis of a located sample: the bracketing voxels as linear-index
/// offsets (index times the axis stride) and the fraction between them.
#[derive(Debug, Clone, Copy, Default)]
struct Axis {
    lo: usize,
    hi: usize,
    f: f32,
}

/// A sample position with each axis's bracket resolved by
/// [`Sampler::locate`]. Valid for any sampler over the same dims.
#[derive(Debug, Clone, Copy, Default)]
pub struct Located {
    pos: [f32; 3],
    axes: [Axis; 3],
}

impl Located {
    /// The unclamped coordinates this sample was located at.
    #[inline]
    pub fn pos(&self) -> [f32; 3] {
        self.pos
    }
}

impl<'a> Sampler<'a> {
    pub fn new(vol: &'a ScalarVolume) -> Self {
        let d = vol.dims();
        Self {
            data: vol.as_slice(),
            n: [d.nx, d.ny, d.nz],
            stride: [1, d.nx, d.nx * d.ny],
            max: [(d.nx - 1) as f32, (d.ny - 1) as f32, (d.nz - 1) as f32],
        }
    }

    /// Clamp coordinate `c` onto axis `k` and bracket it.
    #[inline]
    fn axis(&self, k: usize, c: f32) -> Axis {
        let c = c.clamp(0.0, self.max[k]);
        // After the clamp `c` is in [0, n-1] (or NaN, which both casts send
        // to 0), where truncation equals `floor` without its libm call.
        let i0 = c as usize;
        let i1 = (i0 + 1).min(self.n[k] - 1);
        Axis {
            lo: i0 * self.stride[k],
            hi: i1 * self.stride[k],
            f: c - i0 as f32,
        }
    }

    /// Bracket `(x, y, z)` on every axis.
    #[inline]
    pub fn locate(&self, x: f32, y: f32, z: f32) -> Located {
        Located {
            pos: [x, y, z],
            axes: [self.axis(0, x), self.axis(1, y), self.axis(2, z)],
        }
    }

    /// Interpolate between eight bracketing voxels: x-lerps, then y, then z.
    #[inline]
    fn lerp(&self, x: Axis, y: Axis, z: Axis) -> f32 {
        let d = self.data;
        let v000 = d[x.lo + y.lo + z.lo];
        let v100 = d[x.hi + y.lo + z.lo];
        let v010 = d[x.lo + y.hi + z.lo];
        let v110 = d[x.hi + y.hi + z.lo];
        let v001 = d[x.lo + y.lo + z.hi];
        let v101 = d[x.hi + y.lo + z.hi];
        let v011 = d[x.lo + y.hi + z.hi];
        let v111 = d[x.hi + y.hi + z.hi];

        let c00 = v000 + (v100 - v000) * x.f;
        let c10 = v010 + (v110 - v010) * x.f;
        let c01 = v001 + (v101 - v001) * x.f;
        let c11 = v011 + (v111 - v011) * x.f;

        let c0 = c00 + (c10 - c00) * y.f;
        let c1 = c01 + (c11 - c01) * y.f;

        c0 + (c1 - c0) * z.f
    }

    /// Trilinear value at a located sample.
    #[inline]
    pub fn at(&self, s: &Located) -> f32 {
        let [x, y, z] = s.axes;
        self.lerp(x, y, z)
    }

    /// Central-difference gradient at a located sample from trilinear taps
    /// half a voxel apart. Each tap brackets only its own offset axis and
    /// reuses the sample's brackets on the other two.
    #[inline]
    pub fn gradient(&self, s: &Located) -> [f32; 3] {
        let h = 0.5;
        let [x, y, z] = s.pos;
        let [ax, ay, az] = s.axes;
        [
            (self.lerp(self.axis(0, x + h), ay, az) - self.lerp(self.axis(0, x - h), ay, az))
                / (2.0 * h),
            (self.lerp(ax, self.axis(1, y + h), az) - self.lerp(ax, self.axis(1, y - h), az))
                / (2.0 * h),
            (self.lerp(ax, ay, self.axis(2, z + h)) - self.lerp(ax, ay, self.axis(2, z - h)))
                / (2.0 * h),
        ]
    }

    /// Trilinear value at `(x, y, z)` (see [`trilinear`]).
    #[inline]
    pub fn value(&self, x: f32, y: f32, z: f32) -> f32 {
        self.at(&self.locate(x, y, z))
    }

    /// Trilinear value and central-difference gradient at `(x, y, z)`.
    #[inline]
    pub fn value_and_gradient(&self, x: f32, y: f32, z: f32) -> (f32, [f32; 3]) {
        let s = self.locate(x, y, z);
        (self.at(&s), self.gradient(&s))
    }
}

/// Central-difference gradient at an integer voxel (clamped at boundaries).
pub fn gradient_at(vol: &ScalarVolume, x: usize, y: usize, z: usize) -> [f32; 3] {
    let (xi, yi, zi) = (x as i64, y as i64, z as i64);
    let gx = (vol.get_clamped(xi + 1, yi, zi) - vol.get_clamped(xi - 1, yi, zi)) * 0.5;
    let gy = (vol.get_clamped(xi, yi + 1, zi) - vol.get_clamped(xi, yi - 1, zi)) * 0.5;
    let gz = (vol.get_clamped(xi, yi, zi + 1) - vol.get_clamped(xi, yi, zi - 1)) * 0.5;
    [gx, gy, gz]
}

/// Gradient-magnitude volume: `|∇f|` at every voxel (central differences,
/// clamped boundaries) — the second axis of Kindlmann-style 2D transfer
/// functions.
pub fn gradient_magnitude_volume(vol: &ScalarVolume) -> ScalarVolume {
    ScalarVolume::from_fn(vol.dims(), |x, y, z| norm3(gradient_at(vol, x, y, z)))
}

/// Euclidean norm of a 3-vector.
#[inline]
pub fn norm3(v: [f32; 3]) -> f32 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// Normalize a 3-vector; returns zero vector for (near-)zero input.
#[inline]
pub fn normalize3(v: [f32; 3]) -> [f32; 3] {
    let n = norm3(v);
    if n < 1e-12 {
        [0.0; 3]
    } else {
        [v[0] / n, v[1] / n, v[2] / n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims3;
    use proptest::prelude::*;

    fn linear_field() -> ScalarVolume {
        // f(x,y,z) = 2x + 3y - z  (trilinear interpolation is exact on it)
        ScalarVolume::from_fn(Dims3::cube(8), |x, y, z| {
            2.0 * x as f32 + 3.0 * y as f32 - z as f32
        })
    }

    #[test]
    fn trilinear_exact_at_voxel_centers() {
        let v = linear_field();
        assert_eq!(trilinear(&v, 3.0, 4.0, 5.0), *v.get(3, 4, 5));
    }

    #[test]
    fn trilinear_exact_on_linear_fields() {
        let v = linear_field();
        let got = trilinear(&v, 2.25, 3.5, 1.75);
        let want = 2.0 * 2.25 + 3.0 * 3.5 - 1.75;
        assert!((got - want).abs() < 1e-4, "{got} vs {want}");
    }

    #[test]
    fn trilinear_clamps_out_of_range() {
        let v = linear_field();
        assert_eq!(trilinear(&v, -10.0, 0.0, 0.0), *v.get(0, 0, 0));
        assert_eq!(trilinear(&v, 100.0, 7.0, 7.0), *v.get(7, 7, 7));
    }

    #[test]
    fn gradient_of_linear_field() {
        let v = linear_field();
        let g = gradient_at(&v, 4, 4, 4);
        assert!((g[0] - 2.0).abs() < 1e-5);
        assert!((g[1] - 3.0).abs() < 1e-5);
        assert!((g[2] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_trilinear_matches_integer_gradient_interior() {
        let v = linear_field();
        let gi = gradient_at(&v, 4, 4, 4);
        let gc = Sampler::new(&v).value_and_gradient(4.0, 4.0, 4.0).1;
        for k in 0..3 {
            assert!((gi[k] - gc[k]).abs() < 1e-4);
        }
    }

    #[test]
    fn boundary_gradient_uses_one_sided_clamp() {
        let v = linear_field();
        // At x=0 the clamped central difference halves: (f(1)-f(0))/2.
        let g = gradient_at(&v, 0, 4, 4);
        assert!((g[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_magnitude_volume_matches_pointwise() {
        let v = linear_field();
        let g = gradient_magnitude_volume(&v);
        let expected = (4.0f32 + 9.0 + 1.0).sqrt();
        assert!((g.get(4, 4, 4) - expected).abs() < 1e-4);
        assert_eq!(g.dims(), v.dims());
    }

    #[test]
    fn norm_and_normalize() {
        assert!((norm3([3.0, 4.0, 0.0]) - 5.0).abs() < 1e-6);
        let n = normalize3([0.0, 0.0, 2.0]);
        assert_eq!(n, [0.0, 0.0, 1.0]);
        assert_eq!(normalize3([0.0; 3]), [0.0; 3]);
    }

    /// `trilinear` and `gradient_trilinear` as they stood before the
    /// [`Sampler`]: clamp, `floor` and fraction per axis per call, seven
    /// independent calls per value-and-gradient. Kept verbatim as the
    /// byte-identity oracle.
    mod oracle {
        use crate::volume::ScalarVolume;

        pub fn trilinear(vol: &ScalarVolume, x: f32, y: f32, z: f32) -> f32 {
            let d = vol.dims();
            let cx = x.clamp(0.0, (d.nx - 1) as f32);
            let cy = y.clamp(0.0, (d.ny - 1) as f32);
            let cz = z.clamp(0.0, (d.nz - 1) as f32);

            let x0 = cx.floor() as usize;
            let y0 = cy.floor() as usize;
            let z0 = cz.floor() as usize;
            let x1 = (x0 + 1).min(d.nx - 1);
            let y1 = (y0 + 1).min(d.ny - 1);
            let z1 = (z0 + 1).min(d.nz - 1);

            let fx = cx - x0 as f32;
            let fy = cy - y0 as f32;
            let fz = cz - z0 as f32;

            let v000 = *vol.get(x0, y0, z0);
            let v100 = *vol.get(x1, y0, z0);
            let v010 = *vol.get(x0, y1, z0);
            let v110 = *vol.get(x1, y1, z0);
            let v001 = *vol.get(x0, y0, z1);
            let v101 = *vol.get(x1, y0, z1);
            let v011 = *vol.get(x0, y1, z1);
            let v111 = *vol.get(x1, y1, z1);

            let c00 = v000 + (v100 - v000) * fx;
            let c10 = v010 + (v110 - v010) * fx;
            let c01 = v001 + (v101 - v001) * fx;
            let c11 = v011 + (v111 - v011) * fx;

            let c0 = c00 + (c10 - c00) * fy;
            let c1 = c01 + (c11 - c01) * fy;

            c0 + (c1 - c0) * fz
        }

        pub fn gradient_trilinear(vol: &ScalarVolume, x: f32, y: f32, z: f32) -> [f32; 3] {
            let h = 0.5;
            [
                (trilinear(vol, x + h, y, z) - trilinear(vol, x - h, y, z)) / (2.0 * h),
                (trilinear(vol, x, y + h, z) - trilinear(vol, x, y - h, z)) / (2.0 * h),
                (trilinear(vol, x, y, z + h) - trilinear(vol, x, y, z - h)) / (2.0 * h),
            ]
        }
    }

    /// A coordinate on an axis of `n` voxels: uniform in `[-2, n+1]`, or
    /// exactly an integer, `n-1`, a half-integer, or just inside an edge.
    fn coord(n: usize) -> impl Strategy<Value = f32> {
        let top = n as f32 - 1.0;
        prop_oneof![
            (0.0f32..1.0).prop_map(move |u| -2.0 + u * (top + 3.0)),
            (0usize..n).prop_map(|i| i as f32),
            Just(top),
            (0usize..n).prop_map(|i| i as f32 + 0.5),
            prop_oneof![
                Just(-0.0f32),
                Just(ulps_around(top)[0]),
                Just(ulps_around(top)[1])
            ],
        ]
    }

    /// The neighbours of `top >= 0` one ulp below and above.
    fn ulps_around(top: f32) -> [f32; 2] {
        if top == 0.0 {
            [-f32::from_bits(1), f32::from_bits(1)]
        } else {
            [
                f32::from_bits(top.to_bits() - 1),
                f32::from_bits(top.to_bits() + 1),
            ]
        }
    }

    /// Arbitrary non-cubic dims with voxel values in [-10, 10].
    fn sampled_volume() -> impl Strategy<Value = ScalarVolume> {
        (1usize..9, 1usize..9, 1usize..9).prop_flat_map(|(x, y, z)| {
            let d = Dims3::new(x, y, z);
            proptest::collection::vec(-10.0f32..10.0, d.len())
                .prop_map(move |data| ScalarVolume::from_vec(d, data))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn sampler_is_bit_identical_to_the_oracle(
            (vol, pts) in sampled_volume().prop_flat_map(|vol| {
                let d = vol.dims();
                let pts = proptest::collection::vec((coord(d.nx), coord(d.ny), coord(d.nz)), 16);
                (Just(vol), pts)
            })
        ) {
            let s = Sampler::new(&vol);
            for (x, y, z) in pts {
                let want = oracle::trilinear(&vol, x, y, z);
                let want_g = oracle::gradient_trilinear(&vol, x, y, z);
                let (got, got_g) = s.value_and_gradient(x, y, z);
                prop_assert_eq!(s.value(x, y, z).to_bits(), want.to_bits());
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(trilinear(&vol, x, y, z).to_bits(), want.to_bits());
                prop_assert_eq!(got_g.map(f32::to_bits), want_g.map(f32::to_bits));
            }
        }
    }
}
