//! The workspace's one `sigmoid` and one `tanh`, in `f32` multiply-then-add.
//!
//! A GHN node update applies 64 sigmoids and 32 tanhs to rows it has just
//! computed; through libm that was 96 scalar calls costing more than the
//! update's ten row products. This module replaces them with the Cephes
//! single-precision algorithms, written twice with the same operation
//! sequence: a scalar function, and an 8-lane AVX2 row kernel.
//!
//! * `exp(x)`: clamp `x` to [−87, 88] (where `2ⁿ` below is a normal
//!   number), `n = round(x·log₂e)` by adding and subtracting 1.5·2²³,
//!   `r = x − n·ln2_hi − n·ln2_lo` with |r| ≤ ½·ln 2, a degree-5
//!   polynomial in `r`, and the scale by `2ⁿ` written straight into the
//!   exponent bits.
//! * `sigmoid(x) = 1 / (1 + exp(−x))`.
//! * `tanh(x)` on `|x|`, the sign copied back: below 0.625 the odd
//!   polynomial `|x| + |x|³·P(x²)` (`P` of degree 4), above it
//!   `1 − 2 / (exp(2|x|) + 1)`.
//!
//! Every step is one IEEE operation — a multiply, an add, a divide, a
//! compare-and-select or an integer shift — and a multiply-add is never
//! fused, so the row kernel equals the scalar function **bit for bit** on
//! every input, and every backend computes the same activation. (The row
//! *products* in front of it still differ between backends by FMA rounding;
//! see [`crate::kernels`].) Fusing would save a few cycles per lane and cost
//! that identity: the scalar fallback, NEON and the remainder lanes of the
//! AVX2 kernel would each round differently.
//!
//! Absolute error against the `f64` formulas is below 2e-7 everywhere
//! (measured: 8.9e-8 sigmoid, 6.6e-8 tanh); the unit tests pin it.

/// `exp` argument range: `n ∈ [−126, 127]`, so `2ⁿ` is a normal number.
const EXP_LO: f32 = -87.0;
const EXP_HI: f32 = 88.0;
/// Adding then subtracting 1.5·2²³ rounds to the nearest integer (ties to
/// even): at that magnitude one ulp is 1.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` in two pieces. The high one (0.693359375) has nine significant
/// bits, so `n·LN2_HI` is exact for every `n` in range.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -0.000_212_194_44;
/// `exp(r) ≈ 1 + r + r²·P(r)`, highest power first.
const EXP_POLY: [f32; 6] = [
    0.000_198_756_91,
    0.001_398_199_9,
    0.008_333_452,
    0.041_665_796,
    0.166_666_66,
    0.5,
];
/// `tanh(a) ≈ a + a³·P(a²)` for `a < TANH_SMALL`, highest power first.
const TANH_POLY: [f32; 5] = [
    -0.005_704_988_7,
    0.020_639_088,
    -0.053_739_715,
    0.133_314_42,
    -0.333_332_8,
];
const TANH_SMALL: f32 = 0.625;
const ONE_BITS: u32 = 0x3F80_0000;
const SIGN_BIT: u32 = 0x8000_0000;

/// `exp(x)` with `x` clamped to [[`EXP_LO`], [`EXP_HI`]]; NaN stays NaN.
#[inline]
fn exp(x: f32) -> f32 {
    // The selects `_mm256_max_ps(lo, x)` / `_mm256_min_ps(hi, x)` perform:
    // a NaN fails both comparisons and passes through. (`f32::max` would
    // return the bound.)
    let x = if EXP_LO > x { EXP_LO } else { x };
    let x = if EXP_HI < x { EXP_HI } else { x };
    let t = x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = p * (r * r) + r + 1.0;
    // The low mantissa bits of `t` are `n` in two's complement; shifted
    // into the exponent field and biased, they are the bits of `2ⁿ`.
    y * f32::from_bits((t.to_bits() << 23).wrapping_add(ONE_BITS))
}

/// Logistic sigmoid. `sigmoid(0) == 0.5`; every finite input maps into
/// [0, 1]; NaN maps to NaN.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Hyperbolic tangent. Odd by bits (`tanh(−x)` is `−tanh(x)`, `tanh(±0)`
/// is `±0`); every finite input maps into [−1, 1]; NaN maps to NaN.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = f32::from_bits(x.to_bits() & !SIGN_BIT);
    let y = if a < TANH_SMALL {
        let z = a * a;
        let mut p = TANH_POLY[0];
        for &c in &TANH_POLY[1..] {
            p = p * z + c;
        }
        p * z * a + a
    } else {
        1.0 - 2.0 / (exp(a + a) + 1.0)
    };
    f32::from_bits(y.to_bits() | (x.to_bits() & SIGN_BIT))
}

/// [`sigmoid`] over a row, element by element: the scalar and NEON
/// backends' row kernel.
pub(crate) fn sigmoid_row(row: &mut [f32]) {
    for x in row {
        *x = sigmoid(*x);
    }
}

/// [`tanh`] over a row, element by element.
pub(crate) fn tanh_row(row: &mut [f32]) {
    for x in row {
        *x = tanh(*x);
    }
}

/// The same operation sequences, eight lanes at a time. Safe
/// `#[target_feature]` functions: only a caller that has not itself enabled
/// avx2 needs `unsafe` (and a reason) to call the two row kernels.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp8(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_set1_ps(EXP_LO), x);
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_HI), x);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let t = _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            magic,
        );
        let n = _mm256_sub_ps(t, magic);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)),
        );
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0),
        );
        let scale = _mm256_add_epi32(
            _mm256_slli_epi32::<23>(_mm256_castps_si256(t)),
            _mm256_set1_epi32(ONE_BITS as i32),
        );
        _mm256_mul_ps(y, _mm256_castsi256_ps(scale))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn sigmoid8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let neg_x = _mm256_xor_ps(x, _mm256_set1_ps(-0.0));
        _mm256_div_ps(one, _mm256_add_ps(one, exp8(neg_x)))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh8(x: __m256) -> __m256 {
        let sign_bit = _mm256_set1_ps(-0.0);
        let a = _mm256_andnot_ps(sign_bit, x);
        let z = _mm256_mul_ps(a, a);
        let mut p = _mm256_set1_ps(TANH_POLY[0]);
        for &c in &TANH_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(c));
        }
        let small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, z), a), a);
        let one = _mm256_set1_ps(1.0);
        let large = _mm256_sub_ps(
            one,
            _mm256_div_ps(
                _mm256_set1_ps(2.0),
                _mm256_add_ps(exp8(_mm256_add_ps(a, a)), one),
            ),
        );
        // Ordered `<`: false for NaN, which then takes the `exp` branch as
        // in the scalar function.
        let is_small = _mm256_cmp_ps::<_CMP_LT_OQ>(a, _mm256_set1_ps(TANH_SMALL));
        let y = _mm256_blendv_ps(large, small, is_small);
        _mm256_or_ps(y, _mm256_and_ps(sign_bit, x))
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn sigmoid_row(row: &mut [f32]) {
        let mut lanes = row.chunks_exact_mut(8);
        for lane in &mut lanes {
            // SAFETY: `lane` is exactly eight contiguous `f32`s.
            unsafe {
                _mm256_storeu_ps(lane.as_mut_ptr(), sigmoid8(_mm256_loadu_ps(lane.as_ptr())))
            };
        }
        super::sigmoid_row(lanes.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn tanh_row(row: &mut [f32]) {
        let mut lanes = row.chunks_exact_mut(8);
        for lane in &mut lanes {
            // SAFETY: `lane` is exactly eight contiguous `f32`s.
            unsafe { _mm256_storeu_ps(lane.as_mut_ptr(), tanh8(_mm256_loadu_ps(lane.as_ptr()))) };
        }
        super::tanh_row(lanes.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::{sigmoid, tanh};
    use crate::gemm::Activation;

    /// A dense sweep of [−30, 30] plus the edges of every branch: the tanh
    /// switch, the `exp` clamp, subnormals, zeros and infinities.
    fn probes() -> Vec<f32> {
        let mut xs: Vec<f32> = (-120_000..=120_000).map(|i| i as f32 * 2.5e-4).collect();
        for a in [
            0.0f32,
            0.625,
            87.0,
            88.0,
            100.0,
            1e-20,
            f32::MIN_POSITIVE,
            1e-40,
            1e-45,
            f32::MAX,
            f32::INFINITY,
        ] {
            for x in [a, -a] {
                // Each edge with its two neighbours.
                xs.extend([
                    x,
                    f32::from_bits(x.to_bits().wrapping_sub(1)),
                    f32::from_bits(x.to_bits() + 1),
                ]);
            }
        }
        xs.retain(|x| !x.is_nan());
        xs
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs under both CI lanes: native dispatch and `PDDL_FORCE_SCALAR=1`.
    #[test]
    fn row_kernels_equal_the_scalar_functions_bit_for_bit_at_every_row_length() {
        let xs = probes();
        for (act, scalar) in [
            (Activation::Sigmoid, sigmoid as fn(f32) -> f32),
            (Activation::Tanh, tanh),
        ] {
            // Row lengths 1..=17 put every probe in every lane and in the
            // lane remainder.
            for len in 1..=17 {
                for chunk in xs.chunks(len) {
                    let mut row = chunk.to_vec();
                    act.apply_row(&mut row);
                    let want: Vec<f32> = chunk.iter().map(|&x| scalar(x)).collect();
                    assert_eq!(bits(&row), bits(&want), "{act:?} on {chunk:?}");
                    assert_eq!(
                        bits(&want),
                        bits(&chunk.iter().map(|&x| act.apply(x)).collect::<Vec<_>>())
                    );
                }
            }
        }
    }

    #[test]
    fn absolute_error_against_f64_is_below_2e_7() {
        let (mut worst_sigmoid, mut worst_tanh) = (0.0f64, 0.0f64);
        for x in probes() {
            let x64 = f64::from(x);
            worst_sigmoid =
                worst_sigmoid.max((f64::from(sigmoid(x)) - 1.0 / (1.0 + (-x64).exp())).abs());
            worst_tanh = worst_tanh.max((f64::from(tanh(x)) - x64.tanh()).abs());
        }
        println!("worst absolute error: sigmoid {worst_sigmoid:.2e}, tanh {worst_tanh:.2e}");
        assert!(worst_sigmoid <= 2e-7, "sigmoid off by {worst_sigmoid}");
        assert!(worst_tanh <= 2e-7, "tanh off by {worst_tanh}");
    }

    #[test]
    fn fixed_points_symmetry_and_range() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(
            (sigmoid(f32::INFINITY), sigmoid(f32::NEG_INFINITY) < 1e-37),
            (1.0, true)
        );
        assert_eq!((tanh(f32::INFINITY), tanh(f32::NEG_INFINITY)), (1.0, -1.0));
        for x in probes() {
            let (s, t) = (sigmoid(x), tanh(x));
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
            assert!((-1.0..=1.0).contains(&t), "tanh({x}) = {t}");
            assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh is odd at {x}");
        }
    }

    #[test]
    fn nan_stays_nan_on_both_paths() {
        for nan in [f32::NAN, -f32::NAN] {
            assert!(sigmoid(nan).is_nan() && tanh(nan).is_nan());
            for act in [Activation::Sigmoid, Activation::Tanh] {
                // Nine wide: the NaN passes through a full lane and the
                // remainder, and poisons neither neighbour.
                for at in 0..9 {
                    let mut row = [0.25f32; 9];
                    row[at] = nan;
                    act.apply_row(&mut row);
                    for (i, y) in row.iter().enumerate() {
                        assert_eq!(
                            y.is_nan(),
                            i == at,
                            "{act:?}: NaN at {at}, lane {i} reads {y}"
                        );
                    }
                }
            }
        }
    }
}
