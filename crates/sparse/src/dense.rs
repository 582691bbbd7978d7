//! Dense vector helpers used throughout the solvers.
//!
//! Model weights, shared vectors, and labels are dense `f32` slices; these
//! helpers centralize the inner products and norms that appear in the update
//! rules, the objectives, and the adaptive-aggregation closed form. All
//! reductions accumulate in `f64` — the duality-gap plots in the paper go
//! down to 1e-7, below single-precision accumulation noise at webspam scale.

/// Euclidean inner product ⟨a, b⟩ with `f64` accumulation.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64) * (y as f64))
        .sum()
}

/// Squared L2 norm ‖a‖² with `f64` accumulation.
#[inline]
pub fn squared_norm(a: &[f32]) -> f64 {
    a.iter().map(|&x| (x as f64) * (x as f64)).sum()
}

/// ‖a − b‖² with `f64` accumulation.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn squared_distance(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x as f64) - (y as f64);
            d * d
        })
        .sum()
}

/// `out[i] = a[i] - b[i]`, allocating the result.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// [`sub`] into a reusable buffer (cleared and refilled) — bit-identical
/// result, allocation-free once `out`'s capacity has grown.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn sub_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x - y));
}

/// `y[i] += alpha * x[i]` in place.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a vector in place: `x[i] *= alpha`.
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Maximum absolute difference between two vectors (L∞ distance).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [1.0f32, 2.0, -3.0];
        let b = [4.0f32, 0.5, 2.0];
        assert!((dot(&a, &b) - (4.0 + 1.0 - 6.0)).abs() < 1e-12);
        assert!((squared_norm(&a) - 14.0).abs() < 1e-12);
        assert!((squared_distance(&a, &b) - (9.0 + 2.25 + 25.0)).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0f32, -1.0];
        let mut y = [10.0f32, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 8.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 4.0]);
    }

    #[test]
    fn sub_and_linf() {
        let a = [1.0f32, 5.0];
        let b = [0.5f32, 7.0];
        assert_eq!(sub(&a, &b), vec![0.5, -2.0]);
        assert_eq!(max_abs_diff(&a, &b), 2.0);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn f64_accumulation_beats_f32() {
        // 1 + eps-sized values: naive f32 accumulation loses them entirely.
        let mut v = vec![1.0f32];
        v.extend(std::iter::repeat_n(1e-8f32, 1_000_000));
        let s = v.iter().map(|&x| x as f64).sum::<f64>();
        assert!((dot(&v, &vec![1.0f32; v.len()]) - s).abs() < 1e-9);
        assert!(dot(&v, &vec![1.0f32; v.len()]) > 1.009);
    }
}
