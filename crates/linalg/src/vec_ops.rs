//! Small dense kernels on `&[f64]` slices.
//!
//! Helpers for code that works on flat slices rather than
//! [`crate::Matrix`] values.

/// Dot product of two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (l2) norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// l1 norm (sum of absolute values).
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Infinity norm (largest absolute value), 0 for an empty slice.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place: `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Element-wise difference `a - b` into a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms_known() {
        let v = [3.0, -4.0];
        assert!((norm2(&v) - 5.0).abs() < 1e-15);
        assert!((norm1(&v) - 7.0).abs() < 1e-15);
        assert!((norm_inf(&v) - 4.0).abs() < 1e-15);
    }

    #[test]
    fn norm_inf_empty_is_zero() {
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn sub_known() {
        assert_eq!(sub(&[5.0, 7.0], &[2.0, 3.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn mean_known_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
