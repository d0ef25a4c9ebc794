//! Small dense kernels on `&[f64]` slices.
//!
//! Helpers for code that works on flat slices rather than
//! [`crate::Matrix`] values.

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
    fn mean_known_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
