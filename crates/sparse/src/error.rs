use std::error::Error;
use std::fmt;

/// Error type for sparse-matrix construction and solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SparseError {
    /// An index was outside the matrix dimensions.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Matrix shape.
        shape: (usize, usize),
    },
    /// Operand shapes were incompatible.
    ShapeMismatch {
        /// Description of the failing operation.
        op: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// The matrix was expected to be square.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// Cholesky hit a non-positive pivot: the matrix is not positive
    /// definite (or is numerically indefinite).
    NotPositiveDefinite {
        /// Pivot index.
        index: usize,
        /// Pivot value.
        pivot: f64,
    },
    /// Input contained NaN or infinity.
    NonFinite {
        /// Description of the offending input.
        what: &'static str,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col, shape } => write!(
                f,
                "index ({row}, {col}) out of bounds for {}x{} matrix",
                shape.0, shape.1
            ),
            SparseError::ShapeMismatch { op, expected, actual } => {
                write!(f, "shape mismatch in {op}: expected {expected}, got {actual}")
            }
            SparseError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            SparseError::NotPositiveDefinite { index, pivot } => write!(
                f,
                "matrix is not positive definite: pivot {pivot:.3e} at index {index}"
            ),
            SparseError::NonFinite { what } => {
                write!(f, "non-finite value encountered in {what}")
            }
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let err = SparseError::IndexOutOfBounds {
            row: 5,
            col: 6,
            shape: (4, 4),
        };
        assert!(err.to_string().contains("(5, 6)"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
