//! Zero-allocation gates for the hot dense kernels.
//!
//! Each gate pins the contract that the `_into` variants of the blocked
//! kernels allocate nothing at steady state when run serially (the
//! parallel paths allocate their block descriptors by design; the gates
//! force the inline path with `with_threads(1)`). A regression that
//! sneaks a `Vec` or a temporary `Matrix` into the inner loops fails
//! these tests with a per-iteration allocation count.

voltsense_telemetry::install_counting_allocator!();

use voltsense_linalg::Matrix;
use voltsense_parallel::with_threads;
use voltsense_telemetry::alloc_gate;

/// Deterministic dense test matrix: no RNG, values well-scaled so the
/// kernels exercise their fused loops without overflow.
fn filled(rows: usize, cols: usize, seed: f64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = ((i * cols + j) as f64).sin() * 0.5 + seed;
        }
    }
    m
}

#[test]
fn matmul_into_is_alloc_free_serial() {
    with_threads(1, || {
        let a = filled(24, 16, 0.1);
        let b = filled(16, 12, -0.2);
        let mut out = Matrix::zeros(24, 12);
        alloc_gate!("linalg.matmul_into", 16, || {
            a.matmul_into(&b, &mut out).unwrap();
        });
    });
}

#[test]
fn gram_into_is_alloc_free_serial() {
    with_threads(1, || {
        let a = filled(20, 14, 0.3);
        let mut out = Matrix::zeros(20, 20);
        alloc_gate!("linalg.gram_into", 16, || {
            a.gram_into(&mut out).unwrap();
        });
    });
}

#[test]
fn matmul_t_into_is_alloc_free_serial() {
    with_threads(1, || {
        // Ragged on purpose: 18 × 14 rows leave partial tiles and a lane tail.
        let a = filled(18, 23, 0.2);
        let b = filled(14, 23, -0.3);
        let mut out = Matrix::zeros(18, 14);
        alloc_gate!("linalg.matmul_t_into", 16, || {
            a.matmul_t_into(&b, &mut out).unwrap();
        });
    });
}

#[test]
fn matvec_into_is_alloc_free() {
    with_threads(1, || {
        let a = filled(32, 24, -0.1);
        let v: Vec<f64> = (0..24).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let mut out = vec![0.0; 32];
        alloc_gate!("linalg.matvec_into", 32, || {
            a.matvec_into(&v, &mut out).unwrap();
        });
    });
}

#[test]
fn vecmat_into_is_alloc_free() {
    let a = filled(24, 32, 0.3);
    let v: Vec<f64> = (0..24).map(|i| (i as f64) * 0.25 - 3.0).collect();
    let mut out = vec![0.0; 32];
    // Serial by construction: no `with_threads` needed.
    alloc_gate!("linalg.vecmat_into", 32, || {
        a.vecmat_into(&v, &mut out).unwrap();
    });
}
