//! Bench + ablation: sparse envelope Cholesky with and without the RCM
//! ordering, on power-grid matrices of growing size. Testkit timer, JSON
//! report in `results/bench_sparse_cholesky.json`.
//!
//! DESIGN.md calls this ablation out: the envelope factorization cost is
//! quadratic in the profile, so the ordering is what makes the transient
//! engine's factor-once strategy viable.

use voltsense::sparse::{CsrMatrix, EnvelopeCholesky, TripletMatrix};
use voltsense_testkit::bench::BenchTimer;

/// Grid Laplacian with pads, numbered row-major across the *long* axis —
/// the worst natural ordering.
fn grid_matrix(w: usize, h: usize) -> CsrMatrix {
    let n = w * h;
    let mut t = TripletMatrix::new(n, n);
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                t.stamp_conductance(i, i + 1, 8.0);
            }
            if y + 1 < h {
                t.stamp_conductance(i, i + w, 8.0);
            }
            if x % 8 == 4 && y % 8 == 4 {
                t.stamp_grounded_conductance(i, 1.2);
            }
        }
    }
    t.to_csr()
}

fn main() {
    let mut timer = BenchTimer::new("sparse_cholesky");
    for &(w, h) in &[(40usize, 20usize), (71, 32), (100, 50)] {
        let a = grid_matrix(w, h);
        timer.bench(&format!("factor_rcm/{w}x{h}"), || {
            EnvelopeCholesky::factor(&a).expect("factor").profile_len()
        });
        timer.bench(&format!("factor_natural/{w}x{h}"), || {
            EnvelopeCholesky::factor_natural(&a)
                .expect("factor")
                .profile_len()
        });
    }

    // The per-timestep cost: one triangular solve on the factored matrix.
    let a = grid_matrix(71, 32);
    let chol = EnvelopeCholesky::factor(&a).expect("factor");
    let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut x = vec![0.0; a.rows()];
    let mut scratch = vec![0.0; a.rows()];
    timer.bench("solve/71x32", || {
        chol.solve_into(&b, &mut x, &mut scratch).expect("solve");
        x[0]
    });

    timer.finish().expect("write bench report");
}
