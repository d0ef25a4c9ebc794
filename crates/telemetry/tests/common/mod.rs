//! Random RAII-nested span programs, shared by the recorder suites.

use voltsense_telemetry::Span;

/// A random nested span program of depth at most 5: `true` opens a span,
/// `false` closes the innermost open one.
pub fn span_program(seed: u64, len: usize) -> Vec<bool> {
    let mut state = seed;
    let mut depth = 0;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let open = depth == 0 || (depth < 5 && (state >> 33).is_multiple_of(2));
            if open {
                depth += 1;
            } else {
                depth -= 1;
            }
            open
        })
        .collect()
}

/// Runs `program` through the free functions, naming the span opened at
/// step `i` and nesting depth `d` `name(i, d)`. Returns the spans still
/// open, innermost last, and the per-thread-stack oracle: each span's name
/// and its parent's index among this run's spans.
#[allow(clippy::type_complexity)]
pub fn run_span_program(
    program: &[bool],
    name: impl Fn(usize, usize) -> &'static str,
) -> (Vec<Span>, Vec<(&'static str, Option<usize>)>) {
    let mut open: Vec<(Span, usize)> = Vec::new();
    let mut oracle = Vec::new();
    for (step, &op) in program.iter().enumerate() {
        if op {
            let name = name(step, open.len());
            oracle.push((name, open.last().map(|&(_, i)| i)));
            open.push((voltsense_telemetry::span(name), oracle.len() - 1));
        } else {
            open.pop();
        }
    }
    (open.into_iter().map(|(span, _)| span).collect(), oracle)
}

pub fn close_innermost_first(mut open: Vec<Span>) {
    while open.pop().is_some() {}
}
