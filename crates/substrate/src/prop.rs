//! Minimal property-based testing on the deterministic [`crate::Rng`].
//!
//! The [`properties!`](crate::properties) macro expands each property into a
//! `#[test]` that runs the body [`cases`]`()` times, each case with an
//! independent, *reproducible* RNG substream derived from the property name
//! and case index. On failure the harness reports the case index and seed
//! before re-raising the panic, so a failing case can be replayed with
//! `Rng::new(seed)` in isolation.
//!
//! Generators are plain functions over `&mut Rng` — no strategy types, no
//! shrinking. Simulation inputs here are small enough that reading the
//! failing case's generated values from the assert message is workable.

pub use crate::rng::Rng;

/// Default number of cases per property (override with `VPP_PROP_CASES`).
pub const DEFAULT_CASES: usize = 64;

/// Cases per property: `VPP_PROP_CASES` if set and parseable, else
/// [`DEFAULT_CASES`].
#[must_use]
pub fn cases() -> usize {
    std::env::var("VPP_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CASES)
}

/// Stable 64-bit FNV-1a hash of the property name, used to salt the
/// per-case seeds so distinct properties draw distinct streams.
#[must_use]
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed of case `i` of property `name`.
#[must_use]
pub fn case_seed(name: &str, i: usize) -> u64 {
    name_hash(name).wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run a property `cases` times. On a failing case, report its index and
/// seed to stderr and re-raise the panic.
pub fn run<F: Fn(&mut Rng)>(name: &str, cases: usize, f: F) {
    for i in 0..cases {
        let seed = case_seed(name, i);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            f(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property '{name}' failed on case {i}/{cases} (Rng seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Expand property bodies into `#[test]` functions driven by [`run`].
///
/// ```
/// vpp_substrate::properties! {
///     fn addition_commutes(rng) {
///         let (a, b) = (rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6));
///         assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! properties {
    ($( $(#[$meta:meta])* fn $name:ident($rng:ident) $body:block )+) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                $crate::prop::run(stringify!($name), $crate::prop::cases(), |$rng| $body);
            }
        )+
    };
}

/// Skip the rest of the current case when a precondition fails (the
/// in-tree analogue of proptest's `prop_assume!`). Must be used directly
/// inside a [`properties!`](crate::properties) body.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        // Expanded as `if…else` rather than `if !…` so float preconditions
        // like `x > 0.0` don't trip `clippy::neg_cmp_op_on_partial_ord`
        // at every call site.
        if $cond {
        } else {
            return;
        }
    };
}

/// Uniform integer in `[lo, hi)` (half-open, like range strategies).
#[must_use]
pub fn usize_in(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    assert!(lo < hi, "empty range {lo}..{hi}");
    lo + rng.index(hi - lo)
}

/// Vector of `len in len_lo..len_hi` uniform floats drawn from `[lo, hi)`.
#[must_use]
pub fn vec_f64(rng: &mut Rng, lo: f64, hi: f64, len_lo: usize, len_hi: usize) -> Vec<f64> {
    let n = usize_in(rng, len_lo, len_hi);
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

/// Vector of `(duration, watts)` pairs — the trace-segment generator shared
/// by the cross-crate property suites.
#[must_use]
pub fn segments(rng: &mut Rng, len_lo: usize, len_hi: usize) -> Vec<(f64, f64)> {
    let n = usize_in(rng, len_lo, len_hi);
    (0..n)
        .map(|_| (rng.uniform(0.01, 5.0), rng.uniform(0.0, 2500.0)))
        .collect()
}

/// Printable-ASCII string (the `[ -~]` class), `len in 0..max_len`.
#[must_use]
pub fn printable_string(rng: &mut Rng, max_len: usize) -> String {
    let n = rng.index(max_len + 1);
    (0..n)
        .map(|_| char::from(b' ' + rng.index(95) as u8))
        .collect()
}

/// Uppercase-letter string with `len in len_lo..len_hi` (the `[A-Z]{a,b}`
/// class used by the tag fuzzers).
#[must_use]
pub fn upper_string(rng: &mut Rng, len_lo: usize, len_hi: usize) -> String {
    let n = usize_in(rng, len_lo, len_hi);
    (0..n).map(|_| char::from(b'A' + rng.index(26) as u8)).collect()
}

/// Arbitrary string of `len in 0..max_len` chars: mostly printable ASCII,
/// salted with newlines, tabs, NULs and multi-byte unicode so parsers see
/// hostile input.
#[must_use]
pub fn any_string(rng: &mut Rng, max_len: usize) -> String {
    let n = rng.index(max_len + 1);
    (0..n)
        .map(|_| match rng.index(10) {
            0 => '\n',
            1 => *['\t', '\r', '\0', '\x1b'].get(rng.index(4)).unwrap(),
            2 => char::from_u32(rng.next_u64() as u32 % 0xD7FF).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + rng.index(95) as u8),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        assert_eq!(case_seed("p", 0), case_seed("p", 0));
        assert_ne!(case_seed("p", 0), case_seed("p", 1));
        assert_ne!(case_seed("p", 0), case_seed("q", 0));
    }

    #[test]
    fn run_executes_every_case_with_distinct_streams() {
        let mut firsts = Vec::new();
        let firsts_ptr = std::sync::Mutex::new(&mut firsts);
        run("stream_check", 16, |rng| {
            firsts_ptr.lock().unwrap().push(rng.next_u64());
        });
        assert_eq!(firsts.len(), 16);
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 16, "cases must not share streams");
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failing_cases_propagate() {
        run("always_fails", 4, |_| panic!("deliberate"));
    }

    #[test]
    fn generators_respect_bounds() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let x = usize_in(&mut rng, 3, 9);
            assert!((3..9).contains(&x));
        }
        let v = vec_f64(&mut rng, -1.0, 1.0, 2, 10);
        assert!((2..10).contains(&v.len()));
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        let s = printable_string(&mut rng, 40);
        assert!(s.len() <= 40);
        assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        let u = upper_string(&mut rng, 2, 12);
        assert!((2..12).contains(&u.len()));
        assert!(u.chars().all(|c| c.is_ascii_uppercase()));
    }

    properties! {
        fn the_macro_itself_works(rng) {
            let x = rng.uniform(0.0, 1.0);
            prop_assume!(x > 0.000_001);
            assert!(x.ln() < 0.0);
        }
    }
}
