//! The property runner: case loop, failure capture, shrinking, replay.

use crate::gen::Gen;
use crate::shrink::shrink;
use crate::source::Source;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// The fixed default base seed: runs are deterministic across machines and
/// invocations unless `TESTKIT_SEED` overrides a specific case.
pub const DEFAULT_SEED: u64 = 0x5eed_1e57_ba5e_ca5e;

/// Runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Maximum property evaluations spent shrinking one failure.
    pub shrink_budget: u32,
    /// Base seed; case `i` runs on a seed derived from it.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 128,
            shrink_budget: 4096,
            seed: DEFAULT_SEED,
        }
    }
}

impl Config {
    /// Overrides the number of cases.
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }
}

/// Derives the per-case seed from the base seed (SplitMix64 finalizer, so
/// neighbouring cases get unrelated streams).
fn case_seed(base: u64, case: u32) -> u64 {
    let mut z = base ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once) a panic hook that suppresses output while this thread is
/// evaluating a property. Shrinking runs the property hundreds of times;
/// without this, every failing attempt would print a backtrace.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Runs the property on one value, capturing a panic as `Some(message)`.
fn run_prop<V>(prop: &impl Fn(V), value: V) -> Option<String> {
    install_quiet_hook();
    let prev = QUIET.with(|q| q.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET.with(|q| q.set(prev));
    match result {
        Ok(()) => None,
        Err(payload) => Some(payload_message(payload.as_ref())),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Checks `prop` against `cfg.cases` values drawn from `gen`.
///
/// On failure the input is shrunk (replaying edited choice streams through
/// the same generator) and the run panics with the minimal counterexample,
/// the original failure, and the `TESTKIT_SEED` that replays the case.
///
/// Setting `TESTKIT_SEED=<seed>` (decimal or `0x…` hex) replays exactly one
/// case instead of the whole run.
///
/// # Panics
///
/// Panics if the property fails for any generated value.
pub fn forall<G: Gen>(cfg: &Config, gen: G, prop: impl Fn(G::Value)) {
    if let Some(seed) = seed_from_env() {
        run_case(cfg, &gen, &prop, seed, "TESTKIT_SEED replay");
        return;
    }
    for case in 0..cfg.cases {
        let seed = case_seed(cfg.seed, case);
        run_case(cfg, &gen, &prop, seed, &format!("case {case}"));
    }
}

fn seed_from_env() -> Option<u64> {
    let raw = std::env::var("TESTKIT_SEED").ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("unparseable TESTKIT_SEED: {raw:?}"),
    }
}

fn run_case<G: Gen>(
    cfg: &Config,
    gen: &G,
    prop: &impl Fn(G::Value),
    seed: u64,
    label: &str,
) {
    let mut log = Vec::new();
    let value = gen.sample(&mut Source::record(seed, &mut log));
    let Some(original_failure) = run_prop(prop, value) else {
        return;
    };

    // Reproduce the original value for the report before shrinking edits
    // the stream.
    let original = gen.sample(&mut Source::replay(&log));
    let minimal_stream = shrink(
        log,
        |stream| run_prop(prop, gen.sample(&mut Source::replay(stream))).is_some(),
        cfg.shrink_budget,
    );
    let minimal = gen.sample(&mut Source::replay(&minimal_stream));
    let minimal_failure =
        run_prop(prop, gen.sample(&mut Source::replay(&minimal_stream)))
            .unwrap_or_else(|| original_failure.clone());

    panic!(
        "property failed ({label}, seed {seed:#x})\n\
         minimal counterexample: {minimal:?}\n\
         failure: {minimal_failure}\n\
         original input: {original:?}\n\
         original failure: {original_failure}\n\
         replay with: TESTKIT_SEED={seed:#x} cargo test <this test>"
    );
}

/// Declares property tests.
///
/// ```ignore
/// testkit::prop! {
///     cases = 256;                       // optional, applies to all fns
///
///     fn roundtrip(data in gen::bytes(0..4096)) {
///         assert_eq!(decode(&encode(&data)), data);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]` that calls [`forall`] with the bindings
/// drawn as one tuple, so multi-argument properties shrink jointly.
#[macro_export]
macro_rules! prop {
    (@cfg $cfg:block) => {};
    (@cfg $cfg:block
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __cfg: $crate::Config = $cfg;
            $crate::forall(&__cfg, ($($gen,)+), move |($($arg,)+)| $body);
        }
        $crate::prop!(@cfg $cfg $($rest)*);
    };
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::prop!(@cfg { $crate::Config::default().with_cases($cases) } $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::prop!(@cfg { $crate::Config::default() } $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_is_silent() {
        forall(&Config::default(), gen::u64s(0..100), |v| {
            assert!(v < 100);
        });
    }

    #[test]
    fn failing_property_reports_minimal_counterexample() {
        install_quiet_hook();
        let prev = QUIET.with(|q| q.replace(true));
        let err = panic::catch_unwind(|| {
            forall(
                &Config::default(),
                gen::vecs(gen::u64s(0..1000), 0..64),
                |v| {
                    let total: u64 = v.iter().sum();
                    assert!(total < 700, "sum {total}");
                },
            );
        })
        .expect_err("property must fail");
        QUIET.with(|q| q.set(prev));
        let msg = super::payload_message(err.as_ref());
        assert!(msg.contains("minimal counterexample"), "{msg}");
        assert!(msg.contains("TESTKIT_SEED="), "{msg}");
        // The shrunk witness keeps failing, so its sum stays >= 700; a
        // one-element vector [x] with x < 1000 can't reach it, so the
        // minimum has >= 1 element — just check the shrink kept a witness.
        assert!(msg.contains("failure: sum"), "{msg}");
    }

    #[test]
    fn same_seed_same_cases() {
        let collect = || {
            let mut seen = Vec::new();
            let mut log = Vec::new();
            for case in 0..10 {
                log.clear();
                let seed = case_seed(DEFAULT_SEED, case);
                seen.push(gen::bytes(0..32).sample(&mut Source::record(seed, &mut log)));
            }
            seen
        };
        assert_eq!(collect(), collect());
    }

    prop! {
        cases = 32;

        /// The macro front-end compiles and runs: tuples destructure.
        fn macro_front_end(a in gen::u8s(1..=9), b in gen::vecs(gen::bools(), 0..4)) {
            assert!((1..=9).contains(&a));
            assert!(b.len() < 4);
        }
    }
}
