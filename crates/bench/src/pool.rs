//! A small worker pool for running independent, deterministic simulations
//! in parallel (the figure sweeps are embarrassingly parallel).

use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Worker count: the `SMARTDS_THREADS` env override when set to a positive
/// integer, otherwise `available_parallelism`. The override pins the pool
/// width so perf-harness wall-clock numbers are comparable across runs and
/// machines (`SMARTDS_THREADS=1` removes scheduling noise entirely).
fn worker_count() -> usize {
    std::env::var("SMARTDS_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
}

/// Runs `job` over every item of `inputs` on up to `worker_count()`
/// worker threads, returning outputs in input order.
///
/// Each job must be independent and deterministic; the sweeps satisfy this
/// because every simulation owns its world and RNG.
pub fn run_parallel<I, O, F>(inputs: Vec<I>, job: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    run_parallel_n(inputs, worker_count(), job)
}

/// [`run_parallel`] with an explicit worker count instead of the
/// `SMARTDS_THREADS` / `available_parallelism` default.
///
/// The perf harness uses this to pin its thread-count sweep: each measured
/// point must use exactly `workers` threads regardless of the environment.
pub fn run_parallel_n<I, O, F>(inputs: Vec<I>, workers: usize, job: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    // std::sync::mpsc receivers are single-consumer; a Mutex turns the work
    // queue into the multi-consumer channel crossbeam used to provide.
    let (in_tx, in_rx) = mpsc::channel::<(usize, I)>();
    let in_rx = Mutex::new(in_rx);
    let (out_tx, out_rx) = mpsc::channel::<(usize, O)>();
    for (i, item) in inputs.into_iter().enumerate() {
        in_tx.send((i, item)).expect("queue open");
    }
    drop(in_tx);
    let job = &job;
    let in_rx = &in_rx;
    // simlint: allow(shared-mutable, reason = "host-side bench worker pool: parallelizes whole independent simulations, never reaches inside one")
    thread::scope(|s| {
        for _ in 0..workers {
            let out_tx = out_tx.clone();
            s.spawn(move || loop {
                // Hold the lock only for the dequeue, not the job.
                let next = in_rx.lock().expect("queue lock").recv();
                match next {
                    Ok((i, item)) => {
                        let out = job(&item);
                        out_tx.send((i, out)).expect("collector open");
                    }
                    Err(_) => break,
                }
            });
        }
        drop(out_tx);
        let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
        while let Ok((i, out)) = out_rx.recv() {
            slots[i] = Some(out);
        }
        slots.into_iter().map(|s| s.expect("job finished")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_keep_input_order() {
        let inputs: Vec<u64> = (0..64).collect();
        let outputs = run_parallel(inputs.clone(), |&x| x * x);
        assert_eq!(outputs, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let outputs: Vec<u32> = run_parallel(Vec::<u32>::new(), |&x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn thread_override_is_honored() {
        // Env mutation is process-global: restore whatever was set so this
        // test composes with a caller-pinned SMARTDS_THREADS.
        let prev = std::env::var("SMARTDS_THREADS").ok();
        std::env::set_var("SMARTDS_THREADS", "2");
        assert_eq!(worker_count(), 2);
        std::env::set_var("SMARTDS_THREADS", "0");
        assert!(worker_count() >= 1, "zero falls back to autodetect");
        std::env::set_var("SMARTDS_THREADS", "not-a-number");
        assert!(worker_count() >= 1, "garbage falls back to autodetect");
        match prev {
            Some(v) => std::env::set_var("SMARTDS_THREADS", v),
            None => std::env::remove_var("SMARTDS_THREADS"),
        }
    }

    #[test]
    fn more_inputs_than_workers() {
        let inputs: Vec<u64> = (0..500).collect();
        let outputs = run_parallel(inputs, |&x| x + 1);
        assert_eq!(outputs.len(), 500);
        assert_eq!(outputs[499], 500);
    }

    #[test]
    fn explicit_worker_count_is_deterministic() {
        let inputs: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = inputs.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 5, 16] {
            let outputs = run_parallel_n(inputs.clone(), workers, |&x| x * 3);
            assert_eq!(outputs, expect, "workers={workers}");
        }
        // Zero clamps to one worker rather than deadlocking.
        let outputs = run_parallel_n(vec![7u64], 0, |&x| x);
        assert_eq!(outputs, vec![7]);
    }
}
