//! FIFO multi-server queues for compute-style resources.
//!
//! A [`ServerPool`] models `k` identical servers (CPU cores, Arm cores,
//! engine contexts…) in front of a single FIFO queue — the classic M/G/k
//! station. Jobs have deterministic service times supplied by the caller;
//! contention produces queueing delay, which is where the paper's tail
//! latencies come from.
//!
//! Like [`FluidResource`](crate::FluidResource), the pool is passive: the
//! driver schedules a wakeup for each job-start the pool reports and calls
//! [`ServerPool::complete`] when the wakeup fires.
//!
//! # Examples
//!
//! ```
//! use simkit::{ServerPool, Time};
//!
//! let mut cpu = ServerPool::new("cores", 2);
//! // Three 1 µs jobs on two cores: two start now, one queues.
//! let s1 = cpu.submit(Time::ZERO, Time::from_us(1.0), 1).unwrap();
//! let s2 = cpu.submit(Time::ZERO, Time::from_us(1.0), 2).unwrap();
//! assert!(cpu.submit(Time::ZERO, Time::from_us(1.0), 3).is_none());
//! assert_eq!(s1.finish_at, Time::from_us(1.0));
//! // When job 1 finishes, job 3 starts.
//! let next = cpu.complete(s1.finish_at).unwrap();
//! assert_eq!(next.token, 3);
//! assert_eq!(next.finish_at, Time::from_us(2.0));
//! # let _ = s2;
//! ```

use crate::time::Time;
use std::collections::VecDeque;

/// A job admitted to service, to be completed at `finish_at`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct JobStart {
    /// Caller-supplied identity of the job.
    pub token: u64,
    /// Absolute time at which service finishes; the driver must call
    /// [`ServerPool::complete`] at this instant.
    pub finish_at: Time,
}

#[derive(Copy, Clone, Debug)]
struct Queued {
    token: u64,
    service: Time,
    arrived: Time,
}

/// `k` identical servers behind one FIFO queue.
#[derive(Debug)]
pub struct ServerPool {
    name: &'static str,
    servers: usize,
    busy: usize,
    queue: VecDeque<Queued>,
    /// Cumulative busy time across servers (for utilization reporting).
    busy_time: Time,
    /// Cumulative time jobs spent waiting in the queue.
    wait_time: Time,
    jobs_done: u64,
}

impl ServerPool {
    /// Creates a pool of `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(servers > 0, "server pool needs at least one server");
        ServerPool {
            name,
            servers,
            busy: 0,
            queue: VecDeque::new(),
            busy_time: Time::ZERO,
            wait_time: Time::ZERO,
            jobs_done: 0,
        }
    }

    /// The pool's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Servers currently serving a job.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Jobs waiting in the queue (excluding those in service).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Completed job count.
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done
    }

    /// Cumulative server busy time (divide by `servers × elapsed` for
    /// utilization).
    pub fn busy_time(&self) -> Time {
        self.busy_time
    }

    /// Cumulative queueing (pre-service) delay over all completed jobs.
    pub fn wait_time(&self) -> Time {
        self.wait_time
    }

    /// Submits a job needing `service` time. If a server is free the job
    /// starts immediately and its [`JobStart`] is returned; otherwise the job
    /// queues and `None` is returned (its start will be reported by a later
    /// [`ServerPool::complete`]).
    #[inline]
    pub fn submit(&mut self, now: Time, service: Time, token: u64) -> Option<JobStart> {
        if self.busy < self.servers {
            self.busy += 1;
            self.busy_time += service;
            Some(JobStart {
                token,
                finish_at: now + service,
            })
        } else {
            self.queue.push_back(Queued {
                token,
                service,
                arrived: now,
            });
            None
        }
    }

    /// Reports that a job in service finished at `now`, freeing its server.
    /// If a queued job exists, it enters service and its [`JobStart`] is
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if no job was in service.
    #[inline]
    pub fn complete(&mut self, now: Time) -> Option<JobStart> {
        assert!(self.busy > 0, "{}: complete() with no busy server", self.name);
        self.jobs_done += 1;
        match self.queue.pop_front() {
            Some(q) => {
                self.wait_time += now - q.arrived;
                self.busy_time += q.service;
                Some(JobStart {
                    token: q.token,
                    finish_at: now + q.service,
                })
            }
            None => {
                self.busy -= 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_queue_in_fifo_order() {
        let mut p = ServerPool::new("p", 1);
        let s1 = p.submit(Time::ZERO, Time::from_ns(10.0), 1).unwrap();
        assert!(p.submit(Time::ZERO, Time::from_ns(10.0), 2).is_none());
        assert!(p.submit(Time::ZERO, Time::from_ns(10.0), 3).is_none());
        assert_eq!(p.queued(), 2);
        let s2 = p.complete(s1.finish_at).unwrap();
        assert_eq!(s2.token, 2);
        let s3 = p.complete(s2.finish_at).unwrap();
        assert_eq!(s3.token, 3);
        assert_eq!(s3.finish_at, Time::from_ns(30.0));
        assert!(p.complete(s3.finish_at).is_none());
        assert_eq!(p.busy(), 0);
        assert_eq!(p.jobs_done(), 3);
    }

    #[test]
    fn parallel_servers_overlap() {
        let mut p = ServerPool::new("p", 4);
        for i in 0..4 {
            let s = p.submit(Time::ZERO, Time::from_us(1.0), i).unwrap();
            assert_eq!(s.finish_at, Time::from_us(1.0));
        }
        assert_eq!(p.busy(), 4);
        assert!(p.submit(Time::ZERO, Time::from_us(1.0), 9).is_none());
    }

    #[test]
    fn wait_time_accumulates() {
        let mut p = ServerPool::new("p", 1);
        let s1 = p.submit(Time::ZERO, Time::from_us(5.0), 1).unwrap();
        p.submit(Time::ZERO, Time::from_us(5.0), 2);
        p.complete(s1.finish_at);
        assert_eq!(p.wait_time(), Time::from_us(5.0));
        assert_eq!(p.busy_time(), Time::from_us(10.0));
    }

    #[test]
    #[should_panic(expected = "no busy server")]
    fn complete_on_idle_pool_panics() {
        let mut p = ServerPool::new("p", 1);
        p.complete(Time::ZERO);
    }
}
