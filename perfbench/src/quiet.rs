//! Measuring around the host's interference.
//!
//! On a shared virtual machine the hypervisor now and then runs other
//! guests on this guest's CPUs (steal time, `/proc/stat`).  On the 2-vCPU
//! host this benchmark was built on, periods of ~5% steal came and went
//! over tens of seconds and, while they lasted, moved serve-64x's p90 from
//! ~27 µs to 300–550 µs: the measurement showed the host, not the program.
//! So every timed sample (a job with its set-ups, or one second of an
//! open-loop schedule) records the steal it suffered.  A sample during
//! which more than 1% of the CPU time was stolen is set aside and the run
//! measures on, until it holds `--seconds` of quiet samples or has spent
//! twice that; it then reports over its quiet samples, topped up with the
//! least-stolen others when the quiet ones fall short.  The run metadata
//! carries how many samples were quiet and how many were reported.

use std::time::{Duration, Instant};

/// Steal time of every CPU of the machine, in clock ticks (1/100 s).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse().ok())
        .unwrap_or(0)
}

/// A sample in progress.
pub struct Sample {
    start: Instant,
    steal: u64,
}

/// Decides which samples to report, within a measuring budget.
pub struct Quiet {
    budget: Duration,
    deadline: Instant,
    nproc: usize,
    quiet_time: Duration,
    /// Per sample: its duration and the share of its CPU time stolen.
    samples: Vec<(Duration, f64, bool)>,
}

impl Quiet {
    pub fn new(budget: Duration, nproc: usize) -> Quiet {
        Quiet {
            budget,
            deadline: Instant::now() + budget * 2,
            nproc,
            quiet_time: Duration::ZERO,
            samples: Vec::new(),
        }
    }

    /// Whether to take another sample.
    pub fn wants_more(&self) -> bool {
        self.samples.is_empty() || (self.quiet_time < self.budget && Instant::now() < self.deadline)
    }

    pub fn begin(&self) -> Sample {
        Sample {
            start: Instant::now(),
            steal: steal_ticks(),
        }
    }

    /// Ends a sample.  It was quiet when at most 1% of its CPU time was
    /// stolen, give or take one tick of the counter's resolution.
    pub fn end(&mut self, sample: Sample) {
        let elapsed = sample.start.elapsed();
        let stolen = steal_ticks().saturating_sub(sample.steal);
        let capacity = elapsed.as_secs_f64() * self.nproc as f64 * 100.0;
        let quiet = stolen <= (capacity * 0.01) as u64 + 1;
        if quiet {
            self.quiet_time += elapsed;
        }
        self.samples
            .push((elapsed, stolen as f64 / capacity.max(1e-9), quiet));
    }

    /// Which samples to report, in sample order: every quiet one, topped
    /// up with the least-stolen others until they cover the budget.
    pub fn chosen(&self) -> Vec<bool> {
        let mut keep: Vec<bool> = self.samples.iter().map(|s| s.2).collect();
        let mut covered = self.quiet_time;
        let mut others: Vec<usize> = (0..keep.len()).filter(|&i| !keep[i]).collect();
        others.sort_by(|&a, &b| self.samples[a].1.total_cmp(&self.samples[b].1));
        for i in others {
            if covered >= self.budget && keep.contains(&true) {
                break;
            }
            keep[i] = true;
            covered += self.samples[i].0;
        }
        keep
    }

    pub fn describe(&self) -> String {
        let quiet = self.samples.iter().filter(|s| s.2).count();
        let reported = self.chosen().iter().filter(|&&k| k).count();
        format!(
            "{quiet} of {} quiet, {reported} reported",
            self.samples.len()
        )
    }
}

/// The items whose sample was chosen.
pub fn select<T>(items: Vec<T>, chosen: &[bool]) -> Vec<T> {
    items
        .into_iter()
        .zip(chosen)
        .filter_map(|(item, &keep)| keep.then_some(item))
        .collect()
}
