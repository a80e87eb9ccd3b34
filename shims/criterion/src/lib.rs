//! Offline stand-in for `criterion`.
//!
//! Implements the subset the e1–e12 benches use — `Criterion`,
//! `benchmark_group`, `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros — as a small wall-clock harness: each
//! benchmark is warmed up, then timed for `sample_size` samples (bounded
//! by `measurement_time`), and the mean/min/max per-iteration time is
//! printed.  No statistics beyond that, no HTML reports.  Like criterion,
//! the first command-line argument that is not a flag filters the
//! benchmarks by substring of `group/id`:
//! `cargo bench --bench <target> -- <filter>`.

use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a computed value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Top-level harness state and configuration.
#[derive(Debug, Clone)]
pub struct Criterion {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    /// Only benchmarks whose `group/id` contains this string run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_millis(1500),
            sample_size: 30,
            filter: None,
        }
    }
}

impl Criterion {
    /// Sets how long each benchmark is run before timing starts.
    pub fn warm_up_time(mut self, duration: Duration) -> Self {
        self.warm_up_time = duration;
        self
    }

    /// Sets the time budget for collecting samples.
    pub fn measurement_time(mut self, duration: Duration) -> Self {
        self.measurement_time = duration;
        self
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Reads the command line: the first argument that does not start
    /// with `--` becomes a substring filter on `group/id`, and every other
    /// benchmark is skipped.  The rest of the configuration stays
    /// programmatic.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from(std::env::args().skip(1));
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs a stand-alone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let config = self.clone();
        run_one(&config, None, &id.into(), f);
        self
    }
}

/// Identifies one parameterized benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// An id `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    /// An id carrying only a parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: parameter.to_string(),
        }
    }

    fn render(&self) -> String {
        if self.function.is_empty() {
            self.parameter.clone()
        } else if self.parameter.is_empty() {
            self.function.clone()
        } else {
            format!("{}/{}", self.function, self.parameter)
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = Some(n);
        self
    }

    fn effective_config(&self) -> Criterion {
        let mut config = self.criterion.clone();
        if let Some(n) = self.sample_size {
            config.sample_size = n;
        }
        config
    }

    /// Times `f` under `group_name/id`.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&self.effective_config(), Some(&self.name), &id.into(), f);
        self
    }

    /// Times `f` with a borrowed input under `group_name/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(
            &self.effective_config(),
            Some(&self.name),
            &id.render(),
            |b| f(b, input),
        );
        self
    }

    /// Ends the group (kept for API compatibility; drop would do).
    pub fn finish(self) {}
}

/// Hands the measured routine to the harness.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark filter of a command line (program name excluded).
fn filter_from(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with("--"))
}

fn run_one<F>(config: &Criterion, group: Option<&str>, id: &str, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let full_name = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_string(),
    };
    if let Some(filter) = &config.filter {
        if !full_name.contains(filter.as_str()) {
            return;
        }
    }

    // Warm-up: run single iterations until the warm-up budget is spent,
    // which also calibrates the per-iteration cost.
    let warm_up_start = Instant::now();
    let mut warm_iters: u64 = 0;
    let mut warm_elapsed = Duration::ZERO;
    while warm_up_start.elapsed() < config.warm_up_time && warm_iters < 1_000_000 {
        let mut bencher = Bencher {
            iterations: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        warm_elapsed += bencher.elapsed;
        warm_iters += 1;
    }
    let per_iter = if warm_iters > 0 {
        warm_elapsed / warm_iters.max(1) as u32
    } else {
        Duration::from_millis(1)
    };

    // Choose iterations-per-sample so all samples fit in measurement_time.
    let budget_per_sample = config.measurement_time / config.sample_size as u32;
    let iterations = if per_iter.is_zero() {
        1000
    } else {
        (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    let mut samples = Vec::with_capacity(config.sample_size);
    let measure_start = Instant::now();
    for _ in 0..config.sample_size {
        let mut bencher = Bencher {
            iterations,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        samples.push(bencher.elapsed.as_nanos() as f64 / iterations as f64);
        if measure_start.elapsed() > config.measurement_time * 2 {
            break;
        }
    }

    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "{full_name:<60} time: [{} {} {}]  ({} samples x {} iters)",
        format_ns(min),
        format_ns(mean),
        format_ns(max),
        samples.len(),
        iterations,
    );
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a benchmark group: either `criterion_group!(name, target, ..)`
/// or the braced form with an explicit `config = ..` expression.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Criterion {
        Criterion::default()
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20))
            .sample_size(3)
    }

    #[test]
    fn bench_function_runs_the_routine() {
        let mut criterion = quick();
        let mut group = criterion.benchmark_group("shim");
        let mut calls = 0u64;
        group.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        group.finish();
        assert!(calls > 0);
    }

    #[test]
    fn a_filtered_out_routine_is_never_called() {
        let mut criterion = quick();
        criterion.filter = filter_from(["--bench".to_string(), "shim/kept".to_string()]);
        let mut group = criterion.benchmark_group("shim");
        let (mut kept, mut skipped) = (0u64, 0u64);
        group.bench_function("kept", |b| b.iter(|| kept += 1));
        group.bench_function("skipped", |b| b.iter(|| skipped += 1));
        group.finish();
        assert!(kept > 0, "the matching routine ran");
        assert_eq!(skipped, 0, "the filtered-out routine was never called");
    }

    #[test]
    fn bench_with_input_passes_the_input() {
        let mut criterion = quick();
        let mut group = criterion.benchmark_group("shim");
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }
}
