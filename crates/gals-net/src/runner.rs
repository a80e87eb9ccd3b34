//! Launching partitions and merging what they observed.
//!
//! One process calls [`run_partition`] per partition (typically each call
//! lives in its own OS process — see `examples/distributed.rs` for the
//! fork-style layout): the partition's deployment is assembled from the
//! shared [`PartitionPlan`], fed its slice of the environment, run on the
//! pool like any deployment, and its observations written out as a
//! [`PartitionReport`] — a small
//! line-based file a parent process reads back without any serialization
//! dependency.  [`MergedStats::merge`] then folds the reports into one
//! cross-process view: merged flows (cross-checked on every cut signal),
//! per-process reaction counters, and per-process epoch offsets so the
//! partitions' wall-clock timelines can be laid on one axis.
//!
//! When `GALS_TRACE_DIR` is set, every partition run is traced and its
//! event timeline written to `<dir>/partition-<p>.trace.json` (Chrome
//! `about:tracing` format, like the in-process stress lane).

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use gals_rt::{TokenRx, TokenTx, TransportError};
use isochron::Design;
use signal_lang::{Name, Value};
use sim::Flows;

use crate::net::{NetReceiver, NetSender, RetryPolicy};
use crate::partition::{CutEdge, LinkFactory, PartitionError, PartitionPlan};

/// A [`LinkFactory`] wiring every cut edge through a Unix domain socket
/// in a shared directory: the consumer binds
/// `<dir>/<signal>-<p>to<c>-<reader>.sock`, the producer dials it, and
/// the link's flow-control window is the edge's derived bound.  Its
/// endpoints wake the partition's island from their socket threads, as a
/// link must.
pub struct UdsLinks {
    dir: PathBuf,
    retry: RetryPolicy,
}

impl UdsLinks {
    /// Links living in `dir` (shared between the partition processes).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        UdsLinks {
            dir: dir.into(),
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the reconnect policy used by minted senders.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The socket path of a cut edge — stable across processes, so both
    /// sides of the link find each other by plan alone.
    pub fn socket_path(&self, edge: &CutEdge) -> PathBuf {
        self.dir.join(format!(
            "{}-{}to{}-{}.sock",
            edge.signal, edge.producer, edge.consumer, edge.reader
        ))
    }
}

impl LinkFactory for UdsLinks {
    fn sender(&self, edge: &CutEdge) -> Result<Box<dyn TokenTx>, TransportError> {
        let path = self.socket_path(edge);
        let tx = NetSender::connect(&path, edge.signal.as_str(), edge.window as u64, self.retry)
            .map_err(TransportError::from)?;
        Ok(Box::new(tx))
    }

    fn receiver(&self, edge: &CutEdge) -> Result<Box<dyn TokenRx>, TransportError> {
        let path = self.socket_path(edge);
        let rx = NetReceiver::bind(&path, edge.signal.as_str(), edge.window as u64)
            .map_err(TransportError::from)?;
        Ok(Box::new(rx))
    }
}

/// What one partition observed: its flows, its per-component reaction
/// counters, and its wall-clock epoch — everything the parent needs to
/// merge the distributed run back into one view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionReport {
    /// The partition's process id in the plan.
    pub process: usize,
    /// Microseconds since the Unix epoch when the partition's run
    /// started — the per-process epoch the merge offsets against.
    pub started_micros: u64,
    /// Wall-clock duration of the run, in microseconds.
    pub elapsed_micros: u64,
    /// Per-component `(name, completed reactions)`, in deployment order:
    /// the design components the partition runs, nothing else.
    pub components: Vec<(String, u64)>,
    /// The flows observed by this partition — its components' outputs
    /// plus each incoming cut signal as its reader took it from the link.
    pub flows: Flows,
}

fn encode_value(value: Value) -> String {
    match value {
        Value::Bool(b) => format!("b{}", u8::from(b)),
        Value::Int(i) => format!("i{i}"),
    }
}

fn decode_value(text: &str) -> Result<Value, PartitionError> {
    let bad = || PartitionError::Report(format!("unreadable value {text:?}"));
    match text.as_bytes().first() {
        Some(b'b') => match &text[1..] {
            "0" => Ok(Value::Bool(false)),
            "1" => Ok(Value::Bool(true)),
            _ => Err(bad()),
        },
        Some(b'i') => text[1..].parse().map(Value::Int).map_err(|_| bad()),
        _ => Err(bad()),
    }
}

impl PartitionReport {
    /// Renders the report as its line-based file format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("process {}\n", self.process));
        out.push_str(&format!("started {}\n", self.started_micros));
        out.push_str(&format!("elapsed {}\n", self.elapsed_micros));
        for (name, reactions) in &self.components {
            out.push_str(&format!("component {name} {reactions}\n"));
        }
        for (signal, values) in &self.flows {
            out.push_str(&format!("flow {signal}"));
            for value in values {
                out.push(' ');
                out.push_str(&encode_value(*value));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the line-based file format back into a report.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Report`] for any line that does not decode.
    pub fn decode(text: &str) -> Result<Self, PartitionError> {
        let mut report = PartitionReport {
            process: 0,
            started_micros: 0,
            elapsed_micros: 0,
            components: Vec::new(),
            flows: BTreeMap::new(),
        };
        let field = |line: &str, what: &str| -> Result<u64, PartitionError> {
            line.parse()
                .map_err(|_| PartitionError::Report(format!("unreadable {what}: {line:?}")))
        };
        for line in text.lines() {
            let mut words = line.split_whitespace();
            match words.next() {
                Some("process") => {
                    report.process = field(words.next().unwrap_or(""), "process id")? as usize;
                }
                Some("started") => {
                    report.started_micros = field(words.next().unwrap_or(""), "epoch")?;
                }
                Some("elapsed") => {
                    report.elapsed_micros = field(words.next().unwrap_or(""), "elapsed")?;
                }
                Some("component") => {
                    let name = words
                        .next()
                        .ok_or_else(|| PartitionError::Report("component without name".into()))?;
                    let reactions = field(words.next().unwrap_or(""), "reaction count")?;
                    report.components.push((name.to_string(), reactions));
                }
                Some("flow") => {
                    let signal = words
                        .next()
                        .ok_or_else(|| PartitionError::Report("flow without signal".into()))?;
                    let values: Result<Vec<Value>, _> = words.map(decode_value).collect();
                    report.flows.insert(Name::from(signal), values?);
                }
                Some(other) => {
                    return Err(PartitionError::Report(format!(
                        "unknown line kind {other:?}"
                    )));
                }
                None => {}
            }
        }
        Ok(report)
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Report`] on I/O failure.
    pub fn write(&self, path: &Path) -> Result<(), PartitionError> {
        std::fs::write(path, self.encode())
            .map_err(|e| PartitionError::Report(format!("writing {}: {e}", path.display())))
    }

    /// Reads a report back from `path`.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Report`] on I/O or parse failure.
    pub fn read(path: &Path) -> Result<Self, PartitionError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PartitionError::Report(format!("reading {}: {e}", path.display())))?;
        PartitionReport::decode(&text)
    }
}

/// Runs one partition of the plan to completion: assembles its
/// deployment over `links`, applies its slice of `feeds` (the
/// environment inputs its components consume), runs it and reports the
/// observed flows and counters.  With `GALS_TRACE_DIR` set the run is
/// traced and the timeline written to
/// `<dir>/partition-<process>.trace.json`.
///
/// # Errors
///
/// Propagates planning, transport and deployment errors.
pub fn run_partition(
    design: &Design,
    plan: &PartitionPlan,
    process: usize,
    links: &dyn LinkFactory,
    feeds: &BTreeMap<Name, Vec<Value>>,
) -> Result<PartitionReport, PartitionError> {
    let mut deployment = plan.deployment(design, process, links)?;
    let wanted = plan.env_inputs(design, process);
    for (signal, values) in feeds {
        if wanted.contains(signal) {
            deployment.feed(signal.clone(), values.iter().copied());
        }
    }
    let trace_dir = std::env::var_os("GALS_TRACE_DIR").map(PathBuf::from);
    deployment.set_tracing(trace_dir.is_some());
    let started_micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_micros() as u64;
    let outcome = deployment.run()?;
    if let (Some(dir), Some(trace)) = (trace_dir, outcome.trace()) {
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("partition-{process}.trace.json"));
        if let Ok(mut file) = std::fs::File::create(&path) {
            let _ = file.write_all(trace.to_chrome_json().as_bytes());
        }
    }
    let stats = outcome.stats();
    Ok(PartitionReport {
        process,
        started_micros,
        elapsed_micros: stats.elapsed.as_micros() as u64,
        components: stats
            .components
            .iter()
            .map(|c| (c.name.clone(), c.reactions))
            .collect(),
        flows: outcome.flows().clone(),
    })
}

/// The partitions' reports folded into one cross-process view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedStats {
    /// The reports, sorted by process id.
    pub reports: Vec<PartitionReport>,
    /// Per-process start offset (microseconds) relative to the earliest
    /// partition's epoch — the handshake-style normalization that lays
    /// the per-process timelines on one axis.
    pub epoch_offsets_micros: Vec<u64>,
    /// The union of the partitions' flows, cross-checked on cut signals.
    pub flows: Flows,
}

impl MergedStats {
    /// Merges the partitions' reports: sorts by process, offsets every
    /// epoch against the earliest one, and merges the flows
    /// ([`crate::merge_flows`] — any disagreement on a cut signal is a
    /// loss/duplication detector firing).
    ///
    /// # Errors
    ///
    /// [`PartitionError::Report`] when `reports` is empty;
    /// [`PartitionError::MergeMismatch`] when two partitions disagree on
    /// a cut signal's tokens.
    pub fn merge(mut reports: Vec<PartitionReport>) -> Result<Self, PartitionError> {
        if reports.is_empty() {
            return Err(PartitionError::Report(
                "no partition reports to merge".into(),
            ));
        }
        reports.sort_by_key(|r| r.process);
        let origin = reports
            .iter()
            .map(|r| r.started_micros)
            .min()
            .unwrap_or_default();
        let epoch_offsets_micros = reports
            .iter()
            .map(|r| r.started_micros.saturating_sub(origin))
            .collect();
        let flows = crate::partition::merge_flows(
            &reports.iter().map(|r| r.flows.clone()).collect::<Vec<_>>(),
        )?;
        Ok(MergedStats {
            reports,
            epoch_offsets_micros,
            flows,
        })
    }

    /// Total completed reactions across every partition.
    pub fn total_reactions(&self) -> u64 {
        self.reports
            .iter()
            .flat_map(|r| r.components.iter().map(|(_, n)| n))
            .sum()
    }
}

impl fmt::Display for MergedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "distributed run over {} processes:", self.reports.len())?;
        for (report, offset) in self.reports.iter().zip(&self.epoch_offsets_micros) {
            writeln!(
                f,
                "  process {}: started +{}us, ran {}us",
                report.process, offset, report.elapsed_micros
            )?;
            for (name, reactions) in &report.components {
                writeln!(f, "    {name}: {reactions} reactions")?;
            }
        }
        write!(f, "  {} reactions total", self.total_reactions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_survives_its_file_format() {
        let mut flows: Flows = BTreeMap::new();
        flows.insert(
            Name::from("x"),
            vec![Value::Bool(true), Value::Bool(false), Value::Int(-42)],
        );
        flows.insert(Name::from("empty"), Vec::new());
        let report = PartitionReport {
            process: 1,
            started_micros: 1_000_000,
            elapsed_micros: 250,
            components: vec![("stage0".into(), 8), ("net-tx:x".into(), 8)],
            flows,
        };
        let decoded = PartitionReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn merged_stats_offset_epochs_against_the_earliest() {
        let mk = |process: usize, started: u64| PartitionReport {
            process,
            started_micros: started,
            elapsed_micros: 10,
            components: vec![(format!("c{process}"), 4)],
            flows: BTreeMap::new(),
        };
        let merged = MergedStats::merge(vec![mk(1, 500), mk(0, 200)]).unwrap();
        assert_eq!(merged.epoch_offsets_micros, vec![0, 300]);
        assert_eq!(merged.reports[0].process, 0);
        assert_eq!(merged.total_reactions(), 8);
    }

    #[test]
    fn a_flow_disagreement_is_a_merge_mismatch() {
        let mut a: Flows = BTreeMap::new();
        a.insert(Name::from("x"), vec![Value::Int(1), Value::Int(2)]);
        let mut b: Flows = BTreeMap::new();
        b.insert(Name::from("x"), vec![Value::Int(1), Value::Int(9)]);
        let err = crate::partition::merge_flows(&[a, b]).unwrap_err();
        assert!(matches!(err, PartitionError::MergeMismatch { .. }), "{err}");
    }
}
