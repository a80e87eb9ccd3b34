//! Static throughput/latency prediction from the k-periodic clock words.
//!
//! The same [`ClockWord`]s that bound channel capacities
//! ([`crate::capacity`]) also fix the *steady-state pace* of every
//! component: a component reading its environment at word `w` performs
//! `len(w)/ones(w)` reactions per environment token, and an edge whose
//! producer emits at word `w_p` carries `rate(w_p)` tokens per producer
//! reaction.  Propagating those ratios across the channel topology yields
//! a [`PerformancePrediction`]: per-component reactions per input token,
//! per-edge traffic, the pipeline-fill latency and the bottleneck edge —
//! all before the deployment runs a single reaction.
//!
//! The prediction is a *rate model*, not a cycle-accurate simulation: it
//! assumes the steady state (channels primed, no startup transient beyond
//! the reported fill latency) and prices every reaction equally.
//! Combined with one measured per-reaction cost
//! ([`PerformancePrediction::predicted_throughput`]) it predicts
//! wall-clock throughput of unseen topologies from a single calibration
//! run — validated against the E13 pipelines in
//! `tests/performance_prediction.rs`.

use std::collections::BTreeMap;
use std::fmt;

use clocks::word::ClockWord;
use signal_lang::Name;

use crate::capacity::EdgeClocks;
use crate::deploy::Topology;

/// The fraction of its local reactions a word is present on; an unknown
/// word is modeled as present at every reaction.
fn firing_rate(word: Option<&ClockWord>) -> f64 {
    match word {
        Some(word) => {
            let (ones, len) = word.rate();
            ones as f64 / len as f64
        }
        None => 1.0,
    }
}

/// The predicted steady-state pace of one component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPrediction {
    /// The component name.
    pub name: String,
    /// Reactions the component performs per environment input token.
    pub reactions_per_input: f64,
}

/// The predicted steady-state traffic of one channel edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePrediction {
    /// The channel signal.
    pub signal: Name,
    /// Index of the producing machine.
    pub producer: usize,
    /// Index of the consuming machine.
    pub consumer: usize,
    /// Tokens crossing the edge per environment input token.
    pub tokens_per_input: f64,
    /// The producer-local instant of the first token (`None` when the
    /// producer's word provably never emits).
    pub first_token: Option<usize>,
    /// The resolved capacity of the edge's FIFO.
    pub capacity: usize,
    /// Whether the edge lies on a feedback loop (excluded from the fill
    /// latency, which is a feed-forward notion).
    pub on_cycle: bool,
}

/// A static throughput/latency prediction of a deployment, derived from
/// the k-periodic clock words of its edges before any reaction runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformancePrediction {
    /// Per-component predicted pace, in machine order.
    pub components: Vec<ComponentPrediction>,
    /// Per-edge predicted traffic, in topology order.
    pub edges: Vec<EdgePrediction>,
    /// Instants before the last component sees its first token: the
    /// longest feed-forward chain of first-emission delays.
    pub fill_latency: usize,
}

impl PerformancePrediction {
    /// Derives the prediction for `topology` from the edge words, the
    /// environment read words (`env_reads`: one `(machine, word)` entry
    /// per environment input a machine reads) and the machine `names`.
    ///
    /// Machines paced by the environment get their pace from their read
    /// word (reading at `(10)` means 2 reactions per token); paces then
    /// propagate across every edge in both directions — a consumer runs
    /// `rate(w_p)/rate(w_c)` times as fast as its producer — until the
    /// topology is covered.  Machines the propagation cannot reach (no
    /// environment input and no word on any path) default to one reaction
    /// per input token.
    pub fn derive(
        topology: &Topology,
        edge_clocks: &BTreeMap<Name, EdgeClocks>,
        env_reads: &[(usize, Option<ClockWord>)],
        names: &[String],
    ) -> Self {
        let n = names.len();
        // The k-th channel spec of a signal pairs with the k-th consumer
        // word: both are collected in ascending consumer order.
        let mut seen: BTreeMap<&Name, usize> = BTreeMap::new();
        let spec_words: Vec<(Option<&ClockWord>, Option<&ClockWord>)> = topology
            .channels
            .iter()
            .map(|spec| {
                let k = {
                    let slot = seen.entry(&spec.signal).or_insert(0);
                    let k = *slot;
                    *slot += 1;
                    k
                };
                match edge_clocks.get(&spec.signal) {
                    Some(clocks) => (
                        clocks.producer_word.as_ref(),
                        clocks.consumer_words.get(k).and_then(Option::as_ref),
                    ),
                    None => (None, None),
                }
            })
            .collect();

        // Seed: environment-paced machines react once per present instant
        // of their read word — len/ones reactions per token.  A machine
        // reading several environment inputs follows the most demanding.
        let mut pace: Vec<Option<f64>> = vec![None; n];
        for (machine, word) in env_reads {
            if *machine >= n {
                continue;
            }
            let rate = firing_rate(word.as_ref());
            if rate > 0.0 {
                let candidate = 1.0 / rate;
                let slot = &mut pace[*machine];
                *slot = Some(slot.map_or(candidate, |current| current.max(candidate)));
            }
        }
        // Propagate across edges (both directions) to a fixpoint: the
        // token rate is conserved across an edge, so
        // pace(c) · rate(w_c) = pace(p) · rate(w_p).
        for _ in 0..n.max(1) {
            let mut changed = false;
            for (spec, (producer_word, consumer_word)) in topology.channels.iter().zip(&spec_words)
            {
                if spec.producer >= n || spec.consumer >= n {
                    continue;
                }
                let rate_p = firing_rate(*producer_word);
                let rate_c = firing_rate(*consumer_word);
                if pace[spec.consumer].is_none() && rate_c > 0.0 {
                    if let Some(p) = pace[spec.producer] {
                        pace[spec.consumer] = Some(p * rate_p / rate_c);
                        changed = true;
                    }
                }
                if pace[spec.producer].is_none() && rate_p > 0.0 {
                    if let Some(c) = pace[spec.consumer] {
                        pace[spec.producer] = Some(c * rate_c / rate_p);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let cycle = topology.cycle_signals();
        let edges: Vec<EdgePrediction> = topology
            .channels
            .iter()
            .zip(&spec_words)
            .map(|(spec, (producer_word, _))| EdgePrediction {
                signal: spec.signal.clone(),
                producer: spec.producer,
                consumer: spec.consumer,
                tokens_per_input: pace.get(spec.producer).copied().flatten().unwrap_or(1.0)
                    * firing_rate(*producer_word),
                first_token: producer_word.map_or(Some(1), ClockWord::first_one),
                capacity: spec.capacity,
                on_cycle: cycle.contains(&spec.signal),
            })
            .collect();

        // Fill latency: longest feed-forward chain of first-emission
        // delays (cycle edges excluded — a loop has no "first" end).
        let mut arrival = vec![0usize; n];
        for _ in 0..n.max(1) {
            let mut changed = false;
            for edge in &edges {
                if edge.on_cycle || edge.producer >= n || edge.consumer >= n {
                    continue;
                }
                let Some(first) = edge.first_token else {
                    continue;
                };
                let candidate = arrival[edge.producer] + first;
                if candidate > arrival[edge.consumer] {
                    arrival[edge.consumer] = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let fill_latency = arrival.into_iter().max().unwrap_or(0);

        let components = names
            .iter()
            .enumerate()
            .map(|(i, name)| ComponentPrediction {
                name: name.clone(),
                reactions_per_input: pace.get(i).copied().flatten().unwrap_or(1.0),
            })
            .collect();
        PerformancePrediction {
            components,
            edges,
            fill_latency,
        }
    }

    /// Total reactions the deployment performs per environment input
    /// token, summed over every component.
    pub fn reactions_per_input(&self) -> f64 {
        self.components.iter().map(|c| c.reactions_per_input).sum()
    }

    /// Predicted total reaction count for a run fed `inputs` environment
    /// tokens (steady-state: the startup transient is at most the fill
    /// latency).
    pub fn predicted_reactions(&self, inputs: u64) -> f64 {
        inputs as f64 * self.reactions_per_input()
    }

    /// Predicted steady-state throughput in environment tokens per
    /// second, given a measured per-reaction cost (e.g.
    /// `1 / stats.reactions_per_second()` of a calibration run under the
    /// same execution mode).  The model is work-conserving: total
    /// reactions are the resource, so the prediction transfers across
    /// topologies that share the scheduler configuration.
    pub fn predicted_throughput(&self, seconds_per_reaction: f64) -> Option<f64> {
        let per_input = self.reactions_per_input() * seconds_per_reaction;
        (per_input > 0.0).then(|| 1.0 / per_input)
    }

    /// The busiest edge — the one carrying the most tokens per input
    /// token; ties break toward the smaller capacity (less slack for the
    /// same traffic).
    pub fn bottleneck(&self) -> Option<&EdgePrediction> {
        self.edges.iter().reduce(|best, edge| {
            if edge.tokens_per_input > best.tokens_per_input
                || (edge.tokens_per_input == best.tokens_per_input && edge.capacity < best.capacity)
            {
                edge
            } else {
                best
            }
        })
    }
}

impl fmt::Display for PerformancePrediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "predicted steady state: {:.2} reactions per input token, \
             fill latency {} instant(s)",
            self.reactions_per_input(),
            self.fill_latency
        )?;
        for component in &self.components {
            writeln!(
                f,
                "  {}: {:.2} reactions/input",
                component.name, component.reactions_per_input
            )?;
        }
        if let Some(edge) = self.bottleneck() {
            writeln!(
                f,
                "  bottleneck edge {}: {:.2} tokens/input over capacity {}{}",
                edge.signal,
                edge.tokens_per_input,
                edge.capacity,
                if edge.on_cycle {
                    " (on a feedback loop)"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::CapacitySource;
    use crate::deploy::ChannelSpec;

    fn spec(signal: &str, producer: usize, consumer: usize) -> ChannelSpec {
        ChannelSpec {
            signal: Name::from(signal),
            producer,
            consumer,
            capacity: 1,
            source: CapacitySource::Default,
            derivation: None,
        }
    }

    fn word(bits: &[u8]) -> ClockWord {
        ClockWord::periodic(bits.iter().map(|&b| b != 0).collect()).expect("nonempty")
    }

    /// Two half-rate buffers in a line: each does 2 reactions per token,
    /// the edge carries every token, filled after the first emission at
    /// instant 2.
    #[test]
    fn a_buffer_pipeline_predicts_two_reactions_per_token_per_stage() {
        let topology = Topology {
            channels: vec![spec("p1", 0, 1)],
            environment: vec![Name::from("p0")],
        };
        let mut edge_clocks = BTreeMap::new();
        edge_clocks.insert(
            Name::from("p1"),
            EdgeClocks {
                producer: clocks::clock::ClockExpr::Atom(clocks::Clock::Tick(Name::from("p1"))),
                consumers: vec![clocks::clock::ClockExpr::Atom(clocks::Clock::Tick(
                    Name::from("p1"),
                ))],
                producer_word: Some(word(&[0, 1])),
                consumer_words: vec![Some(word(&[1, 0]))],
            },
        );
        let env_reads = vec![(0, Some(word(&[1, 0])))];
        let names = vec!["b0".to_string(), "b1".to_string()];
        let prediction = PerformancePrediction::derive(&topology, &edge_clocks, &env_reads, &names);
        assert_eq!(prediction.components[0].reactions_per_input, 2.0);
        assert_eq!(prediction.components[1].reactions_per_input, 2.0);
        assert_eq!(prediction.reactions_per_input(), 4.0);
        assert_eq!(prediction.predicted_reactions(16), 64.0);
        assert_eq!(prediction.edges[0].tokens_per_input, 1.0);
        assert_eq!(prediction.fill_latency, 2);
        assert_eq!(
            prediction.bottleneck().expect("one edge").signal.as_str(),
            "p1"
        );
        // 1 ms per reaction, 4 reactions per token: 250 tokens/sec.
        let throughput = prediction.predicted_throughput(0.001).expect("positive");
        assert!((throughput - 250.0).abs() < 1e-9);
        let text = prediction.to_string();
        assert!(text.contains("4.00 reactions per input token"), "{text}");
        assert!(text.contains("bottleneck edge p1"), "{text}");
    }

    /// A 2-of-3 decimator: the consumer reads one of every three producer
    /// emissions, so it runs at a third of the producer's pace.
    #[test]
    fn rate_changes_propagate_across_edges() {
        let topology = Topology {
            channels: vec![spec("x", 0, 1)],
            environment: vec![Name::from("a")],
        };
        let mut edge_clocks = BTreeMap::new();
        edge_clocks.insert(
            Name::from("x"),
            EdgeClocks {
                producer: clocks::clock::ClockExpr::Atom(clocks::Clock::Tick(Name::from("x"))),
                consumers: vec![clocks::clock::ClockExpr::Atom(clocks::Clock::Tick(
                    Name::from("x"),
                ))],
                // The producer emits on 3 of its 6 instants, the consumer
                // reads on 3 of its 6: same token rate, same pace.
                producer_word: Some(word(&[1, 1, 1, 0, 0, 0])),
                consumer_words: vec![Some(word(&[0, 0, 0, 1, 1, 1]))],
            },
        );
        // The source reads its environment on half its instants.
        let env_reads = vec![(0, Some(word(&[1, 1, 1, 0, 0, 0])))];
        let names = vec!["src".to_string(), "snk".to_string()];
        let prediction = PerformancePrediction::derive(&topology, &edge_clocks, &env_reads, &names);
        assert_eq!(prediction.components[0].reactions_per_input, 2.0);
        assert_eq!(prediction.components[1].reactions_per_input, 2.0);
        assert_eq!(prediction.edges[0].tokens_per_input, 1.0);
        // The producer's word first fires at instant 1.
        assert_eq!(prediction.fill_latency, 1);
    }

    /// Unknown words default to one reaction per token — the prediction
    /// degrades to a relay model instead of refusing.
    #[test]
    fn unknown_words_degrade_to_a_relay_model() {
        let topology = Topology {
            channels: vec![spec("s1", 0, 1), spec("s2", 1, 2)],
            environment: vec![Name::from("s0")],
        };
        let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let prediction =
            PerformancePrediction::derive(&topology, &BTreeMap::new(), &[(0, None)], &names);
        assert_eq!(prediction.reactions_per_input(), 3.0);
        assert_eq!(prediction.fill_latency, 2);
        assert!(prediction.edges.iter().all(|e| !e.on_cycle));
    }

    /// Feedback edges are excluded from the fill latency instead of
    /// diverging the longest-path computation.
    #[test]
    fn cycle_edges_do_not_diverge_the_fill_latency() {
        let topology = Topology {
            channels: vec![spec("p", 0, 1), spec("q", 1, 0)],
            environment: vec![],
        };
        let names = vec!["a".to_string(), "b".to_string()];
        let prediction = PerformancePrediction::derive(&topology, &BTreeMap::new(), &[], &names);
        assert!(prediction.edges.iter().all(|e| e.on_cycle));
        assert_eq!(prediction.fill_latency, 0);
        // Unreached machines default to pace 1.
        assert_eq!(prediction.reactions_per_input(), 2.0);
    }
}
