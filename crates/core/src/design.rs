//! The design API implementing Definition 12 and Theorem 1.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use clocks::{Clock, ClockAlgebra, ClockAnalysis, ClockExpr};
use codegen::{ClockCode, CompiledProgram, SequentialRuntime, StepProgram};
use gals_rt::{
    CapacityAnalysis, DeployError, Deployment, EdgeClocks, PerformancePrediction,
    ReferenceComponent,
};
use signal_lang::{KernelProcess, Name, ProcessBuilder, ProcessDef, SignalError};

use crate::verdict::Verdict;

/// An error raised while assembling a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// A component failed to normalize or the composition is ill-formed.
    Signal(SignalError),
    /// The design has no component.
    Empty,
    /// Deployment was requested on a design that fails the static
    /// weak-hierarchy criterion.
    NotVerified(String),
    /// Assembling the deployment itself failed (e.g. the interface-derived
    /// topology is ill-formed).
    Deploy(DeployError),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::Signal(e) => write!(f, "{e}"),
            DesignError::Empty => write!(f, "a design needs at least one component"),
            DesignError::NotVerified(name) => write!(
                f,
                "design {name} fails the static weak-hierarchy criterion; \
                 only verified designs deploy (use deploy_unchecked to observe \
                 the divergence)"
            ),
            DesignError::Deploy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<SignalError> for DesignError {
    fn from(e: SignalError) -> Self {
        DesignError::Signal(e)
    }
}

impl From<DeployError> for DesignError {
    fn from(e: DeployError) -> Self {
        match e {
            DeployError::NotVerified(name) => DesignError::NotVerified(name),
            other => DesignError::Deploy(other),
        }
    }
}

/// One component of a design: an endochronous (or at least separately
/// analyzable) Signal process with its analysis and generated code.
pub struct Component {
    definition: ProcessDef,
    kernel: KernelProcess,
    analysis: ClockAnalysis,
    program: OnceLock<StepProgram>,
    compiled: OnceLock<Arc<CompiledProgram>>,
}

impl Component {
    /// Analyzes a process definition into a component.
    pub fn new(definition: ProcessDef) -> Result<Self, DesignError> {
        let kernel = definition.normalize()?;
        let analysis = ClockAnalysis::analyze(&kernel);
        Ok(Component {
            definition,
            kernel,
            analysis,
            program: OnceLock::new(),
            compiled: OnceLock::new(),
        })
    }

    /// The component name.
    pub fn name(&self) -> &str {
        &self.definition.name
    }

    /// The source definition.
    pub fn definition(&self) -> &ProcessDef {
        &self.definition
    }

    /// The kernel form.
    pub fn kernel(&self) -> &KernelProcess {
        &self.kernel
    }

    /// The clock analysis of the component alone.
    pub fn analysis(&self) -> &ClockAnalysis {
        &self.analysis
    }

    /// Is the component endochronous on its own (Property 2)?
    pub fn is_endochronous(&self) -> bool {
        self.analysis.is_endochronous()
    }

    /// The generated sequential step program of the component.
    ///
    /// Generated once per component and shared by every deployment of
    /// it; a component is immutable, so the stored program never goes
    /// stale.
    pub fn step_program(&self) -> StepProgram {
        self.program().clone()
    }

    /// The stored step program, generated on first use.
    fn program(&self) -> &StepProgram {
        self.program
            .get_or_init(|| codegen::seq::generate(&self.analysis))
    }

    /// The generated C text of the component.
    pub fn emit_c(&self) -> String {
        codegen::emit::emit_c(self.program())
    }

    /// The generated Rust module of the component (a self-contained,
    /// compilable step machine — see `codegen::emit_rust`).
    pub fn emit_rust(&self) -> String {
        codegen::emit_rust::emit_rust(self.program())
    }

    /// A ready-to-run sequential runtime interpreting the generated code.
    pub fn runtime(&self) -> SequentialRuntime {
        SequentialRuntime::new(self.step_program())
    }

    /// A ready-to-run compiled runtime (slot-indexed, zero per-step
    /// allocation) executing the generated code.  Every call instantiates
    /// the one compiled program stored on first use: a component compiles
    /// once, however often it deploys.
    pub fn compiled_runtime(&self) -> codegen::CompiledRuntime {
        let compiled = self
            .compiled
            .get_or_init(|| Arc::new(CompiledProgram::compile(self.program())));
        codegen::CompiledRuntime::new(Arc::clone(compiled))
    }

    /// Activation signals for the synchronous reference interpreter: one
    /// representative per *autonomous* root of the clock hierarchy — a root
    /// class containing no input signal, whose tick is paced by nothing but
    /// the component itself (the alternating state of the one-place buffer
    /// is the canonical case).
    pub fn activation(&self) -> Vec<Name> {
        let hierarchy = self.analysis.hierarchy();
        let mut activation = Vec::new();
        for class in hierarchy.roots() {
            let mut ticks: Vec<Name> = hierarchy
                .class_members(class)
                .iter()
                .filter_map(|clock| match clock {
                    Clock::Tick(n) => Some(n.clone()),
                    _ => None,
                })
                .collect();
            if ticks.iter().any(|n| self.kernel.is_input(n.as_str())) {
                continue; // the environment paces this root
            }
            ticks.sort();
            if let Some(representative) = ticks.into_iter().next() {
                activation.push(representative);
            }
        }
        activation
    }

    /// The component-local clock expression of one of its signals: what
    /// the component's own inferred relations equate with `^signal` (e.g.
    /// `[not a]` for the producer's emission of `x`), or `^signal` itself
    /// when no richer equality is recorded.  This is the per-side clock
    /// the capacity derivation compares across an edge.
    pub fn clock_expr_of(&self, signal: &Name) -> ClockExpr {
        let tick = ClockExpr::Atom(Clock::Tick(signal.clone()));
        let mut fallback: Option<ClockExpr> = None;
        for (l, r) in &self.analysis.relations().equalities {
            let other = if l == &tick {
                r
            } else if r == &tick {
                l
            } else {
                continue;
            };
            if other == &tick {
                continue;
            }
            // Prefer an expression over *other* signals: it says when the
            // component emits/reads without referring to the edge itself.
            let mut atoms = Vec::new();
            other.atoms(&mut atoms);
            if atoms.iter().all(|c| c.signal() != signal) {
                return other.clone();
            }
            fallback.get_or_insert_with(|| other.clone());
        }
        fallback.unwrap_or(tick)
    }

    /// The synchronous reference of the component, as registered on a
    /// deployment for the dynamic isochrony conformance check.
    pub fn reference(&self) -> ReferenceComponent {
        ReferenceComponent {
            name: self.name().to_string(),
            kernel: self.kernel.clone(),
            activation: self.activation(),
        }
    }
}

impl fmt::Debug for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Component")
            .field("name", &self.name())
            .field("endochronous", &self.is_endochronous())
            .finish()
    }
}

/// A design: a named composition of components, analyzed both per component
/// and globally, on which the weak-hierarchy criterion is evaluated.
///
/// A design is immutable once built, so each artifact of its
/// verification — edge clocks, capacity analysis (or its typed refusal),
/// performance prediction, and every component's step program — is
/// derived at most once, on first use, and shared by every deployment,
/// staging and admission of the design after that.
pub struct Design {
    name: String,
    components: Vec<Component>,
    composition: KernelProcess,
    composition_analysis: ClockAnalysis,
    incrementally_ok: bool,
    edge_clocks: OnceLock<BTreeMap<Name, EdgeClocks>>,
    capacity: OnceLock<Result<CapacityAnalysis, DeployError>>,
    prediction: OnceLock<Result<PerformancePrediction, DeployError>>,
}

impl Design {
    /// Builds a design from a single process (a one-component design).
    pub fn new(definition: ProcessDef) -> Result<Self, DesignError> {
        let name = definition.name.clone();
        Design::compose(name, [definition])
    }

    /// Builds a design by composing `components` under `name`, checking the
    /// incremental condition of Definition 12: every prefix of the
    /// composition must be well-clocked and acyclic.
    pub fn compose<I>(name: impl Into<String>, components: I) -> Result<Self, DesignError>
    where
        I: IntoIterator<Item = ProcessDef>,
    {
        let name = name.into();
        let components: Vec<Component> = components
            .into_iter()
            .map(Component::new)
            .collect::<Result<_, _>>()?;
        if components.is_empty() {
            return Err(DesignError::Empty);
        }
        // Incremental composition (Definition 12): compose one component at
        // a time and check well-clockedness and acyclicity of every prefix.
        // The last prefix is the whole composition, so its analysis is the
        // design's.
        let mut incrementally_ok = true;
        let mut composition = components[0].kernel().clone();
        let mut last_prefix = None;
        for component in &components[1..] {
            composition = composition.compose(component.kernel())?;
            let analysis = ClockAnalysis::analyze(&composition);
            if !(analysis.is_well_clocked() && analysis.is_acyclic()) {
                incrementally_ok = false;
            }
            last_prefix = Some(analysis);
        }
        let composition_analysis =
            last_prefix.unwrap_or_else(|| ClockAnalysis::analyze(&composition));
        Ok(Design::assemble(
            name,
            components,
            composition,
            composition_analysis,
            incrementally_ok,
        ))
    }

    /// Builds a design directly from a composite definition plus the list of
    /// component definitions it was assembled from (used when the composite
    /// hides shared signals, like the paper's `main` process hides `x`).
    pub fn from_parts(
        composite: ProcessDef,
        components: impl IntoIterator<Item = ProcessDef>,
    ) -> Result<Self, DesignError> {
        let name = composite.name.clone();
        let components: Vec<Component> = components
            .into_iter()
            .map(Component::new)
            .collect::<Result<_, _>>()?;
        if components.is_empty() {
            return Err(DesignError::Empty);
        }
        let composition = composite.normalize()?;
        let composition_analysis = ClockAnalysis::analyze(&composition);
        let incrementally_ok =
            composition_analysis.is_well_clocked() && composition_analysis.is_acyclic();
        Ok(Design::assemble(
            name,
            components,
            composition,
            composition_analysis,
            incrementally_ok,
        ))
    }

    /// A design with its verdict inputs set and no artifact derived yet.
    fn assemble(
        name: String,
        components: Vec<Component>,
        composition: KernelProcess,
        composition_analysis: ClockAnalysis,
        incrementally_ok: bool,
    ) -> Self {
        Design {
            name,
            components,
            composition,
            composition_analysis,
            incrementally_ok,
            edge_clocks: OnceLock::new(),
            capacity: OnceLock::new(),
            prediction: OnceLock::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The components of the design.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The kernel form of the global composition.
    pub fn composition(&self) -> &KernelProcess {
        &self.composition
    }

    /// The clock analysis of the global composition.
    pub fn analysis(&self) -> &ClockAnalysis {
        &self.composition_analysis
    }

    /// Is the design weakly hierarchic (Definition 12)?
    ///
    /// Every component must be compilable and hierarchic, and the (prefixes
    /// of the) composition must be well-clocked and acyclic.
    pub fn is_weakly_hierarchic(&self) -> bool {
        self.components.iter().all(Component::is_endochronous)
            && self.incrementally_ok
            && self.composition_analysis.is_well_clocked()
            && self.composition_analysis.is_acyclic()
    }

    /// The aggregated verdict of the design.
    pub fn verdict(&self) -> Verdict {
        let analysis = &self.composition_analysis;
        let weakly_hierarchic = self.is_weakly_hierarchic();
        Verdict {
            name: self.name.clone(),
            component_count: self.components.len(),
            components_endochronous: self.components.iter().all(Component::is_endochronous),
            well_clocked: analysis.is_well_clocked(),
            acyclic: analysis.is_acyclic(),
            compilable: analysis.is_compilable(),
            endochronous: analysis.is_endochronous(),
            weakly_hierarchic,
            // Theorem 1: weakly hierarchic (hence weakly endochronous) and
            // non-blocking composition of endochronous components is
            // isochronous.
            isochronous: weakly_hierarchic,
            roots: analysis.roots().len(),
        }
    }

    /// Assembles the multi-threaded GALS deployment of the design —
    /// Theorem 1 operationalized: each component's generated step program,
    /// compiled to a slot-indexed [`codegen::CompiledRuntime`], runs on
    /// its own OS thread, connected by bounded channels derived from the
    /// shared signals, and the synchronous reference of every component is
    /// registered so the outcome can check dynamic isochrony conformance
    /// ([`gals_rt::DeploymentOutcome::check_conformance`]).
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::NotVerified`] when the design fails the
    /// static weak-hierarchy criterion: nothing guarantees the flows of an
    /// unverified deployment, so it must be requested explicitly with
    /// [`deploy_unchecked`](Design::deploy_unchecked).
    pub fn deploy(&self) -> Result<Deployment, DesignError> {
        if !self.is_weakly_hierarchic() {
            return Err(DesignError::NotVerified(self.name.clone()));
        }
        Ok(self.deploy_unchecked())
    }

    /// Assembles the deployment without checking the static criterion —
    /// for experiments that *want* to observe a non-isochronous design
    /// diverge (the conformance checker reports the divergence instead of
    /// silently accepting it).
    pub fn deploy_unchecked(&self) -> Deployment {
        // Paced marks only make sense on environment inputs (signals no
        // component produces): a channel-fed input is paced by its
        // producer, and the deployment rejects paced marks on it.
        let produced: std::collections::BTreeSet<&Name> = self
            .components
            .iter()
            .flat_map(|c| c.program().outputs.iter())
            .collect();
        let mut deployment = Deployment::new();
        for component in &self.components {
            let program = component.program();
            // Environment inputs present at every activation of the step
            // function pace their component: the synchronous reference
            // must present them at every attempted reaction too.
            for input in &program.inputs {
                if matches!(program.clock_of(input.as_str()), Some(ClockCode::Always))
                    && !produced.contains(input)
                {
                    deployment.mark_paced(input.clone());
                }
            }
            deployment.add_reference(component.reference());
            deployment.add_machine(Box::new(component.compiled_runtime()));
        }
        deployment
    }

    /// The clock expressions governing every channel signal of the
    /// design: for each signal produced by one component and consumed by
    /// another, the producer-side and consumer-side local clock
    /// expressions ([`Component::clock_expr_of`]) the capacity derivation
    /// compares in the algebra of the global composition — plus, when a
    /// component's kernel exposes a periodic phase system (a one-hot
    /// delay ring or an alternating register), the k-periodic
    /// [`clocks::ClockWord`] of its side of the edge, resolved in the
    /// component's *local* relation.  The words survive interface
    /// abstraction ([`Design::from_parts`]): a composite hiding the
    /// components' internals strips them from the global algebra, but
    /// each component still knows its own phase structure.
    ///
    /// Derived once per design and shared by the capacity analysis, the
    /// prediction and every caller; a design is immutable, so the stored
    /// map never goes stale.
    pub fn edge_clocks(&self) -> &BTreeMap<Name, EdgeClocks> {
        self.edge_clocks.get_or_init(|| self.derive_edge_clocks())
    }

    fn derive_edge_clocks(&self) -> BTreeMap<Name, EdgeClocks> {
        let mut producer_of: BTreeMap<Name, usize> = BTreeMap::new();
        for (i, component) in self.components.iter().enumerate() {
            for output in component.kernel().outputs() {
                producer_of.insert(output.clone(), i);
            }
        }
        let mut local = LocalWords::new(&self.components);
        let mut edges: BTreeMap<Name, EdgeClocks> = BTreeMap::new();
        for (j, component) in self.components.iter().enumerate() {
            for input in component.kernel().inputs() {
                let Some(&i) = producer_of.get(input) else {
                    continue; // environment input
                };
                if i == j {
                    continue; // self-loop: resolved inside the component
                }
                let consumer = component.clock_expr_of(input);
                let consumer_word = local.word_of(j, &consumer);
                let entry = edges.entry(input.clone()).or_insert_with(|| {
                    let producer = self.components[i].clock_expr_of(input);
                    let producer_word = local.word_of(i, &producer);
                    EdgeClocks {
                        producer,
                        consumers: Vec::new(),
                        producer_word,
                        consumer_words: Vec::new(),
                    }
                });
                entry.consumers.push(consumer);
                entry.consumer_words.push(consumer_word);
            }
        }
        edges
    }

    /// Derives the static performance prediction of the design's
    /// deployment from the same k-periodic clock words that bound its
    /// channels: per-component steady-state reactions per environment
    /// token, per-edge traffic, pipeline-fill latency and the bottleneck
    /// edge — before any reaction runs.  Install it on a deployment with
    /// [`gals_rt::Deployment::set_prediction`] so the run's stats report
    /// predicted and measured paces side by side.
    ///
    /// Derived once per design (reusing the stored capacity analysis and
    /// edge clocks) and shared by every staging and admission of it; a
    /// design is immutable, so the stored prediction never goes stale.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when the interface-derived topology is
    /// ill-formed (e.g. two components produce the same signal).
    pub fn performance_prediction(&self) -> Result<PerformancePrediction, DeployError> {
        self.prediction().clone()
    }

    /// The stored prediction, derived on first use.
    fn prediction(&self) -> &Result<PerformancePrediction, DeployError> {
        self.prediction.get_or_init(|| self.derive_prediction())
    }

    fn derive_prediction(&self) -> Result<PerformancePrediction, DeployError> {
        // Resolve the topology under derived sizing when the analysis
        // succeeds, so the per-edge capacities in the prediction are the
        // ones a `deploy_derived` run will actually wire; designs the
        // calculus cannot fully bound fall back to the default policy.
        let mut deployment = self.deploy_unchecked();
        if let Ok(analysis) = self.capacity() {
            if analysis.is_fully_bounded() {
                deployment.set_capacity_analysis(analysis);
            }
        }
        let topology = deployment.topology()?;
        let environment: std::collections::BTreeSet<&Name> = topology.environment.iter().collect();
        let mut local = LocalWords::new(&self.components);
        let mut env_reads = Vec::new();
        for (j, component) in self.components.iter().enumerate() {
            for input in component.kernel().inputs() {
                if !environment.contains(input) {
                    continue; // channel-fed: covered by the edge words
                }
                let expr = component.clock_expr_of(input);
                env_reads.push((j, local.word_of(j, &expr)));
            }
        }
        let names: Vec<String> = self
            .components
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        Ok(PerformancePrediction::derive(
            &topology,
            self.edge_clocks(),
            &env_reads,
            &names,
        ))
    }

    /// Derives a channel capacity bound for every edge of the design's
    /// deployment topology from the clock calculus — the FIFO-sizing half
    /// of the paper's claim that verification makes deployment safe by
    /// construction.  Install the result with
    /// [`Deployment::set_capacity_analysis`] or use
    /// [`deploy_derived`](Design::deploy_derived) directly.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::NotVerified`] when the design fails the
    /// static weak-hierarchy criterion: the relations of an unverified
    /// design prove nothing, so no bound can be trusted from them.
    /// Returns [`DeployError::UnprimedCycle`] when the priming-liveness
    /// pass proves a feedback loop can never start turning — every
    /// component on it waits on its first read strictly before its first
    /// emission — refusing statically the exact wait cycle the pool
    /// scheduler's dynamic `Deadlocked` detection would otherwise only
    /// report at run time.
    ///
    /// The analysis — or its refusal — is derived once per design and
    /// shared by the prediction, every derived deployment, staging,
    /// admission and partition plan; a design is immutable, so the stored
    /// result never goes stale.
    pub fn capacity_analysis(&self) -> Result<CapacityAnalysis, DeployError> {
        self.capacity().clone()
    }

    /// The stored capacity analysis or its refusal, derived on first use.
    fn capacity(&self) -> &Result<CapacityAnalysis, DeployError> {
        self.capacity.get_or_init(|| self.derive_capacity())
    }

    fn derive_capacity(&self) -> Result<CapacityAnalysis, DeployError> {
        if !self.is_weakly_hierarchic() {
            return Err(DeployError::NotVerified(self.name.clone()));
        }
        let topology = self.deploy_unchecked().topology()?;
        // A fresh algebra of the global composition: entailment queries
        // mutate BDD caches, so the shared analysis cannot serve here.
        let relations = clocks::inference::infer(&self.composition);
        let mut algebra = ClockAlgebra::new(&self.composition, &relations);
        let analysis = CapacityAnalysis::derive(
            &topology,
            &self.composition,
            &mut algebra,
            self.edge_clocks(),
        );
        if let Some(cycle) = analysis.unprimed_cycles().first() {
            return Err(DeployError::UnprimedCycle(cycle.clone()));
        }
        Ok(analysis)
    }

    /// Assembles the deployment of a verified design with **derived**
    /// channel capacities: every edge's FIFO gets the bound the clock
    /// calculus proves sufficient ([`capacity_analysis`](Design::capacity_analysis)),
    /// instead of a hand-tuned default — the last hand-tuned knob of the
    /// runtime turned into an artifact of the verification.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::NotVerified`] when the design fails the
    /// static weak-hierarchy criterion.
    pub fn deploy_derived(&self) -> Result<Deployment, DesignError> {
        let mut deployment = self.deploy()?;
        let analysis = self.capacity().as_ref().map_err(Clone::clone)?;
        deployment.set_capacity_analysis(analysis);
        Ok(deployment)
    }

    /// Stages the verified design for submission to a shared serving pool
    /// ([`gals_rt::SharedPool::submit`]): the deployment is assembled with
    /// derived channel capacities and the static performance prediction
    /// pre-installed, then wired into a [`gals_rt::StagedDeployment`] —
    /// machines instantiated, internal channels connected, environment
    /// inputs exposed as streaming ingress and external outputs as egress.
    /// This is the entry point `gals-serve` admission prices: the staged
    /// deployment carries the same capacity-and-prediction artifacts the
    /// batch [`deploy_derived`](Design::deploy_derived) run would report.
    ///
    /// Each call instantiates fresh machines and channels, and nothing
    /// else: the capacity analysis, the prediction and the step programs
    /// are derived once per design and shared by every staging; a design
    /// is immutable, so they never go stale.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::NotVerified`] when the design fails the
    /// static weak-hierarchy criterion, and propagates topology errors
    /// from the wiring step.
    pub fn stage_derived(&self) -> Result<gals_rt::StagedDeployment, DesignError> {
        let mut deployment = self.deploy_derived()?;
        if let Ok(prediction) = self.prediction() {
            deployment.set_prediction(prediction.clone());
        }
        Ok(deployment.stage()?)
    }

    /// Composes this design with another component, re-checking the static
    /// criterion — the paper's `main2` extension of Section 5.2.
    pub fn extend(&self, component: ProcessDef) -> Result<Design, DesignError> {
        let mut defs: Vec<ProcessDef> = self
            .components
            .iter()
            .map(|c| c.definition().clone())
            .collect();
        defs.push(component);
        Design::compose(format!("{}+", self.name), defs)
    }
}

/// One phase-system + local-algebra pair per component, built lazily:
/// word resolution mutates BDD caches, so the shared (immutable)
/// component analyses cannot serve, and most components never need one.
struct LocalWords<'a> {
    components: &'a [Component],
    cache: Vec<Option<(Vec<clocks::PeriodicSystem>, ClockAlgebra)>>,
}

impl<'a> LocalWords<'a> {
    fn new(components: &'a [Component]) -> Self {
        LocalWords {
            components,
            cache: components.iter().map(|_| None).collect(),
        }
    }

    /// The k-periodic word of `expr` over component `index`'s local
    /// reactions, when its kernel exposes a periodic phase system that
    /// resolves the expression.
    fn word_of(&mut self, index: usize, expr: &clocks::ClockExpr) -> Option<clocks::ClockWord> {
        let component = &self.components[index];
        let (systems, algebra) = self.cache[index].get_or_insert_with(|| {
            let kernel = component.kernel();
            let relations = clocks::inference::infer(kernel);
            (
                clocks::periodic_systems(kernel),
                ClockAlgebra::new(kernel, &relations),
            )
        });
        clocks::word_of_expr(expr, systems, algebra)
    }
}

impl fmt::Debug for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Design")
            .field("name", &self.name)
            .field("components", &self.components.len())
            .field("weakly_hierarchic", &self.is_weakly_hierarchic())
            .finish()
    }
}

/// Builds the paper's synthetic scalability workload: a chain of `n`
/// producer/consumer pairs, pair `i` linking inputs `a_i` / `b_i` through a
/// shared signal `x_i` (used by benchmark E10).
pub fn chain_of_pairs(n: usize) -> Vec<ProcessDef> {
    use signal_lang::stdlib;
    let mut out = Vec::new();
    for i in 0..n {
        let producer = stdlib::producer().instantiate(
            &format!("p{i}"),
            &[
                ("a", &format!("a{i}") as &str),
                ("u", &format!("u{i}")),
                ("x", &format!("x{i}")),
            ],
        );
        let consumer = stdlib::consumer().instantiate(
            &format!("c{i}"),
            &[
                ("b", &format!("b{i}") as &str),
                ("x", &format!("x{i}")),
                ("v", &format!("v{i}")),
            ],
        );
        out.push(producer);
        out.push(consumer);
    }
    out
}

/// Builds a single `ProcessDef` composing an entire chain of pairs, for the
/// monolithic (model-checking) side of the comparison.
pub fn chain_as_single_process(n: usize) -> Result<ProcessDef, SignalError> {
    let mut builder = ProcessBuilder::new(format!("chain{n}"));
    for def in chain_of_pairs(n) {
        builder = builder.include(&def);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_lang::stdlib;

    #[test]
    fn producer_consumer_design_satisfies_the_static_criterion() {
        let design =
            Design::compose("main", [stdlib::producer(), stdlib::consumer()]).expect("builds");
        let v = design.verdict();
        assert!(v.components_endochronous);
        assert!(v.weakly_hierarchic);
        assert!(v.isochronous);
        assert!(!v.endochronous);
        assert_eq!(v.roots, 2);
        assert!(v.separately_compilable());
    }

    #[test]
    fn ltta_design_is_isochronous_but_not_endochronous() {
        let stage1 = stdlib::buffer_pair().instantiate(
            "bus1",
            &[("y", "yw"), ("b", "bw"), ("yo", "ym"), ("bo", "bm")],
        );
        let stage2 = stdlib::buffer_pair().instantiate(
            "bus2",
            &[("y", "ym"), ("b", "bm"), ("yo", "yr"), ("bo", "br")],
        );
        let design = Design::compose(
            "ltta",
            [stdlib::ltta_writer(), stage1, stage2, stdlib::ltta_reader()],
        )
        .expect("builds");
        let v = design.verdict();
        assert!(v.components_endochronous, "{v}");
        assert!(v.weakly_hierarchic, "{v}");
        assert!(!v.endochronous);
        assert_eq!(v.roots, 4);
    }

    #[test]
    fn a_single_endochronous_component_is_a_trivial_design() {
        let design = Design::new(stdlib::buffer()).expect("builds");
        let v = design.verdict();
        assert!(v.endochronous);
        assert!(v.weakly_hierarchic);
        assert_eq!(v.component_count, 1);
    }

    #[test]
    fn extending_a_design_rechecks_the_criterion() {
        let design =
            Design::compose("main", [stdlib::producer(), stdlib::consumer()]).expect("builds");
        // Add a second consumer reading the first consumer's output v
        // through a renamed instance (the paper's main2).
        let extra =
            stdlib::consumer().instantiate("consumer2", &[("b", "c"), ("x", "v"), ("v", "w")]);
        let extended = design.extend(extra).expect("extends");
        assert_eq!(extended.components().len(), 3);
        assert!(
            extended.verdict().weakly_hierarchic,
            "{}",
            extended.verdict()
        );
    }

    #[test]
    fn a_non_endochronous_component_fails_the_criterion() {
        use signal_lang::{Expr, ProcessBuilder};
        // A lone default over unrelated inputs is not hierarchic.
        let loose = ProcessBuilder::new("loose")
            .define("d", Expr::var("y").default(Expr::var("z")))
            .build()
            .unwrap();
        let design = Design::compose("bad", [loose, stdlib::filter()]).expect("builds");
        let v = design.verdict();
        assert!(!v.components_endochronous);
        assert!(!v.weakly_hierarchic);
        assert!(!v.isochronous);
    }

    #[test]
    fn empty_designs_are_rejected() {
        assert!(matches!(
            Design::compose("none", Vec::<ProcessDef>::new()),
            Err(DesignError::Empty)
        ));
    }

    #[test]
    fn chains_scale_and_remain_weakly_hierarchic() {
        let design = Design::compose("chain", chain_of_pairs(3)).expect("builds");
        assert_eq!(design.components().len(), 6);
        assert!(design.is_weakly_hierarchic());
        assert_eq!(design.verdict().roots, 6);
    }

    #[test]
    fn a_verified_design_deploys_on_threads_and_conforms() {
        let design =
            Design::compose("main", [stdlib::producer(), stdlib::consumer()]).expect("builds");
        let mut deployment = design.deploy().expect("the design is verified");
        deployment.set_capacity(4).expect("nonzero");
        deployment.feed("a", [true, false, true, false, true]);
        deployment.feed("b", [false, true, false, true, false]);
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.stats().components.len(), 2);
        assert_eq!(
            outcome
                .flow("v")
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 5, 6]
        );
        let report = outcome.check_conformance().expect("reference registered");
        assert!(report.is_isochronous(), "{report}");
    }

    #[test]
    fn unverified_designs_are_refused_deployment() {
        use signal_lang::{Expr, ProcessBuilder};
        let loose = ProcessBuilder::new("loose")
            .define("d", Expr::var("y").default(Expr::var("z")))
            .build()
            .unwrap();
        let design = Design::compose("bad", [loose, stdlib::filter()]).expect("builds");
        assert!(matches!(
            design.deploy(),
            Err(DesignError::NotVerified(ref n)) if n == "bad"
        ));
        // The unchecked path still assembles a deployment for divergence
        // experiments.
        assert_eq!(design.deploy_unchecked().machine_count(), 2);
    }

    #[test]
    fn stdlib_designs_derive_finite_bounds_for_every_edge() {
        for design in [
            Design::compose("main", [stdlib::producer(), stdlib::consumer()]).unwrap(),
            crate::library::buffer_pipeline_design(3).unwrap(),
            crate::library::ltta_design().unwrap(),
            Design::compose("chain", chain_of_pairs(2)).unwrap(),
        ] {
            let analysis = design.capacity_analysis().expect("verified design");
            assert!(analysis.is_fully_bounded(), "{}: {analysis}", design.name());
            assert!(!analysis.bounds().is_empty(), "{}", design.name());
            for (signal, capacity) in analysis.bounds() {
                assert!(
                    (1..=2).contains(&capacity.bound),
                    "{}: {signal} got bound {}",
                    design.name(),
                    capacity.bound
                );
            }
        }
    }

    #[test]
    fn derived_deployment_reports_provenance_and_conforms() {
        let design =
            Design::compose("main", [stdlib::producer(), stdlib::consumer()]).expect("builds");
        let mut deployment = design.deploy_derived().expect("verified");
        let topology = deployment.topology().expect("bounded");
        for spec in &topology.channels {
            assert_eq!(spec.source, gals_rt::CapacitySource::Derived);
            assert!(spec.derivation.is_some(), "{}", spec.signal);
        }
        deployment.feed("a", [true, false, true, false, true]);
        deployment.feed("b", [false, true, false, true, false]);
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.stats().sizing, gals_rt::ChannelSizing::Derived);
        let report = outcome.check_conformance().expect("reference registered");
        assert!(report.is_isochronous(), "{report}");
    }

    #[test]
    fn unverified_designs_cannot_derive_capacities() {
        use signal_lang::{Expr, ProcessBuilder};
        let loose = ProcessBuilder::new("loose")
            .define("d", Expr::var("y").default(Expr::var("z")))
            .build()
            .unwrap();
        let design = Design::compose("bad", [loose, stdlib::filter()]).expect("builds");
        assert_eq!(
            design.capacity_analysis().unwrap_err(),
            gals_rt::DeployError::NotVerified("bad".into())
        );
        assert!(matches!(
            design.deploy_derived(),
            Err(DesignError::NotVerified(ref n)) if n == "bad"
        ));
    }

    #[test]
    fn stored_artifacts_match_a_fresh_derivation() {
        use crate::library;
        use signal_lang::{Expr, ProcessBuilder};
        let loose_default = || {
            let loose = ProcessBuilder::new("loose")
                .define("d", Expr::var("y").default(Expr::var("z")))
                .build()
                .unwrap();
            Design::compose("bad", [loose, stdlib::filter()])
        };
        let builds: [&dyn Fn() -> Result<Design, DesignError>; 9] = [
            &library::producer_consumer_design,
            &library::filter_merge_design,
            &library::ltta_design,
            &library::buffer_design,
            &|| library::buffer_pipeline_design(3),
            &library::multirate_design,
            &library::primed_loop_design,
            &library::unprimed_loop_design,
            &loose_default,
        ];
        let programs = |design: &Design| -> Vec<String> {
            design
                .components()
                .iter()
                .map(|c| format!("{:?}", c.step_program()))
                .collect()
        };
        for build in builds {
            // Two identical designs derive their artifacts in opposite
            // orders: `stored` gets its capacity analysis and edge clocks
            // as a side effect of the prediction, `fresh` one at a time.
            let stored = build().unwrap();
            let fresh = build().unwrap();
            let name = stored.name().to_string();
            let prediction = stored.performance_prediction();
            let capacity = stored.capacity_analysis();
            let edges = stored.edge_clocks().clone();
            let stored_programs = programs(&stored);

            assert_eq!(programs(&fresh), stored_programs, "{name}");
            assert_eq!(fresh.edge_clocks(), &edges, "{name}");
            assert_eq!(fresh.capacity_analysis(), capacity, "{name}");
            assert_eq!(fresh.performance_prediction(), prediction, "{name}");

            assert_eq!(stored.performance_prediction(), prediction, "{name}");
            assert_eq!(stored.capacity_analysis(), capacity, "{name}");
            assert_eq!(stored.edge_clocks(), &edges, "{name}");
            assert_eq!(programs(&stored), stored_programs, "{name}");
            // Later calls read the one stored instance, not a re-derivation.
            assert!(std::ptr::eq(stored.prediction(), stored.prediction()));
            assert!(std::ptr::eq(stored.capacity(), stored.capacity()));
            assert!(std::ptr::eq(stored.edge_clocks(), stored.edge_clocks()));
            for component in stored.components() {
                assert!(std::ptr::eq(component.program(), component.program()));
            }

            match name.as_str() {
                "bad" => assert_eq!(capacity, Err(DeployError::NotVerified(name.clone()))),
                "unprimed_loop" => assert!(
                    matches!(capacity, Err(DeployError::UnprimedCycle(_))),
                    "{capacity:?}"
                ),
                _ => assert!(capacity.is_ok(), "{name}: {capacity:?}"),
            }
        }
    }

    #[test]
    fn designs_can_be_shared_across_threads() {
        fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<Design>();
    }

    #[test]
    fn activation_finds_autonomous_roots_only() {
        // The buffer is paced by its own alternating state: one autonomous
        // root, activated through one of its state signals.
        let buffer = Component::new(stdlib::buffer()).expect("builds");
        assert_eq!(buffer.activation().len(), 1);
        // The producer is paced by its input a: no autonomous root.
        let producer = Component::new(stdlib::producer()).expect("builds");
        assert!(producer.activation().is_empty());
    }

    #[test]
    fn components_expose_generated_artefacts() {
        let component = Component::new(stdlib::buffer()).expect("builds");
        assert!(component.is_endochronous());
        assert!(!component.step_program().is_empty());
        assert!(component.emit_c().contains("buffer_iterate"));
        let mut rt = component.runtime();
        rt.feed("y", [true, false]);
        assert!(rt.run(10) >= 2);
    }
}
