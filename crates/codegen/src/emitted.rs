//! Compiling and driving the emitted Rust machine.
//!
//! [`EmittedMachine`] closes the code-generation loop: it writes the
//! [`emit_rust_harness`] source to a
//! scratch directory, compiles it with the `rustc` of the toolchain, and
//! speaks the harness line protocol over the child's stdin/stdout —
//! exposing the running binary behind [`gals_rt::StepMachine`], so the
//! generated artifact deploys exactly like the interpreter and the
//! compiled runtime do.

use std::io::{BufRead as _, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use signal_lang::{Name, Value};

use crate::emit_rust::emit_rust_harness;
use crate::ir::StepProgram;

/// A monotonically increasing component of the scratch-directory name, so
/// concurrent tests never collide on the same path.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// An emitted-Rust step machine: a compiled child process driven over the
/// harness line protocol.
///
/// Dropping the machine asks the child to exit and reaps it.
#[derive(Debug)]
pub struct EmittedMachine {
    name: String,
    inputs: Vec<Name>,
    outputs: Vec<Name>,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    produced: Vec<Vec<Value>>,
}

impl EmittedMachine {
    /// Emits, compiles (`rustc --edition 2021 -O`) and spawns the machine
    /// of a step program.
    ///
    /// # Errors
    ///
    /// Returns a rendered message when the scratch files cannot be
    /// written, the compiler fails, or the child cannot be spawned.
    pub fn build(program: &StepProgram) -> Result<EmittedMachine, String> {
        let binary = compile_binary(program)?;
        EmittedMachine::spawn(program, &binary)
    }

    /// Spawns a machine from an already compiled harness binary (see
    /// [`compile_binary`]) — lets a differential test compile each
    /// program once and spawn a fresh process per case.
    ///
    /// # Errors
    ///
    /// Returns a rendered message when the child cannot be spawned.
    pub fn spawn(
        program: &StepProgram,
        binary: &std::path::Path,
    ) -> Result<EmittedMachine, String> {
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdin = child.stdin.take().ok_or("child stdin unavailable")?;
        let stdout = child.stdout.take().ok_or("child stdout unavailable")?;
        Ok(EmittedMachine {
            name: program.name.clone(),
            inputs: program.inputs.clone(),
            outputs: program.outputs.clone(),
            child,
            stdin,
            stdout: BufReader::new(stdout),
            produced: program.outputs.iter().map(|_| Vec::new()).collect(),
        })
    }

    fn read_line(&mut self) -> Result<String, gals_rt::StepFault> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err(gals_rt::StepFault::Fault(
                "emitted machine exited unexpectedly".into(),
            )),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(gals_rt::StepFault::Fault(format!(
                "reading emitted machine: {e}"
            ))),
        }
    }
}

impl Drop for EmittedMachine {
    fn drop(&mut self) {
        let _ = writeln!(self.stdin, "exit");
        let _ = self.stdin.flush();
        let _ = self.child.wait();
    }
}

impl gals_rt::StepMachine for EmittedMachine {
    fn machine_name(&self) -> &str {
        &self.name
    }

    fn input_signals(&self) -> Vec<Name> {
        self.inputs.clone()
    }

    fn output_signals(&self) -> Vec<Name> {
        self.outputs.clone()
    }

    fn feed(&mut self, port: usize, value: Value) {
        if port < self.inputs.len() {
            let _ = writeln!(self.stdin, "feed {port} {}", render_value(value));
        }
    }

    fn try_step(&mut self) -> Result<(), gals_rt::StepFault> {
        writeln!(self.stdin, "step")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| gals_rt::StepFault::Fault(format!("writing to emitted machine: {e}")))?;
        let line = self.read_line()?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["ok"] => {
                for _ in 0..self.outputs.len() {
                    let line = self.read_line()?;
                    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                        [_, _, "-"] => {}
                        ["out", index, tok] => {
                            let index: usize = index.parse().map_err(|_| {
                                gals_rt::StepFault::Fault(format!("bad output index: {line}"))
                            })?;
                            let value = parse_value(tok).ok_or_else(|| {
                                gals_rt::StepFault::Fault(format!("bad output token: {line}"))
                            })?;
                            self.produced[index].push(value);
                        }
                        _ => {
                            return Err(gals_rt::StepFault::Fault(format!(
                                "unexpected response: {line}"
                            )))
                        }
                    }
                }
                Ok(())
            }
            ["need", index] => match index.parse::<usize>() {
                Ok(port) if port < self.inputs.len() => Err(gals_rt::StepFault::NeedInput(port)),
                _ => Err(gals_rt::StepFault::Fault(format!(
                    "bad input index: {line}"
                ))),
            },
            ["fault"] => Err(gals_rt::StepFault::Fault("emitted machine faulted".into())),
            _ => Err(gals_rt::StepFault::Fault(format!(
                "unexpected response: {line}"
            ))),
        }
    }

    fn output(&self, port: usize) -> &[Value] {
        self.produced.get(port).map_or(&[], Vec::as_slice)
    }
}

/// Emits the harness source of a program and compiles it with `rustc`,
/// returning the path of the resulting binary (under a per-call scratch
/// directory inside the system temp dir).
///
/// # Errors
///
/// Returns a rendered message when the scratch files cannot be written or
/// the compiler rejects the generated source (with its stderr attached —
/// a bug in the emitter).
pub fn compile_binary(program: &StepProgram) -> Result<PathBuf, String> {
    let scratch = std::env::temp_dir().join(format!(
        "emitted-{}-{}-{}",
        program.name,
        std::process::id(),
        SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating scratch dir: {e}"))?;
    let source = scratch.join(format!("{}.rs", program.name));
    std::fs::write(&source, emit_rust_harness(program))
        .map_err(|e| format!("writing generated source: {e}"))?;
    let binary = scratch.join(&program.name);
    let output = Command::new("rustc")
        .arg("--edition")
        .arg("2021")
        .arg("-O")
        .arg("-o")
        .arg(&binary)
        .arg(&source)
        .output()
        .map_err(|e| format!("running rustc: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "rustc rejected the generated source for {}:\n{}",
            program.name,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(binary)
}

fn render_value(v: Value) -> String {
    match v {
        Value::Bool(true) => "t".to_string(),
        Value::Bool(false) => "f".to_string(),
        Value::Int(n) => n.to_string(),
    }
}

fn parse_value(tok: &str) -> Option<Value> {
    match tok {
        "t" => Some(Value::Bool(true)),
        "f" => Some(Value::Bool(false)),
        n => n.parse().ok().map(Value::Int),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::generate_from_kernel;
    use gals_rt::{StepFault, StepMachine};
    use signal_lang::stdlib;

    #[test]
    fn the_emitted_buffer_compiles_and_runs_behind_step_machine() {
        let program = generate_from_kernel(&stdlib::buffer().normalize().unwrap());
        let mut machine = EmittedMachine::build(&program).expect("compiles and spawns");
        assert_eq!(machine.machine_name(), "buffer");
        assert_eq!(machine.input_signals(), vec![Name::from("y")]);
        for v in [true, false, true] {
            machine.feed_value("y", Value::Bool(v));
        }
        let mut steps = 0;
        loop {
            match machine.try_step() {
                Ok(()) => steps += 1,
                Err(StepFault::NeedInput(_)) => break,
                Err(fault) => panic!("unexpected fault: {fault}"),
            }
        }
        assert!(steps >= 6, "only {steps} steps completed");
        assert_eq!(
            machine.produced("x"),
            &[Value::Bool(true), Value::Bool(false), Value::Bool(true)]
        );
        // A stalled step left the machine retryable.
        machine.feed_value("y", Value::Bool(false));
        let mut resumed = false;
        while machine.try_step().is_ok() {
            resumed = true;
        }
        assert!(resumed);
        assert_eq!(machine.produced("x").len(), 4);
    }
}
