//! # helios-workloads — synthetic benchmark kernels
//!
//! The paper evaluates on SPEC CPU2017 (speed) and MiBench (large inputs),
//! neither of which can be redistributed or cross-compiled here. Per the
//! substitution policy in DESIGN.md, every benchmark is replaced by a
//! hand-written RV64 kernel — assembled with `helios-isa` — that reproduces
//! the *fusion-relevant* behaviour of the original: its mix of memory / ALU /
//! control µ-ops, its load-pair and store-pair idom density, its
//! non-consecutive same-cache-line access patterns, and its stall character
//! (e.g. `xz_1`'s store-queue pressure, `bitcount`/`susan`/`xz_2`'s
//! non-memory-idiom dominance, `mcf`'s pointer chasing).
//!
//! Every kernel self-validates: it reports one or more checksums through the
//! emulator's `write` ecall, and each [`Workload`] carries the expected
//! values computed by a Rust reference implementation of the same algorithm.
//!
//! # Examples
//!
//! ```
//! let w = helios_workloads::workload("dijkstra").expect("registered");
//! w.validate().expect("kernel output matches the Rust reference");
//! ```

mod kernels;

pub use kernels::{all_workloads, workload};

use helios_emu::{Cpu, EmuError, RetireStream, StoreError, Trace, TraceStore};
use helios_isa::{Asm, Program, Reg};

/// Which of the paper's suites a workload mirrors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// SPEC CPU2017-like kernels.
    SpecLike,
    /// MiBench-like kernels.
    MiBenchLike,
}

/// A runnable benchmark kernel with its self-validation reference.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name as used in the paper's figures (e.g. `"657.xz_1"`).
    pub name: &'static str,
    /// Suite it mirrors.
    pub suite: Suite,
    /// The assembled program.
    pub program: Program,
    /// Expected `write`-ecall outputs (the kernel's checksums).
    pub expected: Vec<u64>,
    /// µ-op budget that comfortably covers the kernel's dynamic length.
    pub fuel: u64,
}

impl Workload {
    /// A retired-µ-op stream for feeding the pipeline model.
    pub fn stream(&self) -> RetireStream {
        RetireStream::new(self.program.clone(), self.fuel)
    }

    /// Records the kernel's retired-µ-op trace in memory, for replay under
    /// any number of pipeline configurations (`trace.replay()` per run).
    /// Sweeps that run a workload more than once per *process lifetime*
    /// should prefer [`Workload::stored`], which persists the recording in
    /// a content-addressed [`TraceStore`].
    ///
    /// # Errors
    ///
    /// Propagates emulation faults; a kernel that fails to halt within its
    /// `fuel` budget is an error, never a silently truncated trace.
    pub fn trace(&self) -> Result<Trace, EmuError> {
        Trace::record(self.program.clone(), self.fuel)
    }

    /// The kernel's trace from `store`, recorded on first demand and a pure
    /// (verified) disk hit ever after — across threads, processes, and
    /// sweeps.
    ///
    /// # Errors
    ///
    /// See [`TraceStore::get_or_record`].
    pub fn stored(&self, store: &TraceStore) -> Result<Trace, StoreError> {
        store.get_or_record(self.name, &self.program, self.fuel)
    }

    /// Runs the kernel functionally and checks its checksums against the
    /// Rust reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch or emulation failure.
    pub fn validate(&self) -> Result<(), String> {
        let mut cpu = Cpu::new(self.program.clone());
        cpu.run(self.fuel)
            .map_err(|e| format!("{}: {e}", self.name))?;
        if cpu.output() != self.expected.as_slice() {
            return Err(format!(
                "{}: checksum mismatch: got {:?}, expected {:?}",
                self.name,
                cpu.output(),
                self.expected
            ));
        }
        Ok(())
    }

    /// Dynamic instruction count (runs the emulator once).
    pub fn dynamic_length(&self) -> u64 {
        let mut cpu = Cpu::new(self.program.clone());
        cpu.run(self.fuel).unwrap_or(self.fuel)
    }
}

/// Emits `value-in-src` to the output log (`write` ecall) clobbering
/// `a0`/`a7`.
pub(crate) fn emit_output(a: &mut Asm, src: Reg) {
    if src != Reg::A0 {
        a.mv(Reg::A0, src);
    }
    a.li(Reg::A7, 64);
    a.ecall();
}

/// Emits a standard function prologue saving `ra` and the given s-registers:
/// the canonical GCC pattern that generates store-pair idioms. Returns the
/// frame size.
pub(crate) fn prologue(a: &mut Asm, saved: &[Reg]) -> i32 {
    let frame = (((saved.len() + 1) * 8 + 15) & !15) as i32;
    a.addi(Reg::SP, Reg::SP, -frame);
    a.sd(Reg::RA, frame - 8, Reg::SP);
    for (i, &r) in saved.iter().enumerate() {
        a.sd(r, frame - 16 - (i as i32) * 8, Reg::SP);
    }
    frame
}

/// Emits the matching epilogue (load-pair idioms) and `ret`.
pub(crate) fn epilogue(a: &mut Asm, saved: &[Reg], frame: i32) {
    a.ld(Reg::RA, frame - 8, Reg::SP);
    for (i, &r) in saved.iter().enumerate() {
        a.ld(r, frame - 16 - (i as i32) * 8, Reg::SP);
    }
    a.addi(Reg::SP, Reg::SP, frame);
    a.ret();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_named_like_the_paper() {
        let all = all_workloads();
        assert!(all.len() >= 30, "paper evaluates 32 applications");
        for expect in [
            "600.perlbench_1",
            "602.gcc_1",
            "605.mcf",
            "657.xz_1",
            "657.xz_2",
            "dijkstra",
            "qsort",
            "susan",
            "typeset",
        ] {
            assert!(
                all.iter().any(|w| w.name == expect),
                "missing workload {expect}"
            );
        }
        // Each name looks up its own kernel.
        for w in &all {
            assert_eq!(workload(w.name).map(|k| k.name), Some(w.name));
        }
        // Names unique.
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload("crc32").is_some());
        assert!(workload("not-a-benchmark").is_none());
    }
}
