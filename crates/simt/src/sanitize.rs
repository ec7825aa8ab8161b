//! cuda-memcheck-style launch analysis: shadow-memory race,
//! `ldg`-coherence, bounds and initialization checking over the kernel
//! surface.
//!
//! [`SanitizeBackend`] wraps any [`Backend`] and interposes a
//! [`SanitizeCtx`] between kernel bodies and the real execution context.
//! Every global-memory operation is forwarded *unchanged* to the inner
//! context — traces, timing and functional results are identical to an
//! unsanitized run — while a per-launch shadow log records `(address,
//! thread, kind, value)` tuples. When the launch returns, the log is
//! analyzed and structured [`Finding`]s are appended to a cumulative
//! [`SanitizerReport`].
//!
//! # Finding classes
//!
//! * **Plain races** — two different threads touch the same word in one
//!   launch, at least one with a plain [`KernelCtx::st`]
//!   ([`FindingKind::LdStRace`], [`FindingKind::StStRace`]). A
//!   write/write conflict where every thread stores the *same* value is
//!   suppressed: idempotent flag writes (`changed = 1`, `colored[u] = 0`
//!   from several edge threads) are a deliberate, convergent GPU idiom.
//! * **Speculative warp races** — conflicts involving
//!   [`KernelCtx::st_warp`] against loads or other `st_warp`s are
//!   reported as *expected-benign* ([`FindingKind::WarpSpecRace`]): this
//!   is the paper's documented lockstep race on `color[v]`, resolved by
//!   the schemes' own conflict-detection rounds. An `st_warp` meeting a
//!   *plain* store is still harmful ([`FindingKind::WarpPlainStore`]) —
//!   mixing the two visibility disciplines on one word is never intended.
//! * **`ldg` coherence** — any [`KernelCtx::ldg`] from a buffer that is
//!   also stored to in the same launch ([`FindingKind::LdgCoherence`]),
//!   regardless of thread or word: the read-only cache is incoherent
//!   with in-flight stores on real hardware.
//! * **Bounds and initialization** — an index past the buffer's length
//!   ([`FindingKind::OutOfBounds`]; the access is trapped, loads return
//!   zero and stores are dropped) and a read of an
//!   [`GpuMem::alloc_uninit`] word never written by host or device
//!   ([`FindingKind::UninitRead`]). The initialized-word bitmap is
//!   seeded by host writes (the h2d data path) and updated by every
//!   device store.
//! * **Mixed atomic/plain access** — one word touched by both an
//!   `atomic_*` RMW and a plain load/store from different threads
//!   ([`FindingKind::MixedAtomic`]).
//! * **Shared-memory races** — two threads of the same block touch one
//!   scratchpad word, at least one storing ([`FindingKind::SmemRace`]).
//!   The simulator's lane-ordered visibility makes such kernels appear
//!   to work; on lockstep hardware they would not.
//!
//! Findings carry the kernel name, the scheme context (see
//! [`SanitizeBackend::set_context`]), the buffer label (see
//! [`GpuMem::set_label`]), the word index *within the buffer*, and the
//! two conflicting thread ids, so a report line points straight at the
//! offending access pair. Within a report, findings are deduplicated per
//! (kind, kernel, buffer): the first representative word/thread pair is
//! kept and an occurrence count accumulates.

use crate::backend::Backend;
use crate::kernel::{CoopKernel, Kernel, KernelCtx};
use crate::mem::{Buffer, GpuMem, Word};
use crate::profile::RunProfile;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// What a shadow-log entry did to its word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AccessKind {
    /// Plain global load.
    Ld,
    /// Read-only-cache load.
    Ldg,
    /// Plain global store.
    St,
    /// Warp-deferred speculative store.
    StWarp,
    /// Atomic read-modify-write.
    Atomic,
}

impl AccessKind {
    fn is_store(self) -> bool {
        matches!(
            self,
            AccessKind::St | AccessKind::StWarp | AccessKind::Atomic
        )
    }
}

/// One recorded global-memory access.
#[derive(Debug, Clone, Copy)]
struct Event {
    addr: u32,
    thread: u32,
    kind: AccessKind,
    /// Stored bits (meaningful for `St`; used for the same-value
    /// write/write suppression).
    value: u32,
}

/// One recorded shared-memory access.
#[derive(Debug, Clone, Copy)]
struct SmemEvent {
    block: u32,
    word: u32,
    thread: u32,
    store: bool,
}

/// A bounds/init violation detected at access time (the exact word index
/// is only known there, before address resolution).
#[derive(Debug, Clone)]
struct Immediate {
    kind: FindingKind,
    buffer: String,
    word: usize,
    thread: u32,
}

/// The class of a sanitizer [`Finding`]. Serializes as the variant name
/// (`"WarpSpecRace"`), which is what the checked-in CI baselines key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FindingKind {
    /// Two threads plain-store conflicting values to one word.
    StStRace,
    /// One thread plain-stores a word another thread loads.
    LdStRace,
    /// A speculative `st_warp` conflicts with a load or another
    /// `st_warp` — the paper's documented benign lockstep race.
    WarpSpecRace,
    /// A speculative `st_warp` conflicts with a *plain* store.
    WarpPlainStore,
    /// One word accessed both atomically and with plain loads/stores by
    /// different threads.
    MixedAtomic,
    /// An `ldg` from a buffer also stored to in the same launch.
    LdgCoherence,
    /// An access past the end of a buffer.
    OutOfBounds,
    /// A load of a word never written since [`GpuMem::alloc_uninit`].
    UninitRead,
    /// Two threads of a block conflict on a shared-memory word.
    SmemRace,
}

impl FindingKind {
    /// Whether this class is expected-benign (the documented `st_warp`
    /// speculation race) rather than a bug.
    pub fn is_benign(self) -> bool {
        matches!(self, FindingKind::WarpSpecRace)
    }

    /// Short human-readable description of the class.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::StStRace => "plain st/st race (conflicting values)",
            FindingKind::LdStRace => "plain ld/st race",
            FindingKind::WarpSpecRace => "st_warp speculative race (expected-benign)",
            FindingKind::WarpPlainStore => "st_warp vs plain st on one word",
            FindingKind::MixedAtomic => "mixed atomic/plain access",
            FindingKind::LdgCoherence => "ldg from a buffer written in the same launch",
            FindingKind::OutOfBounds => "out-of-bounds access",
            FindingKind::UninitRead => "read before initialization",
            FindingKind::SmemRace => "shared-memory race",
        }
    }
}

/// One analyzed violation (or benign-race observation).
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// The violation class.
    pub kind: FindingKind,
    /// Scheme context set via [`SanitizeBackend::set_context`] ("" if
    /// unset).
    pub context: String,
    /// Name of the launched kernel.
    pub kernel: String,
    /// Label of the buffer ([`GpuMem::set_label`]), `"alloc#k"` default,
    /// or `"smem"` for shared-memory findings.
    pub buffer: String,
    /// Word index *within the buffer* of the representative conflict
    /// (for [`FindingKind::OutOfBounds`]: the offending index itself).
    pub word: usize,
    /// The two conflicting thread ids (equal for single-thread findings
    /// like out-of-bounds).
    pub threads: (u32, u32),
    /// How many deduplicated occurrences this finding stands for.
    pub occurrences: u64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = if self.kind.is_benign() {
            "benign "
        } else {
            "HARMFUL"
        };
        write!(f, "[{sev}] {}: kernel `{}`", self.kind.label(), self.kernel)?;
        if !self.context.is_empty() {
            write!(f, " (scheme {})", self.context)?;
        }
        write!(
            f,
            ", buffer `{}` word {}, threads {}/{}",
            self.buffer, self.word, self.threads.0, self.threads.1
        )?;
        if self.occurrences > 1 {
            write!(f, " (x{})", self.occurrences)?;
        }
        Ok(())
    }
}

/// The cumulative result of every launch analyzed by a
/// [`SanitizeBackend`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct SanitizerReport {
    /// Deduplicated findings in discovery order.
    pub findings: Vec<Finding>,
}

impl SanitizerReport {
    /// Whether the report contains no harmful findings (benign
    /// `st_warp` speculation races are allowed).
    pub fn is_clean(&self) -> bool {
        self.harmful().next().is_none()
    }

    /// The harmful findings.
    pub fn harmful(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.kind.is_benign())
    }

    /// The expected-benign findings.
    pub fn benign(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.kind.is_benign())
    }

    /// Absorbs another report's findings, deduplicating per
    /// (kind, context, kernel, buffer).
    pub fn merge(&mut self, other: SanitizerReport) {
        for f in other.findings {
            push_dedup(&mut self.findings, f);
        }
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let harmful = self.harmful().count();
        let benign = self.benign().count();
        writeln!(
            f,
            "sanitizer report: {harmful} harmful, {benign} benign finding(s)"
        )?;
        for finding in self.harmful().chain(self.benign()) {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

fn push_dedup(findings: &mut Vec<Finding>, f: Finding) {
    let existing = findings.iter_mut().find(|e| {
        e.kind == f.kind && e.context == f.context && e.kernel == f.kernel && e.buffer == f.buffer
    });
    match existing {
        Some(e) => e.occurrences += f.occurrences,
        None => findings.push(f),
    }
}

/// Up to two *distinct* thread ids, kept in first-seen order.
#[derive(Debug, Clone, Copy, Default)]
struct Pair {
    a: Option<u32>,
    b: Option<u32>,
}

impl Pair {
    fn add(&mut self, t: u32) {
        match self.a {
            None => self.a = Some(t),
            Some(x) if x == t => {}
            Some(_) => {
                if self.b.is_none() {
                    self.b = Some(t);
                }
            }
        }
    }

    /// Two distinct threads within this set.
    fn two(&self) -> Option<(u32, u32)> {
        Some((self.a?, self.b?))
    }

    /// Two distinct threads, one from `self` and one from `other`.
    fn cross(&self, other: &Pair) -> Option<(u32, u32)> {
        let a1 = self.a?;
        let b1 = other.a?;
        if a1 != b1 {
            return Some((a1, b1));
        }
        if let Some(b2) = other.b {
            return Some((a1, b2));
        }
        if let Some(a2) = self.b {
            return Some((a2, b1));
        }
        None
    }
}

/// Per-launch shadow state: the access logs one launch accumulates and
/// the memory they resolve against.
struct LaunchShadow<'m> {
    mem: &'m GpuMem,
    events: Mutex<Vec<Event>>,
    smem: Mutex<Vec<SmemEvent>>,
    immediate: Mutex<Vec<Immediate>>,
}

impl<'m> LaunchShadow<'m> {
    fn new(mem: &'m GpuMem) -> Self {
        Self {
            mem,
            events: Mutex::new(Vec::new()),
            smem: Mutex::new(Vec::new()),
            immediate: Mutex::new(Vec::new()),
        }
    }

    /// Runs every analysis over the launch's logs and returns the
    /// (per-launch-deduplicated) findings.
    fn analyze(self, kernel: &str, context: &str) -> Vec<Finding> {
        let mem = self.mem;
        let mut findings: Vec<Finding> = Vec::new();

        for imm in self.immediate.into_inner().unwrap() {
            push_dedup(
                &mut findings,
                Finding {
                    kind: imm.kind,
                    context: context.to_string(),
                    kernel: kernel.to_string(),
                    buffer: imm.buffer,
                    word: imm.word,
                    threads: (imm.thread, imm.thread),
                    occurrences: 1,
                },
            );
        }

        let mut events = self.events.into_inner().unwrap();
        // Full sort makes the analysis (and the representative thread
        // pair each finding names) deterministic regardless of the
        // host-thread interleaving that produced the log.
        events.sort_unstable_by_key(|e| (e.addr, e.kind, e.thread, e.value));

        let resolve = |addr: u32| -> (String, usize) {
            match mem.alloc_info(addr as usize) {
                Some(a) => (a.label.clone(), addr as usize - a.base),
                None => ("unknown".to_string(), addr as usize),
            }
        };
        let mut push = |kind: FindingKind, buffer: String, word: usize, threads: (u32, u32)| {
            push_dedup(
                &mut findings,
                Finding {
                    kind,
                    context: context.to_string(),
                    kernel: kernel.to_string(),
                    buffer,
                    word,
                    threads,
                    occurrences: 1,
                },
            );
        };

        // Pass 1: per-address race classification.
        let mut i = 0;
        while i < events.len() {
            let addr = events[i].addr;
            let mut j = i;
            let mut readers = Pair::default();
            let mut plain_st = Pair::default();
            let mut warp_st = Pair::default();
            let mut atomics = Pair::default();
            let mut st_value: Option<u32> = None;
            let mut st_values_differ = false;
            while j < events.len() && events[j].addr == addr {
                let e = events[j];
                match e.kind {
                    AccessKind::Ld | AccessKind::Ldg => readers.add(e.thread),
                    AccessKind::St => {
                        plain_st.add(e.thread);
                        match st_value {
                            None => st_value = Some(e.value),
                            Some(v) if v != e.value => st_values_differ = true,
                            Some(_) => {}
                        }
                    }
                    AccessKind::StWarp => warp_st.add(e.thread),
                    AccessKind::Atomic => atomics.add(e.thread),
                }
                j += 1;
            }
            let has_conflict = (st_values_differ && plain_st.two().is_some())
                || plain_st.cross(&readers).is_some()
                || warp_st.two().is_some()
                || warp_st.cross(&readers).is_some()
                || warp_st.cross(&plain_st).is_some()
                || atomics.cross(&readers).is_some()
                || atomics.cross(&plain_st).is_some()
                || atomics.cross(&warp_st).is_some();
            if has_conflict {
                let (buffer, word) = resolve(addr);
                if st_values_differ {
                    if let Some(t) = plain_st.two() {
                        push(FindingKind::StStRace, buffer.clone(), word, t);
                    }
                }
                if let Some(t) = plain_st.cross(&readers) {
                    push(FindingKind::LdStRace, buffer.clone(), word, t);
                }
                if let Some(t) = warp_st.two().or_else(|| warp_st.cross(&readers)) {
                    push(FindingKind::WarpSpecRace, buffer.clone(), word, t);
                }
                if let Some(t) = warp_st.cross(&plain_st) {
                    push(FindingKind::WarpPlainStore, buffer.clone(), word, t);
                }
                if let Some(t) = atomics
                    .cross(&readers)
                    .or_else(|| atomics.cross(&plain_st))
                    .or_else(|| atomics.cross(&warp_st))
                {
                    push(FindingKind::MixedAtomic, buffer, word, t);
                }
            }
            i = j;
        }

        // Pass 2: buffer-granularity ldg coherence — any ldg from an
        // allocation that is also stored to anywhere in this launch.
        let mut per_alloc: BTreeMap<usize, [Option<(u32, usize)>; 2]> = BTreeMap::new();
        for e in &events {
            let slot = match e.kind {
                AccessKind::Ldg => 0,
                k if k.is_store() => 1,
                _ => continue,
            };
            if let Some(info) = mem.alloc_info(e.addr as usize) {
                let entry = per_alloc.entry(info.base).or_default();
                if entry[slot].is_none() {
                    entry[slot] = Some((e.thread, e.addr as usize - info.base));
                }
            }
        }
        for (base, [ldg, store]) in per_alloc {
            if let (Some(l), Some(s)) = (ldg, store) {
                let label = mem
                    .alloc_info(base)
                    .map(|a| a.label.clone())
                    .unwrap_or_else(|| "unknown".to_string());
                push(FindingKind::LdgCoherence, label, s.1, (l.0, s.0));
            }
        }

        // Pass 3: shared-memory races per (block, word).
        let mut smem = self.smem.into_inner().unwrap();
        smem.sort_unstable_by_key(|e| (e.block, e.word, e.thread));
        let mut i = 0;
        while i < smem.len() {
            let (block, word) = (smem[i].block, smem[i].word);
            let mut j = i;
            let mut stores = Pair::default();
            let mut loads = Pair::default();
            while j < smem.len() && smem[j].block == block && smem[j].word == word {
                if smem[j].store {
                    stores.add(smem[j].thread);
                } else {
                    loads.add(smem[j].thread);
                }
                j += 1;
            }
            if let Some(t) = stores.two().or_else(|| stores.cross(&loads)) {
                push(FindingKind::SmemRace, "smem".to_string(), word as usize, t);
            }
            i = j;
        }

        findings
    }
}

/// The sanitizing [`KernelCtx`]: forwards every operation to the wrapped
/// context (so traces, timing and functional behavior are untouched)
/// while logging global and shared accesses into the launch shadow.
/// Out-of-bounds accesses are trapped *before* forwarding: loads return
/// zero, stores are dropped, and an exact-index finding is recorded.
pub struct SanitizeCtx<'a, C: KernelCtx> {
    inner: &'a mut C,
    shadow: &'a LaunchShadow<'a>,
    events: Vec<Event>,
    smem_events: Vec<SmemEvent>,
    immediate: Vec<Immediate>,
}

impl<'a, C: KernelCtx> SanitizeCtx<'a, C> {
    fn new(inner: &'a mut C, shadow: &'a LaunchShadow<'a>) -> Self {
        Self {
            inner,
            shadow,
            events: Vec::new(),
            smem_events: Vec::new(),
            immediate: Vec::new(),
        }
    }

    fn buffer_label<T: Word>(&self, buf: Buffer<T>) -> String {
        self.shadow
            .mem
            .alloc_info(buf.base_addr() as usize)
            .map(|a| a.label.clone())
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// Bounds/init checks plus event logging; returns whether the access
    /// may be forwarded to the real context.
    fn record<T: Word>(&mut self, buf: Buffer<T>, i: usize, kind: AccessKind, value: u32) -> bool {
        let thread = self.inner.global_id();
        if i >= buf.len() {
            self.immediate.push(Immediate {
                kind: FindingKind::OutOfBounds,
                buffer: self.buffer_label(buf),
                word: i,
                thread,
            });
            return false;
        }
        let addr = buf.base_addr() + i as u32;
        // Atomics read their word too, so they participate in the
        // read-before-init check.
        let reads = !kind.is_store() || kind == AccessKind::Atomic;
        if reads && !self.shadow.mem.word_init(addr as usize) {
            self.immediate.push(Immediate {
                kind: FindingKind::UninitRead,
                buffer: self.buffer_label(buf),
                word: i,
                thread,
            });
        }
        self.events.push(Event {
            addr,
            thread,
            kind,
            value,
        });
        true
    }

    /// Publishes this thread's logs into the launch shadow.
    fn commit(self) {
        if !self.events.is_empty() {
            self.shadow.events.lock().unwrap().extend(self.events);
        }
        if !self.smem_events.is_empty() {
            self.shadow.smem.lock().unwrap().extend(self.smem_events);
        }
        if !self.immediate.is_empty() {
            self.shadow.immediate.lock().unwrap().extend(self.immediate);
        }
    }
}

impl<C: KernelCtx> KernelCtx for SanitizeCtx<'_, C> {
    fn tid(&self) -> u32 {
        self.inner.tid()
    }
    fn bid(&self) -> u32 {
        self.inner.bid()
    }
    fn bdim(&self) -> u32 {
        self.inner.bdim()
    }
    fn gdim(&self) -> u32 {
        self.inner.gdim()
    }

    fn ld<T: Word>(&mut self, buf: Buffer<T>, i: usize) -> T {
        if self.record(buf, i, AccessKind::Ld, 0) {
            self.inner.ld(buf, i)
        } else {
            T::from_bits(0)
        }
    }

    fn ldg<T: Word>(&mut self, buf: Buffer<T>, i: usize) -> T {
        if self.record(buf, i, AccessKind::Ldg, 0) {
            self.inner.ldg(buf, i)
        } else {
            T::from_bits(0)
        }
    }

    fn st<T: Word>(&mut self, buf: Buffer<T>, i: usize, v: T) {
        if self.record(buf, i, AccessKind::St, v.to_bits()) {
            self.inner.st(buf, i, v);
        }
    }

    fn st_warp<T: Word>(&mut self, buf: Buffer<T>, i: usize, v: T) {
        if self.record(buf, i, AccessKind::StWarp, v.to_bits()) {
            self.inner.st_warp(buf, i, v);
        }
    }

    fn atomic_add(&mut self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        if self.record(buf, i, AccessKind::Atomic, 0) {
            self.inner.atomic_add(buf, i, v)
        } else {
            0
        }
    }

    fn atomic_max(&mut self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        if self.record(buf, i, AccessKind::Atomic, 0) {
            self.inner.atomic_max(buf, i, v)
        } else {
            0
        }
    }

    fn atomic_min(&mut self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        if self.record(buf, i, AccessKind::Atomic, 0) {
            self.inner.atomic_min(buf, i, v)
        } else {
            0
        }
    }

    fn atomic_cas(&mut self, buf: Buffer<u32>, i: usize, expected: u32, new: u32) -> u32 {
        if self.record(buf, i, AccessKind::Atomic, 0) {
            self.inner.atomic_cas(buf, i, expected, new)
        } else {
            0
        }
    }

    fn alu(&mut self, n: u32) {
        self.inner.alu(n);
    }

    fn local_reserve(&mut self, n: usize) {
        self.inner.local_reserve(n);
    }

    fn local_ld(&mut self, i: usize) -> u32 {
        self.inner.local_ld(i)
    }

    fn local_st(&mut self, i: usize, v: u32) {
        self.inner.local_st(i, v);
    }

    fn smem_ld(&mut self, i: usize) -> u32 {
        self.smem_events.push(SmemEvent {
            block: self.inner.bid(),
            word: i as u32,
            thread: self.inner.global_id(),
            store: false,
        });
        self.inner.smem_ld(i)
    }

    fn smem_st(&mut self, i: usize, v: u32) {
        self.smem_events.push(SmemEvent {
            block: self.inner.bid(),
            word: i as u32,
            thread: self.inner.global_id(),
            store: true,
        });
        self.inner.smem_st(i, v);
    }
}

/// [`Kernel`] wrapper: runs the inner body under a [`SanitizeCtx`].
struct SanitizedKernel<'a, K> {
    inner: &'a K,
    shadow: &'a LaunchShadow<'a>,
}

impl<K: Kernel> Kernel for SanitizedKernel<'_, K> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, t: &mut impl KernelCtx) {
        let mut ctx = SanitizeCtx::new(t, self.shadow);
        self.inner.run(&mut ctx);
        ctx.commit();
    }

    fn regs_per_thread(&self) -> u32 {
        self.inner.regs_per_thread()
    }

    fn smem_per_block(&self) -> u32 {
        self.inner.smem_per_block()
    }
}

/// [`CoopKernel`] wrapper: sanitizes both the count and the emit phase.
struct SanitizedCoopKernel<'a, K> {
    inner: &'a K,
    shadow: &'a LaunchShadow<'a>,
}

impl<K: CoopKernel> CoopKernel for SanitizedCoopKernel<'_, K> {
    type Carry = K::Carry;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn count(&self, t: &mut impl KernelCtx) -> (Self::Carry, u32) {
        let mut ctx = SanitizeCtx::new(t, self.shadow);
        let r = self.inner.count(&mut ctx);
        ctx.commit();
        r
    }

    fn emit(&self, t: &mut impl KernelCtx, carry: Self::Carry, dst: u32) {
        let mut ctx = SanitizeCtx::new(t, self.shadow);
        self.inner.emit(&mut ctx, carry, dst);
        ctx.commit();
    }

    fn regs_per_thread(&self) -> u32 {
        self.inner.regs_per_thread()
    }

    fn smem_per_block(&self) -> u32 {
        self.inner.smem_per_block()
    }
}

/// A [`Backend`] decorator that runs every launch under shadow-memory
/// analysis. Execution, traces and timing are those of the wrapped
/// backend; the accumulated [`SanitizerReport`] is retrieved with
/// [`SanitizeBackend::take_report`].
pub struct SanitizeBackend<B: Backend> {
    inner: B,
    context: Mutex<String>,
    report: Mutex<SanitizerReport>,
}

impl<B: Backend> SanitizeBackend<B> {
    /// Wraps `inner` with launch analysis.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            context: Mutex::new(String::new()),
            report: Mutex::new(SanitizerReport::default()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Sets the scheme context attached to subsequent findings (shown in
    /// reports; e.g. the scheme name).
    pub fn set_context(&self, context: &str) {
        *self.context.lock().unwrap() = context.to_string();
    }

    /// Takes the accumulated report, leaving an empty one behind.
    pub fn take_report(&self) -> SanitizerReport {
        std::mem::take(&mut *self.report.lock().unwrap())
    }
}

impl<B: Backend> Backend for SanitizeBackend<B> {
    fn name(&self) -> &'static str {
        "sanitize"
    }

    fn transfer_cost_ms(&self, bytes: usize) -> Option<f64> {
        // Pricing is pass-through: the sanitizer must keep modeled times
        // bit-identical to the wrapped backend.
        self.inner.transfer_cost_ms(bytes)
    }

    fn launch<K: Kernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    ) {
        let shadow = LaunchShadow::new(mem);
        let wrapped = SanitizedKernel {
            inner: kernel,
            shadow: &shadow,
        };
        self.inner
            .launch(mem, grid, block_threads, &wrapped, profile);
        let findings = shadow.analyze(kernel.name(), &self.context.lock().unwrap());
        let mut report = self.report.lock().unwrap();
        for f in findings {
            push_dedup(&mut report.findings, f);
        }
    }

    fn launch_coop<K: CoopKernel>(
        &self,
        mem: &GpuMem,
        grid: u32,
        block_threads: u32,
        kernel: &K,
        profile: &mut RunProfile,
    ) -> u32 {
        let shadow = LaunchShadow::new(mem);
        let wrapped = SanitizedCoopKernel {
            inner: kernel,
            shadow: &shadow,
        };
        let total = self
            .inner
            .launch_coop(mem, grid, block_threads, &wrapped, profile);
        let findings = shadow.analyze(kernel.name(), &self.context.lock().unwrap());
        let mut report = self.report.lock().unwrap();
        for f in findings {
            push_dedup(&mut report.findings, f);
        }
        total
    }

    fn transfer(&self, label: &'static str, bytes: usize, profile: &mut RunProfile) {
        self.inner.transfer(label, bytes, profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NativeBackend, SimtBackend};
    use crate::config::Device;
    use crate::exec::grid_for;

    fn sanitized_simt(dev: &Device) -> SanitizeBackend<SimtBackend<'_>> {
        SanitizeBackend::new(SimtBackend::new(dev))
    }

    fn launch_on<B: Backend, K: Kernel>(backend: &SanitizeBackend<B>, mem: &GpuMem, n: u32, k: &K) {
        let mut profile = RunProfile::new();
        backend.launch(mem, grid_for(n as usize, 32), 32, k, &mut profile);
    }

    /// Each thread reads its neighbor's slot, then plain-stores its own —
    /// the harmful variant of the speculative coloring pattern.
    struct PlainNeighborStore {
        data: Buffer<u32>,
    }
    impl Kernel for PlainNeighborStore {
        fn name(&self) -> &'static str {
            "plain-neighbor-store"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            let n = self.data.len();
            if i < n {
                let _ = t.ld(self.data, (i + 1) % n);
                t.st(self.data, i, 100 + i as u32);
            }
        }
    }

    /// Same access pattern, but the store is warp-deferred (`st_warp`) —
    /// the paper's benign speculative race.
    struct WarpNeighborStore {
        data: Buffer<u32>,
    }
    impl Kernel for WarpNeighborStore {
        fn name(&self) -> &'static str {
            "warp-neighbor-store"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            let n = self.data.len();
            if i < n {
                let _ = t.ld(self.data, (i + 1) % n);
                t.st_warp(self.data, i, 100 + i as u32);
            }
        }
    }

    #[test]
    fn plain_store_race_is_harmful() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let data = mem.alloc::<u32>(8);
        mem.set_label(data, "color");
        let backend = sanitized_simt(&dev);
        backend.set_context("test-scheme");
        launch_on(&backend, &mem, 8, &PlainNeighborStore { data });
        let report = backend.take_report();
        assert!(!report.is_clean(), "plain st must be flagged:\n{report}");
        let f = report.harmful().next().unwrap();
        assert_eq!(f.kind, FindingKind::LdStRace);
        assert_eq!(f.buffer, "color");
        assert_eq!(f.context, "test-scheme");
        assert_eq!(f.kernel, "plain-neighbor-store");
        assert_ne!(f.threads.0, f.threads.1);
    }

    #[test]
    fn st_warp_race_is_expected_benign() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let data = mem.alloc::<u32>(8);
        mem.set_label(data, "color");
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 8, &WarpNeighborStore { data });
        let report = backend.take_report();
        assert!(report.is_clean(), "st_warp is benign:\n{report}");
        let f = report.benign().next().expect("benign race reported");
        assert_eq!(f.kind, FindingKind::WarpSpecRace);
        assert_eq!(f.buffer, "color");
    }

    #[test]
    fn native_backend_is_sanitizable_too() {
        let mut mem = GpuMem::new();
        let data = mem.alloc::<u32>(8);
        let backend = SanitizeBackend::new(NativeBackend::new());
        launch_on(&backend, &mem, 8, &PlainNeighborStore { data });
        let report = backend.take_report();
        assert!(!report.is_clean());
        assert_eq!(report.harmful().next().unwrap().kind, FindingKind::LdStRace);
    }

    struct LdgOfWritten {
        data: Buffer<u32>,
    }
    impl Kernel for LdgOfWritten {
        fn name(&self) -> &'static str {
            "ldg-of-written"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i < self.data.len() {
                // Each thread touches only its own word, so there is no
                // per-address race — only the buffer-level ldg rule fires.
                let v = t.ldg(self.data, i);
                t.st(self.data, i, v + 1);
            }
        }
    }

    #[test]
    fn ldg_of_buffer_written_same_launch_is_flagged() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let data = mem.alloc::<u32>(4);
        mem.set_label(data, "row-offsets");
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 4, &LdgOfWritten { data });
        let report = backend.take_report();
        let kinds: Vec<_> = report.findings.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec![FindingKind::LdgCoherence], "report:\n{report}");
        assert_eq!(report.findings[0].buffer, "row-offsets");
    }

    struct OobLoad {
        data: Buffer<u32>,
    }
    impl Kernel for OobLoad {
        fn name(&self) -> &'static str {
            "oob-load"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            if t.global_id() == 0 {
                let v = t.ld(self.data, 7); // len is 4
                t.st(self.data, v as usize, v); // trapped load returns 0
            }
        }
    }

    #[test]
    fn out_of_bounds_is_flagged_with_exact_word() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let data = mem.alloc::<u32>(4);
        mem.set_label(data, "colored");
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 4, &OobLoad { data });
        let report = backend.take_report();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::OutOfBounds)
            .expect("oob finding");
        assert_eq!(f.buffer, "colored");
        assert_eq!(f.word, 7);
        // The trapped load returned 0, so the follow-up store hit word 0.
        assert_eq!(mem.load(data, 0), 0);
    }

    struct ReadSlot {
        data: Buffer<u32>,
        slot: usize,
    }
    impl Kernel for ReadSlot {
        fn name(&self) -> &'static str {
            "read-slot"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            if t.global_id() == 0 {
                let _ = t.ld(self.data, self.slot);
            }
        }
    }

    #[test]
    fn read_before_init_is_flagged_with_exact_word() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let data = mem.alloc_uninit::<u32>(8);
        mem.set_label(data, "worklist");
        mem.write_slice(data, &[1, 2, 3, 4]); // h2d seeds words 0..4
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 1, &ReadSlot { data, slot: 2 });
        assert!(backend.take_report().findings.is_empty());
        launch_on(&backend, &mem, 1, &ReadSlot { data, slot: 5 });
        let report = backend.take_report();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::UninitRead)
            .expect("uninit finding");
        assert_eq!(f.buffer, "worklist");
        assert_eq!(f.word, 5);
        // A kernel store initializes the word for later launches.
        mem.store(data, 5, 9);
        launch_on(&backend, &mem, 1, &ReadSlot { data, slot: 5 });
        assert!(backend.take_report().findings.is_empty());
    }

    struct MixedAtomicPlain {
        flag: Buffer<u32>,
    }
    impl Kernel for MixedAtomicPlain {
        fn name(&self) -> &'static str {
            "mixed-atomic-plain"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            match t.global_id() {
                0 => {
                    t.atomic_add(self.flag, 0, 1);
                }
                1 => t.st(self.flag, 0, 7),
                _ => {}
            }
        }
    }

    #[test]
    fn mixed_atomic_and_plain_store_is_flagged() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let flag = mem.alloc::<u32>(1);
        mem.set_label(flag, "flag");
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 2, &MixedAtomicPlain { flag });
        let report = backend.take_report();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::MixedAtomic)
            .expect("mixed-atomic finding");
        assert_eq!(f.buffer, "flag");
        assert_eq!(f.word, 0);
    }

    struct SmemClash;
    impl Kernel for SmemClash {
        fn name(&self) -> &'static str {
            "smem-clash"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            t.smem_st(0, t.tid());
        }
        fn smem_per_block(&self) -> u32 {
            16
        }
    }

    #[test]
    fn shared_memory_race_is_flagged() {
        let dev = Device::tiny();
        let mem = GpuMem::new();
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 4, &SmemClash);
        let report = backend.take_report();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::SmemRace)
            .expect("smem finding");
        assert_eq!(f.buffer, "smem");
        assert_eq!(f.word, 0);
        assert_ne!(f.threads.0, f.threads.1);
    }

    struct UniformFlagWrite {
        flag: Buffer<u32>,
    }
    impl Kernel for UniformFlagWrite {
        fn name(&self) -> &'static str {
            "uniform-flag-write"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            t.st(self.flag, 0, 1);
        }
    }

    #[test]
    fn same_value_waw_is_suppressed() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let flag = mem.alloc::<u32>(1);
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 8, &UniformFlagWrite { flag });
        let report = backend.take_report();
        assert!(
            report.findings.is_empty(),
            "idempotent flag writes are the intended idiom:\n{report}"
        );
    }

    struct RacyCoop {
        data: Buffer<u32>,
        out: Buffer<u32>,
    }
    impl CoopKernel for RacyCoop {
        type Carry = u32;
        fn name(&self) -> &'static str {
            "racy-coop"
        }
        fn count(&self, t: &mut impl KernelCtx) -> (u32, u32) {
            let i = t.global_id() as usize;
            if i < self.data.len() {
                (t.ld(self.data, i), 1)
            } else {
                (0, 0)
            }
        }
        fn emit(&self, t: &mut impl KernelCtx, carry: u32, _dst: u32) {
            // Bug: every thread emits to slot 0 with its own value.
            t.st(self.out, 0, carry + t.global_id());
        }
    }

    #[test]
    fn coop_emit_phase_is_analyzed() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let data = mem.alloc_from_slice(&[5u32, 6, 7, 8]);
        let out = mem.alloc::<u32>(4);
        mem.set_label(out, "compacted");
        let backend = sanitized_simt(&dev);
        let mut profile = RunProfile::new();
        let total = backend.launch_coop(
            &mem,
            grid_for(4, 32),
            32,
            &RacyCoop { data, out },
            &mut profile,
        );
        assert_eq!(total, 4);
        let report = backend.take_report();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::StStRace)
            .expect("coop emit race");
        assert_eq!(f.buffer, "compacted");
        assert_eq!(f.word, 0);
    }

    #[test]
    fn reports_merge_and_dedup_across_launches() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let data = mem.alloc::<u32>(8);
        mem.set_label(data, "color");
        let backend = sanitized_simt(&dev);
        launch_on(&backend, &mem, 8, &PlainNeighborStore { data });
        launch_on(&backend, &mem, 8, &PlainNeighborStore { data });
        let report = backend.take_report();
        let races: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::LdStRace)
            .collect();
        assert_eq!(races.len(), 1, "deduplicated per kind/kernel/buffer");
        assert!(races[0].occurrences >= 2);
        // take_report leaves an empty report behind.
        assert!(backend.take_report().findings.is_empty());
        // Display renders one line per finding plus a header.
        let text = format!("{report}");
        assert!(text.contains("HARMFUL"));
        assert!(text.contains("plain ld/st race"));
    }

    #[test]
    fn merge_combines_reports_from_two_devices() {
        let mk = |occ| SanitizerReport {
            findings: vec![Finding {
                kind: FindingKind::WarpSpecRace,
                context: "T-base".into(),
                kernel: "topo-color".into(),
                buffer: "color".into(),
                word: 3,
                threads: (1, 2),
                occurrences: occ,
            }],
        };
        let mut a = mk(2);
        a.merge(mk(3));
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].occurrences, 5);
        assert!(a.is_clean());
    }
}
