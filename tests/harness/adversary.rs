//! The hostile peer: one interpreter of the `.x` specs that writes a
//! seeded, boundary-favouring XDR value for any type they declare, and so a
//! call to any procedure of `CRICKET_V1` and of the portmapper, then mangles
//! some of those calls on the wire. Each run is a fixed count of calls per
//! seed; every value is drawn from [`ChaosRng`], so a seed replays its
//! calls exactly. Drivers carry the bytes (`tests/adversary.rs`); the
//! oracles live there too (DESIGN §7).

use super::chaos::ChaosRng;
use cricket_repro::oncrpc::record::{mark, write_record, MAX_RECORD};
use cricket_repro::rpcl::ast::{
    DeclKind, Declaration, Definition, EnumDef, ProcedureDef, ProgramDef, Spec, StructDef,
    TypeSpec, TypedefDef, UnionCase, UnionDef, VersionDef,
};
use cricket_repro::xdr::XdrEncoder;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The Cricket interface and the portmapper, as their build scripts read
/// them.
const SPECS: [&str; 2] = [
    include_str!("../../crates/cricket-proto/proto/cricket.x"),
    include_str!("../../crates/oncrpc/proto/portmap.x"),
];

/// What a typed payload inside a `mem_data` argument is drawn as.
#[derive(Clone, Copy)]
enum Payload {
    /// A value of the named type of the same spec.
    Type(&'static str),
    /// A `CRICKET_BATCH_EXEC` body: a count, then batchable calls.
    Batch,
}

/// The procedures whose `mem_data` argument carries a payload the spec
/// does not declare, and what it is. This is how the peer reaches the
/// array decoders behind the opaque.
const PAYLOADS: [(&[&str], Payload); 3] = [
    (&["CKPT_RESTORE"], Payload::Type("ckpt")),
    (
        &["MIG_APPLY_BASE", "MIG_APPLY_DELTA"],
        Payload::Type("mig_blob"),
    ),
    (&["CRICKET_BATCH_EXEC"], Payload::Batch),
];

/// Kernel symbols a drawn string sometimes names, so a
/// `CU_MODULE_GET_FUNCTION` on a loaded module can succeed.
const SYMBOLS: [&str; 4] = ["vectorAdd", "matrixMulCUDA", "histogram64Kernel", "empty"];

/// Nesting past which a drawn value takes its shortest form (no element,
/// no optional), so a self-linked list ends.
const DEPTH: u32 = 4;

/// Where a run stands, for a report that names it: the row (an index the
/// test binary names), the seed and the call. Allocations are watched per
/// process, so the row sets this before each call.
pub static AT: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Note that `row` is about to send call `call` of `seed`.
pub fn at(row: u64, seed: u64, call: u64) {
    for (slot, v) in AT.iter().zip([row, seed, call]) {
        slot.store(v, Relaxed);
    }
}

/// The one program version `spec` declares: its program and version
/// numbers, and its procedures.
fn program(spec: &Spec) -> (u32, u32, &[ProcedureDef]) {
    let prog: &ProgramDef = (spec.definitions.iter())
        .find_map(|d| match d {
            Definition::Program(p) => Some(p),
            _ => None,
        })
        .expect("the spec declares a program");
    let vers: &VersionDef = &prog.versions[0];
    (prog.number as u32, vers.number as u32, &vers.procedures)
}

/// The definition of the type `name` in `spec`.
fn named<'s>(spec: &'s Spec, name: &str) -> &'s Definition {
    let is = |d: &&Definition| match d {
        Definition::Struct(StructDef { name: n, .. })
        | Definition::Enum(EnumDef { name: n, .. })
        | Definition::Union(UnionDef { name: n, .. })
        | Definition::Typedef(TypedefDef {
            decl: Declaration { name: n, .. },
        }) => n == name,
        Definition::Const(_) | Definition::Program(_) => false,
    };
    let def = spec.definitions.iter().find(is);
    def.unwrap_or_else(|| panic!("the spec declares no type {name}"))
}

/// A call as the peer put it on the wire, and what the wire must do.
pub struct Call {
    /// Record marks and payload, as written.
    pub wire: Vec<u8>,
    /// The wire ends in a whole record: the peer waits for a reply or for
    /// the connection to be refused. Otherwise it hangs up after writing.
    pub whole: bool,
    /// The call is unmangled and its result carries a handle on success
    /// (`case 0: unsigned hyper`), worth remembering.
    pub returns_handle: bool,
}

/// The hostile peer of one run: a seeded draw over the specs, and the
/// handles earlier replies returned.
pub struct Peer {
    rng: ChaosRng,
    specs: Vec<Spec>,
    handles: Vec<u64>,
    xid: u32,
    /// The call being drawn has its one lying count.
    bombed: bool,
}

impl Peer {
    /// A peer drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        let specs = SPECS.iter().map(|s| cricket_repro::rpcl::parse(s).unwrap());
        Self {
            rng: ChaosRng::new(seed),
            specs: specs.collect(),
            handles: Vec::new(),
            xid: 0,
            bombed: false,
        }
    }

    /// Remember a handle a reply returned, so later calls name it.
    pub fn learn(&mut self, handle: u64) {
        if !self.handles.contains(&handle) {
            self.handles.push(handle);
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// An `int`: 0, ±1, the extremes, a power of two or its negation, or
    /// a small value.
    fn int(&mut self) -> i32 {
        let pow = 1i32 << self.below(31);
        match self.below(5) {
            0 => self.pick(&[0, 1, -1, i32::MIN, i32::MAX]),
            1 => pow,
            2 => -pow,
            _ => self.below(256) as i32,
        }
    }

    /// An `unsigned hyper` (or `hyper`): half the time a handle an earlier
    /// reply returned, sometimes a little past it; otherwise a boundary.
    fn hyper(&mut self) -> u64 {
        if !self.handles.is_empty() && self.below(2) == 0 {
            let h = self.pick(&self.handles.clone());
            return h.wrapping_add(self.pick(&[0, 0, 0, 8, 255, 4096]));
        }
        match self.below(4) {
            0 => self.pick(&[0, 1, u64::MAX, i64::MAX as u64, i64::MIN as u64]),
            1 => 1 << self.below(64),
            _ => self.below(256),
        }
    }

    /// A count for an array or opaque of at most `max`: empty, the
    /// declared maximum, one past it, or a few.
    fn count(&mut self, max: Option<u64>) -> u64 {
        match (self.below(5), max) {
            (0, _) => 0,
            (1, Some(max)) => max,
            (2, Some(max)) => max + 1,
            _ => 1 + self.below(4),
        }
    }

    /// A count word far above the bytes behind it, or one the bytes behind
    /// it hold at four bytes an element (zeros), which sizes any
    /// reservation made from the count alone at its largest.
    fn bomb(&mut self, out: &mut XdrEncoder) {
        self.bombed = true;
        if self.below(2) == 0 {
            let huge = self.pick(&[u32::MAX, 1 << 31, 1 << 30, MAX_RECORD as u32 + 1]);
            out.put_u32(huge);
            out.extend_raw(&[0; 8][..4 * self.below(3) as usize]);
        } else {
            let n = self.pick(&[1 << 10, 1 << 14, 1 << 16]);
            out.put_u32(n);
            out.extend_raw(&vec![0; 4 * n as usize]);
        }
    }

    /// `len` bytes of opaque or string data, padded: a kernel symbol now
    /// and then for a string.
    fn bytes(&mut self, out: &mut XdrEncoder, len: u64, string: bool) {
        let len = len.min(64 << 10) as usize;
        let name = SYMBOLS[self.below(4) as usize];
        let data: Vec<u8> = match string && self.below(3) == 0 {
            true => name.bytes().collect(),
            false => (0..len).map(|_| self.rng.next_u64() as u8).collect(),
        };
        out.put_opaque(&data);
    }

    /// A value of `ty` decorated by `kind`, appended to `out`.
    fn value(&mut self, s: usize, ty: &TypeSpec, kind: &DeclKind, out: &mut XdrEncoder, d: u32) {
        let bytes = matches!(ty, TypeSpec::Opaque | TypeSpec::StringType);
        match kind {
            DeclKind::Plain => self.plain(s, ty, out, d),
            DeclKind::FixedArray(n) if bytes => {
                let data: Vec<u8> = (0..*n).map(|_| self.rng.next_u64() as u8).collect();
                out.put_opaque_fixed(&data);
            }
            DeclKind::FixedArray(n) => (0..*n).for_each(|_| self.plain(s, ty, out, d + 1)),
            DeclKind::VarArray(_) if !self.bombed && self.below(4) == 0 => self.bomb(out),
            DeclKind::VarArray(max) if bytes => {
                let len = match max {
                    None if self.below(4) == 0 => 4096 << self.below(5),
                    _ => self.count(*max),
                };
                self.bytes(out, len, matches!(ty, TypeSpec::StringType));
            }
            DeclKind::VarArray(max) => {
                let n = if d >= DEPTH { 0 } else { self.count(*max) };
                out.put_u32(n as u32);
                (0..n.min(8)).for_each(|_| self.plain(s, ty, out, d + 1));
            }
            DeclKind::Pointer => {
                let tag = match d >= DEPTH {
                    true => 0,
                    false => self.pick(&[0, 1, 1, 1, 2]),
                };
                out.put_u32(tag);
                if tag == 1 {
                    self.plain(s, ty, out, d + 1);
                }
            }
        }
    }

    /// A value of the undecorated type `ty` of spec `s`.
    fn plain(&mut self, s: usize, ty: &TypeSpec, out: &mut XdrEncoder, d: u32) {
        match ty {
            TypeSpec::Int | TypeSpec::UInt => out.put_u32(self.int() as u32),
            TypeSpec::Hyper | TypeSpec::UHyper => out.put_u64(self.hyper()),
            TypeSpec::Float => {
                let f = [
                    0.0,
                    1.0,
                    -1.0,
                    f32::NAN,
                    f32::INFINITY,
                    f32::MAX,
                    f32::MIN_POSITIVE,
                ];
                out.put_f32(self.pick(&f));
            }
            TypeSpec::Double => {
                let f = [
                    0.0,
                    1.0,
                    -1.0,
                    f64::NAN,
                    f64::NEG_INFINITY,
                    f64::MAX,
                    f64::EPSILON,
                ];
                out.put_f64(self.pick(&f));
            }
            TypeSpec::Bool => out.put_u32(self.pick(&[0, 1, 1, 0, 2])),
            TypeSpec::Void => {}
            TypeSpec::Opaque | TypeSpec::StringType => self.bytes(out, 0, false),
            TypeSpec::Named(name) => {
                let spec = &self.specs[s];
                match named(spec, name).clone() {
                    Definition::Struct(st) => self.structure(s, &st, out, d),
                    Definition::Union(u) => self.union(s, &u, out, d),
                    Definition::Enum(e) => {
                        let known = e
                            .variants
                            .iter()
                            .map(|(_, v)| *v as i32)
                            .collect::<Vec<_>>();
                        let v = match self.below(5) {
                            0 => self.pick(&[i32::MAX, -1, 12_345]),
                            _ => self.pick(&known),
                        };
                        out.put_u32(v as u32);
                    }
                    Definition::Typedef(t) => self.value(s, &t.decl.ty, &t.decl.kind, out, d),
                    Definition::Const(_) | Definition::Program(_) => unreachable!("not a type"),
                }
            }
        }
    }

    /// A struct: its magic and version words (now and then a wrong one),
    /// then each member.
    fn structure(&mut self, s: usize, st: &StructDef, out: &mut XdrEncoder, d: u32) {
        for tag in [st.magic, st.version].into_iter().flatten() {
            let wrong = self.below(10) == 0;
            out.put_u32(if wrong { tag ^ 1 } else { tag });
        }
        for f in &st.fields {
            self.value(s, &f.ty, &f.kind, out, d);
        }
    }

    /// A union: a declared arm, the default arm, or an arm no case names.
    fn union(&mut self, s: usize, u: &UnionDef, out: &mut XdrEncoder, d: u32) {
        let named: Vec<i64> = u
            .cases
            .iter()
            .flat_map(|c| c.values.iter().map(|v| v.0))
            .collect();
        let unknown = (1..)
            .map(|i| i32::MAX as i64 - i)
            .find(|v| !named.contains(v));
        let arm = match self.below(5) {
            0 => None,
            _ => Some(self.pick(&u.cases.iter().collect::<Vec<&UnionCase>>())),
        };
        let (disc, decl) = match arm {
            Some(case) => {
                let values: Vec<i64> = case.values.iter().map(|v| v.0).collect();
                (self.pick(&values), case.decl.as_ref())
            }
            None => (
                unknown.unwrap(),
                u.default.as_ref().and_then(Option::as_ref),
            ),
        };
        out.put_u32(disc as u32);
        if let Some(decl) = decl {
            self.value(s, &decl.ty, &decl.kind, out, d + 1);
        }
    }

    /// The arguments of `proc` of spec `s`, a typed payload where
    /// [`PAYLOADS`] names one (three times in four).
    fn args(&mut self, s: usize, proc: &ProcedureDef, out: &mut XdrEncoder) {
        let payload = PAYLOADS
            .iter()
            .find(|(names, _)| names.contains(&proc.name.as_str()));
        for ty in &proc.args {
            let mem_data = *ty == TypeSpec::Named("mem_data".into());
            match payload {
                Some((_, p)) if mem_data && self.below(4) != 0 => {
                    let mut body = XdrEncoder::new();
                    match *p {
                        Payload::Type(name) => {
                            self.plain(s, &TypeSpec::Named(name.into()), &mut body, 0)
                        }
                        Payload::Batch => self.batch(s, &mut body),
                    }
                    out.put_opaque(body.as_slice());
                }
                _ => self.value(s, ty, &DeclKind::Plain, out, 0),
            }
        }
    }

    /// A command batch: a count (sometimes far above the ops behind it),
    /// then per op a procedure number — a batchable one, mostly — and its
    /// arguments.
    fn batch(&mut self, s: usize, out: &mut XdrEncoder) {
        let ops = self.below(6);
        let count = match self.below(6) {
            0 => self.pick(&[u32::MAX, 1 << 30, 4097]),
            _ => ops as u32,
        };
        out.put_u32(count);
        let procs = program(&self.specs[s]).2.to_vec();
        let batchable: Vec<&ProcedureDef> = procs.iter().filter(|p| p.batchable).collect();
        for _ in 0..ops {
            let proc = match self.below(10) {
                0 => self.pick(&procs.iter().collect::<Vec<_>>()),
                _ => self.pick(&batchable),
            };
            out.put_u32(proc.number as u32);
            self.args(s, proc, out);
        }
    }

    /// The next call: to a random procedure of a random program (now and
    /// then a number no procedure has), framed as one record in fragments
    /// of a random size, and one time in four mangled on the wire.
    pub fn call(&mut self) -> Call {
        let s = usize::from(self.below(8) == 0); // the portmapper one time in eight
        let typed_only = s == 0 && self.below(8) == 0; // a typed payload, one in eight
        let typed = |p: &&ProcedureDef| PAYLOADS.iter().any(|(n, _)| n.contains(&p.name.as_str()));
        let (prog, vers, procs) = program(&self.specs[s]);
        let procs = procs.iter().filter(|p| !typed_only || typed(p));
        let procs: Vec<ProcedureDef> = procs.cloned().collect();
        let proc = procs[self.below(procs.len() as u64) as usize].clone();
        let unassigned = self.below(16) == 0;
        let number = match unassigned {
            true => self.pick(&[24, 81, 99, 255, u32::MAX]),
            false => proc.number as u32,
        };
        let mut record = self.header(prog, vers, number);
        self.bombed = false;
        self.args(s, &proc, &mut record);
        let record = record.into_inner();
        let returns_handle = !unassigned && self.returns_handle(s, &proc.result);
        let mut wire = Vec::new();
        let fragment = self.pick(&[4, 64, 4096, 1 << 20]);
        write_record(&mut wire, &record, fragment).unwrap();
        let clean = Call {
            wire,
            whole: true,
            returns_handle,
        };
        match self.below(16) {
            0 => self.flip(record),
            1 => self.truncate(record),
            2 => self.splice(record),
            3 => self.mark_bomb(record),
            _ => clean,
        }
    }

    /// A call header: `xid`, CALL, RPC version 2, the program, its
    /// version and `proc`, and `AUTH_NONE` for credential and verifier.
    fn header(&mut self, prog: u32, vers: u32, proc: u32) -> XdrEncoder {
        self.xid += 1;
        let mut out = XdrEncoder::new();
        for w in [self.xid, 0, 2, prog, vers, proc, 0, 0, 0, 0] {
            out.put_u32(w);
        }
        out
    }

    /// Whether `result` is a union whose `case 0` arm is an
    /// `unsigned hyper`: a handle on success.
    fn returns_handle(&self, s: usize, result: &TypeSpec) -> bool {
        let TypeSpec::Named(name) = result else {
            return false;
        };
        let Definition::Union(u) = named(&self.specs[s], name) else {
            return false;
        };
        let ok = u.cases.iter().find(|c| c.values.iter().any(|v| v.0 == 0));
        ok.and_then(|c| c.decl.as_ref())
            .is_some_and(|d| d.ty == TypeSpec::UHyper)
    }

    /// One whole record, `record` with its bytes flipped at a few places.
    fn flip(&mut self, mut record: Vec<u8>) -> Call {
        for _ in 0..1 + self.below(4) {
            let at = self.below(record.len() as u64) as usize;
            record[at] ^= 1 << self.below(8);
        }
        Self::whole(record)
    }

    /// `record` cut short: as a shorter whole record, or on the wire, the
    /// mark promising bytes that never come before the peer hangs up.
    fn truncate(&mut self, record: Vec<u8>) -> Call {
        let at = self.below(record.len() as u64) as usize;
        if self.below(2) == 0 {
            return Self::whole(record[..at].to_vec());
        }
        let mut wire = mark(record.len(), true).to_vec();
        wire.extend_from_slice(&record[..at]);
        Self::hang_up(wire)
    }

    /// The head of `record` joined to the tail of another call.
    fn splice(&mut self, record: Vec<u8>) -> Call {
        let other = self.call().wire;
        let head = self.below(record.len() as u64) as usize;
        // A nested truncation can leave `other` a bare four-byte mark.
        let tail = 4 + self.below((other.len() as u64 - 4).max(1)) as usize;
        let mut joined = record[..head].to_vec();
        joined.extend_from_slice(&other[tail..]);
        Self::whole(joined)
    }

    /// Record marks that lie: one past `MAX_RECORD`; a record of nearly
    /// `MAX_RECORD` of which only `record` arrives; or `record` behind a
    /// thousand empty fragments.
    fn mark_bomb(&mut self, record: Vec<u8>) -> Call {
        let mut wire = Vec::new();
        match self.below(3) {
            0 => {
                wire.extend_from_slice(&mark(MAX_RECORD + 1, self.below(2) == 0));
                wire.extend_from_slice(&record);
                Self::whole_wire(wire)
            }
            1 => {
                let len = MAX_RECORD - self.below(1 << 20) as usize;
                wire.extend_from_slice(&mark(len, self.below(2) == 0));
                wire.extend_from_slice(&record);
                Self::hang_up(wire)
            }
            _ => {
                (0..1000).for_each(|_| wire.extend_from_slice(&mark(0, false)));
                write_record(&mut wire, &record, 1 << 20).unwrap();
                Self::whole_wire(wire)
            }
        }
    }

    fn whole(record: Vec<u8>) -> Call {
        let mut wire = Vec::new();
        write_record(&mut wire, &record, 1 << 20).unwrap();
        Self::whole_wire(wire)
    }

    fn whole_wire(wire: Vec<u8>) -> Call {
        Call {
            wire,
            whole: true,
            returns_handle: false,
        }
    }

    fn hang_up(wire: Vec<u8>) -> Call {
        Call {
            wire,
            whole: false,
            returns_handle: false,
        }
    }
}

/// The result of an accepted, successful reply record, or `None` for a
/// reply that was denied or failed.
fn results(reply: &[u8]) -> Option<&[u8]> {
    let word = |i: usize| Some(u32::from_be_bytes(reply.get(i..i + 4)?.try_into().unwrap()));
    if word(4)? != 1 || word(8)? != 0 {
        return None; // not a reply, or denied
    }
    let verf = 20 + (word(16)? as usize).div_ceil(4) * 4;
    (word(verf)? == 0).then(|| reply.get(verf + 4..)).flatten()
}

/// The handle a successful `case 0: unsigned hyper` result carries.
pub fn handle(reply: &[u8]) -> Option<u64> {
    let r = results(reply)?;
    let ok = r.get(..4)? == [0; 4];
    ok.then(|| Some(u64::from_be_bytes(r.get(4..12)?.try_into().unwrap())))
        .flatten()
}
