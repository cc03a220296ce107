//! HTRC2: the compact, columnar, block-framed on-disk trace encoding.
//!
//! The retired v1 layout serialized every [`Retired`] field raw — 47 bytes
//! per dynamic µ-op on disk, ~88 in memory — which capped the trace corpus
//! at a few hundred megabytes and forced sweep replay to materialize whole
//! traces. HTRC2 exploits the fact that a retired-µ-op
//! trace is *almost entirely derivable* from ISA semantics:
//!
//! * **`pc` chains**: every µ-op's `pc` equals the previous µ-op's
//!   `next_pc`, so only each block's start PC is stored.
//! * **`inst` is a function of `pc`**: code is not self-modifying, so a
//!   per-block dictionary of (pc → instruction word) replaces a 4-byte
//!   word per µ-op with nothing at all per µ-op.
//! * **`next_pc` is usually `pc + 4`**: one bit per µ-op (a deviation
//!   bitmap) plus a zigzag-varint target delta for the exceptions.
//! * **`mem` shape is the instruction's**: size and direction come from
//!   the load/store width, so only the effective address is stored, as a
//!   zigzag-varint delta from the previous access.
//! * **`rd_value` replays**: given a register-file snapshot at block
//!   start, ALU/LUI/AUIPC/JAL(R) destination values are recomputed by the
//!   same `AluOp::eval` semantics the emulator used; only *loaded* values
//!   (which depend on memory) are stored, delta-encoded.
//! * **`seq` is dense**: only each block's first sequence number is kept.
//!
//! Blocks of [`DEFAULT_BLOCK_UOPS`] µ-ops are framed independently — each
//! carries its own register snapshot, length, and FNV-1a checksum over the
//! encoded bytes — so [`BlockReplay`] streams a file block-at-a-time
//! (O(block) peak memory instead of O(trace)) and any flipped bit in any
//! block is detected before a single µ-op from it is replayed.
//!
//! Traces not produced by the emulator (e.g. a hand-built µ-op sequence
//! that violates pc chaining or carries a load value on a non-load) are
//! rejected at encode time with [`TraceIoError::Unencodable`] rather than
//! silently mis-encoded; every trace the emulator can produce round-trips
//! exactly.

use crate::record::{content_stamp, Fnv, TraceIoError, TraceStamp, TRACE_MAGIC};
use crate::{MemAccess, Retired};
use helios_isa::{decode, encode, Inst, Reg, DEFAULT_STACK_TOP, ISA_VERSION};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// µ-ops per block unless the encoder is told otherwise: large enough to
/// amortize the per-block register snapshot and dictionary to noise,
/// small enough that a streaming replay holds ~5 MB, not a whole trace.
pub const DEFAULT_BLOCK_UOPS: u32 = 64 * 1024;

/// On-disk format version written by [`encode_v2`] (the only one read).
pub(crate) const V2_FORMAT_VERSION: u16 = 2;

// --- varint / zigzag ------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    for shift in 0..10 {
        let b = *bytes.get(*pos).ok_or(TraceIoError::Truncated)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << (7 * shift);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceIoError::Truncated)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes `b - a` (wrapping) so the decoder can reconstruct `b` from `a`.
fn put_delta(buf: &mut Vec<u8>, a: u64, b: u64) {
    put_varint(buf, zigzag(b.wrapping_sub(a) as i64));
}

fn get_delta(bytes: &[u8], pos: &mut usize, a: u64) -> Result<u64, TraceIoError> {
    Ok(a.wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64))
}

// --- derivation: what a µ-op's fields must look like ----------------------

/// What the destination value of `inst` at `pc` must be, given the
/// architectural register file — mirroring `Cpu::step` exactly.
enum DerivedRd {
    /// The instruction writes no destination.
    None,
    /// The value is computable without memory (stored nowhere).
    Value(Reg, u64),
    /// A load: the value depends on memory and is stored in the stream.
    Load(Reg),
}

fn derive_rd(inst: &Inst, pc: u64, regs: &[u64; 32]) -> DerivedRd {
    let r = |reg: Reg| regs[reg.index()];
    match *inst {
        Inst::Lui { rd, imm20 } => DerivedRd::Value(rd, ((imm20 as i64) << 12) as u64),
        Inst::Auipc { rd, imm20 } => {
            DerivedRd::Value(rd, pc.wrapping_add(((imm20 as i64) << 12) as u64))
        }
        Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } => DerivedRd::Value(rd, pc.wrapping_add(4)),
        Inst::Load { rd, .. } => DerivedRd::Load(rd),
        Inst::OpImm { op, rd, rs1, imm } => DerivedRd::Value(rd, op.eval(r(rs1), imm)),
        Inst::Op { op, rd, rs1, rs2 } => DerivedRd::Value(rd, op.eval(r(rs1), r(rs2))),
        Inst::Branch { .. } | Inst::Store { .. } | Inst::Fence | Inst::Ecall | Inst::Ebreak => {
            DerivedRd::None
        }
    }
}

/// The memory-access shape `inst` mandates: `Some((size, is_store))` for
/// loads/stores, `None` otherwise.
fn mem_shape(inst: &Inst) -> Option<(u8, bool)> {
    match *inst {
        Inst::Load { width, .. } => Some((width.bytes() as u8, false)),
        Inst::Store { width, .. } => Some((width.bytes() as u8, true)),
        _ => None,
    }
}

fn unencodable(seq: u64, why: impl Into<String>) -> TraceIoError {
    TraceIoError::Unencodable {
        seq,
        detail: why.into(),
    }
}

// --- header ---------------------------------------------------------------

/// Parsed HTRC2 file header: everything about a trace that is knowable
/// without decoding a block. A [`Trace`](crate::Trace) handle backed by a
/// store file carries exactly this plus the path.
#[derive(Clone, Debug)]
pub struct Htrc2Header {
    /// Semantic integrity stamp (the same content hash an in-memory
    /// recording of the trace carries).
    pub stamp: TraceStamp,
    /// Total retired µ-ops in the trace.
    pub uops: u64,
    /// µ-ops per block the encoder used (last block may be shorter).
    pub block_uops: u32,
    /// Number of blocks that follow the header.
    pub blocks: u32,
    /// Workload name recorded at encode time (for `trace ls`).
    pub name: String,
    /// The program's `write`-ecall outputs (workload checksums).
    pub output: Vec<u64>,
    /// Size of the encoded header in bytes (blocks start here).
    pub header_bytes: u64,
}

/// Serializes the v2 header (everything before the first block).
fn encode_header(h: &Htrc2Header) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + h.name.len() + 8 * h.output.len());
    buf.extend_from_slice(TRACE_MAGIC);
    buf.extend_from_slice(&V2_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&h.stamp.isa_version.to_le_bytes());
    buf.extend_from_slice(&h.stamp.checksum.to_le_bytes());
    buf.extend_from_slice(&h.uops.to_le_bytes());
    buf.extend_from_slice(&h.block_uops.to_le_bytes());
    buf.extend_from_slice(&h.blocks.to_le_bytes());
    put_varint(&mut buf, h.name.len() as u64);
    buf.extend_from_slice(h.name.as_bytes());
    put_varint(&mut buf, h.output.len() as u64);
    for &o in &h.output {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    let mut fnv = Fnv::new();
    for &b in &buf {
        fnv.u8(b);
    }
    buf.extend_from_slice(&fnv.finish().to_le_bytes());
    buf
}

/// Reads and verifies a v2 header from `r`.
///
/// # Errors
///
/// [`TraceIoError::BadMagic`] / [`TraceIoError::FormatVersion`] for files
/// that are not HTRC2 (a v1 file reports `FormatVersion { found: 1 }`),
/// [`TraceIoError::StaleIsa`] for traces recorded under older emulator
/// semantics, [`TraceIoError::ChecksumMismatch`] for a corrupted header,
/// [`TraceIoError::Truncated`] / [`TraceIoError::Io`] for short or
/// unreadable files.
pub fn read_header<R: Read>(r: &mut R) -> Result<Htrc2Header, TraceIoError> {
    let mut fixed = [0u8; 30];
    r.read_exact(&mut fixed).map_err(TraceIoError::from)?;
    if &fixed[0..4] != TRACE_MAGIC {
        return Err(TraceIoError::BadMagic([
            fixed[0], fixed[1], fixed[2], fixed[3],
        ]));
    }
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    if version != V2_FORMAT_VERSION {
        return Err(TraceIoError::FormatVersion {
            found: version,
            want: V2_FORMAT_VERSION,
        });
    }
    let isa_version = u32::from_le_bytes(fixed[6..10].try_into().unwrap());
    let checksum = u64::from_le_bytes(fixed[10..18].try_into().unwrap());
    let uops = u64::from_le_bytes(fixed[18..26].try_into().unwrap());
    let block_uops = u32::from_le_bytes(fixed[26..30].try_into().unwrap());
    let mut rest = [0u8; 4];
    r.read_exact(&mut rest).map_err(TraceIoError::from)?;
    let blocks = u32::from_le_bytes(rest);
    // Variable tail: name, outputs. Bounded reads so a corrupt length
    // cannot trigger a huge allocation.
    let mut tail = Vec::new();
    let name_len = read_bounded_varint(r, &mut tail)?;
    if name_len > 4096 {
        return Err(TraceIoError::Truncated);
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    r.read_exact(&mut name_bytes).map_err(TraceIoError::from)?;
    tail.extend_from_slice(&name_bytes);
    let name = String::from_utf8(name_bytes).map_err(|_| TraceIoError::Truncated)?;
    let mut tail2 = Vec::new();
    let output_count = read_bounded_varint(r, &mut tail2)?;
    tail.extend_from_slice(&tail2);
    if output_count > 1 << 24 {
        return Err(TraceIoError::Truncated);
    }
    let mut output = Vec::with_capacity(output_count as usize);
    for _ in 0..output_count {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).map_err(TraceIoError::from)?;
        tail.extend_from_slice(&b);
        output.push(u64::from_le_bytes(b));
    }
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored).map_err(TraceIoError::from)?;
    let mut fnv = Fnv::new();
    for &b in fixed.iter().chain(rest.iter()).chain(tail.iter()) {
        fnv.u8(b);
    }
    let actual = fnv.finish();
    let stored = u64::from_le_bytes(stored);
    if actual != stored {
        return Err(TraceIoError::ChecksumMismatch {
            stored,
            actual,
        });
    }
    if isa_version != ISA_VERSION {
        return Err(TraceIoError::StaleIsa {
            found: isa_version,
            want: ISA_VERSION,
        });
    }
    let header_bytes = 30 + 4 + tail.len() as u64 + 8;
    Ok(Htrc2Header {
        stamp: TraceStamp {
            isa_version,
            checksum,
        },
        uops,
        block_uops,
        blocks,
        name,
        output,
        header_bytes,
    })
}

/// Reads one varint byte-at-a-time from a `Read` (header parsing only; the
/// bytes consumed are appended to `seen` for checksumming).
fn read_bounded_varint<R: Read>(r: &mut R, seen: &mut Vec<u8>) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    for shift in 0..10 {
        let mut b = [0u8; 1];
        r.read_exact(&mut b).map_err(TraceIoError::from)?;
        seen.push(b[0]);
        v |= ((b[0] & 0x7f) as u64) << (7 * shift);
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceIoError::Truncated)
}

// --- encoding -------------------------------------------------------------

/// Serializes a retired-µ-op trace to `w` in the HTRC2 format, returning
/// the number of bytes written. `name` is carried in the header for
/// `trace ls`; `block_uops` is [`DEFAULT_BLOCK_UOPS`] everywhere except
/// tests that want to exercise multi-block framing cheaply.
///
/// # Errors
///
/// [`TraceIoError::Unencodable`] if the trace violates the derivation
/// invariants every emulator-produced trace satisfies (dense `seq`, pc
/// chaining, memory shape matching the instruction, destination values
/// matching ISA semantics); I/O errors from `w`.
pub fn encode_v2<W: Write>(
    uops: &[Retired],
    output: &[u64],
    name: &str,
    block_uops: u32,
    w: &mut W,
) -> Result<u64, TraceIoError> {
    let block_uops = block_uops.max(1);
    let blocks = uops.len().div_ceil(block_uops as usize);
    if blocks > u32::MAX as usize {
        return Err(unencodable(0, "trace too long for u32 block count"));
    }
    let header = Htrc2Header {
        stamp: content_stamp(uops, output),
        uops: uops.len() as u64,
        block_uops,
        blocks: blocks as u32,
        name: name.to_string(),
        output: output.to_vec(),
        header_bytes: 0, // filled by encode_header's length below
    };
    let head = encode_header(&header);
    w.write_all(&head).map_err(TraceIoError::from)?;
    let mut written = head.len() as u64;

    // The register model must start exactly as `Cpu::new` leaves the
    // machine, or the first read of an uninitialised-looking register
    // (sp, typically) spuriously fails semantic validation.
    let mut regs = [0u64; 32];
    regs[Reg::SP.index()] = DEFAULT_STACK_TOP;
    for chunk in uops.chunks(block_uops as usize) {
        let payload = encode_block(chunk, &mut regs)?;
        let mut fnv = Fnv::new();
        for &b in &payload {
            fnv.u8(b);
        }
        w.write_all(&(payload.len() as u32).to_le_bytes())
            .map_err(TraceIoError::from)?;
        w.write_all(&payload).map_err(TraceIoError::from)?;
        w.write_all(&fnv.finish().to_le_bytes())
            .map_err(TraceIoError::from)?;
        written += 4 + payload.len() as u64 + 8;
    }
    Ok(written)
}

/// Encodes one block, advancing `regs` (the architectural register file
/// after the block's last µ-op) for the next block's snapshot.
fn encode_block(chunk: &[Retired], regs: &mut [u64; 32]) -> Result<Vec<u8>, TraceIoError> {
    let first = &chunk[0];
    // Streams.
    let mut dict: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    let mut bitmap = vec![0u8; chunk.len().div_ceil(8)];
    let mut targets = Vec::new();
    let mut addrs = Vec::new();
    let mut loads = Vec::new();
    let mut prev_addr = 0u64;
    let mut prev_load = 0u64;
    let mut expect_pc = first.pc;
    let mut expect_seq = first.seq;

    let snapshot = *regs;
    for (i, u) in chunk.iter().enumerate() {
        if u.seq != expect_seq {
            return Err(unencodable(u.seq, "sequence numbers are not dense"));
        }
        if u.pc != expect_pc {
            return Err(unencodable(
                u.seq,
                format!("pc {:#x} does not chain from previous next_pc {expect_pc:#x}", u.pc),
            ));
        }
        let word = encode(&u.inst);
        match dict.get(&u.pc) {
            None => {
                dict.insert(u.pc, word);
            }
            Some(&w) if w == word => {}
            Some(_) => {
                return Err(unencodable(u.seq, "two different instructions at one pc"));
            }
        }
        if u.next_pc != u.pc.wrapping_add(4) {
            bitmap[i / 8] |= 1 << (i % 8);
            put_delta(&mut targets, u.pc.wrapping_add(4), u.next_pc);
        }
        match (mem_shape(&u.inst), u.mem) {
            (None, None) => {}
            (Some((size, is_store)), Some(m)) if m.size == size && m.is_store == is_store => {
                put_delta(&mut addrs, prev_addr, m.addr);
                prev_addr = m.addr;
            }
            _ => {
                return Err(unencodable(
                    u.seq,
                    "memory access does not match the instruction's shape",
                ));
            }
        }
        match (derive_rd(&u.inst, u.pc, regs), u.rd_value) {
            (DerivedRd::None, None) => {}
            (DerivedRd::Value(rd, v), Some(actual)) if v == actual => {
                if !rd.is_zero() {
                    regs[rd.index()] = v;
                }
            }
            (DerivedRd::Load(rd), Some(v)) => {
                put_delta(&mut loads, prev_load, v);
                prev_load = v;
                if !rd.is_zero() {
                    regs[rd.index()] = v;
                }
            }
            _ => {
                return Err(unencodable(
                    u.seq,
                    "destination value does not match ISA semantics",
                ));
            }
        }
        expect_pc = u.next_pc;
        expect_seq = u.seq + 1;
    }

    // Assemble the payload.
    let mut payload = Vec::with_capacity(
        64 + 256 + dict.len() * 9 + bitmap.len() + targets.len() + addrs.len() + loads.len(),
    );
    payload.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    payload.extend_from_slice(&first.seq.to_le_bytes());
    payload.extend_from_slice(&first.pc.to_le_bytes());
    for v in snapshot {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    // Dictionary: count, then (pc-delta varint, word u32 LE) sorted by pc.
    let mut dict_stream = Vec::with_capacity(dict.len() * 9);
    put_varint(&mut dict_stream, dict.len() as u64);
    let mut prev_pc = 0u64;
    for (&pc, &word) in &dict {
        put_varint(&mut dict_stream, pc.wrapping_sub(prev_pc));
        dict_stream.extend_from_slice(&word.to_le_bytes());
        prev_pc = pc;
    }
    for stream in [&dict_stream, &bitmap, &targets, &addrs, &loads] {
        put_varint(&mut payload, stream.len() as u64);
        payload.extend_from_slice(stream);
    }
    Ok(payload)
}

// --- decoding -------------------------------------------------------------

/// Decodes one block payload (already checksum-verified), advancing `regs`.
fn decode_block(payload: &[u8], regs: &mut [u64; 32]) -> Result<Vec<Retired>, TraceIoError> {
    let mut pos = 0usize;
    let fixed = payload.get(0..20 + 256).ok_or(TraceIoError::Truncated)?;
    let count = u32::from_le_bytes(fixed[0..4].try_into().unwrap()) as usize;
    let first_seq = u64::from_le_bytes(fixed[4..12].try_into().unwrap());
    let start_pc = u64::from_le_bytes(fixed[12..20].try_into().unwrap());
    let mut snapshot = [0u64; 32];
    for (i, s) in snapshot.iter_mut().enumerate() {
        *s = u64::from_le_bytes(fixed[20 + i * 8..28 + i * 8].try_into().unwrap());
    }
    *regs = snapshot;
    pos += 20 + 256;
    if count > (1 << 28) {
        return Err(TraceIoError::Truncated);
    }

    let mut streams = [&payload[0..0]; 5];
    for s in streams.iter_mut() {
        let len = get_varint(payload, &mut pos)? as usize;
        *s = payload
            .get(pos..pos.checked_add(len).ok_or(TraceIoError::Truncated)?)
            .ok_or(TraceIoError::Truncated)?;
        pos += len;
    }
    let [dict_stream, bitmap, targets, addrs, loads] = streams;

    // Dictionary: pc → decoded Inst, sorted by pc for binary search.
    let mut dpos = 0usize;
    let entries = get_varint(dict_stream, &mut dpos)? as usize;
    if entries > count.max(1) {
        return Err(TraceIoError::Truncated);
    }
    let mut dict: Vec<(u64, Inst)> = Vec::with_capacity(entries);
    let mut prev_pc = 0u64;
    for _ in 0..entries {
        let pc = prev_pc.wrapping_add(get_varint(dict_stream, &mut dpos)?);
        let wb = dict_stream
            .get(dpos..dpos + 4)
            .ok_or(TraceIoError::Truncated)?;
        dpos += 4;
        let word = u32::from_le_bytes(wb.try_into().unwrap());
        let inst = decode(word).map_err(|e| TraceIoError::Decode {
            seq: first_seq,
            detail: e.to_string(),
        })?;
        dict.push((pc, inst));
        prev_pc = pc;
    }

    if bitmap.len() != count.div_ceil(8) {
        return Err(TraceIoError::Truncated);
    }

    let (mut tpos, mut apos, mut lpos) = (0usize, 0usize, 0usize);
    let (mut prev_addr, mut prev_load) = (0u64, 0u64);
    let mut pc = start_pc;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let inst = match dict.binary_search_by_key(&pc, |&(p, _)| p) {
            Ok(d) => dict[d].1,
            Err(_) => return Err(TraceIoError::Truncated),
        };
        let next_pc = if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            get_delta(targets, &mut tpos, pc.wrapping_add(4))?
        } else {
            pc.wrapping_add(4)
        };
        let mem = match mem_shape(&inst) {
            Some((size, is_store)) => {
                let addr = get_delta(addrs, &mut apos, prev_addr)?;
                prev_addr = addr;
                Some(MemAccess {
                    addr,
                    size,
                    is_store,
                })
            }
            None => None,
        };
        let rd_value = match derive_rd(&inst, pc, regs) {
            DerivedRd::None => None,
            DerivedRd::Value(rd, v) => {
                if !rd.is_zero() {
                    regs[rd.index()] = v;
                }
                Some(v)
            }
            DerivedRd::Load(rd) => {
                let v = get_delta(loads, &mut lpos, prev_load)?;
                prev_load = v;
                if !rd.is_zero() {
                    regs[rd.index()] = v;
                }
                Some(v)
            }
        };
        out.push(Retired {
            seq: first_seq + i as u64,
            pc,
            inst,
            next_pc,
            mem,
            rd_value,
        });
        pc = next_pc;
    }
    // Every stream must be fully consumed: leftovers mean the payload is
    // not what the encoder wrote (and the checksum collided, or a bug).
    if tpos != targets.len() || apos != addrs.len() || lpos != loads.len() {
        return Err(TraceIoError::Truncated);
    }
    Ok(out)
}

/// Reads one `len | payload | checksum` block frame from `r`, verifying
/// the checksum. Returns the raw payload.
fn read_block_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, TraceIoError> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb).map_err(TraceIoError::from)?;
    let len = u32::from_le_bytes(lenb) as usize;
    // A block of DEFAULT_BLOCK_UOPS µ-ops is a few MB even in the worst
    // case; an absurd length is a corrupt frame, not an allocation request.
    if len > (1 << 30) {
        return Err(TraceIoError::Truncated);
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(TraceIoError::from)?;
    let mut sumb = [0u8; 8];
    r.read_exact(&mut sumb).map_err(TraceIoError::from)?;
    let stored = u64::from_le_bytes(sumb);
    let mut fnv = Fnv::new();
    for &b in &payload {
        fnv.u8(b);
    }
    let actual = fnv.finish();
    if actual != stored {
        return Err(TraceIoError::ChecksumMismatch { stored, actual });
    }
    Ok(payload)
}

/// Fully decodes an HTRC2 stream: header plus every block, verifying all
/// checksums and that the µ-op count matches the header. Used by deep
/// verification and tests; sweep replay streams via [`BlockReplay`]
/// instead of materializing.
///
/// # Errors
///
/// Any [`TraceIoError`]; see [`read_header`].
pub fn decode_all<R: Read>(r: &mut R) -> Result<(Htrc2Header, Vec<Retired>), TraceIoError> {
    let header = read_header(r)?;
    let mut regs = [0u64; 32];
    let mut uops = Vec::with_capacity(header.uops.min(1 << 28) as usize);
    for _ in 0..header.blocks {
        let payload = read_block_frame(r)?;
        uops.extend(decode_block(&payload, &mut regs)?);
    }
    if uops.len() as u64 != header.uops {
        return Err(TraceIoError::Truncated);
    }
    let actual = content_stamp(&uops, &header.output).checksum;
    if actual != header.stamp.checksum {
        return Err(TraceIoError::ChecksumMismatch {
            stored: header.stamp.checksum,
            actual,
        });
    }
    Ok((header, uops))
}

/// Verifies an HTRC2 file's framing integrity without decoding µ-ops:
/// header checksum, every block frame checksum, and end-of-file exactly
/// after the last block. Any flipped byte anywhere in the file fails.
/// O(file size) I/O, O(block) memory.
///
/// # Errors
///
/// Any [`TraceIoError`]; `Truncated` for trailing garbage.
pub fn verify_file(path: &Path) -> Result<Htrc2Header, TraceIoError> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    let header = read_header(&mut r)?;
    for _ in 0..header.blocks {
        read_block_frame(&mut r)?;
    }
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => Ok(header),
        Ok(_) => Err(TraceIoError::Truncated),
        Err(e) => Err(TraceIoError::Io(e.to_string())),
    }
}

// --- streaming replay -----------------------------------------------------

/// A streaming µ-op source over an HTRC2 file: decodes one block at a time,
/// so a sweep cell replaying a 100 MB trace holds ~5 MB, not the whole
/// recording. Implements `Iterator<Item = Retired>` (and therefore
/// [`UopSource`](crate::UopSource)).
///
/// The file's framing should be verified before replay (the store does this
/// on every open); corruption that appears *mid-replay* — the file changed
/// under us — panics with the path and the block error, which a resilient
/// sweep quarantines like any other cell fault.
#[derive(Debug)]
pub struct BlockReplay {
    r: io::BufReader<std::fs::File>,
    path: PathBuf,
    blocks_left: u32,
    total: u64,
    consumed: u64,
    regs: [u64; 32],
    buf: Vec<Retired>,
    pos: usize,
}

impl BlockReplay {
    /// Opens `path`, reads the header, and positions at the first block.
    ///
    /// # Errors
    ///
    /// Any [`TraceIoError`] from opening or header verification.
    pub fn open(path: &Path) -> Result<BlockReplay, TraceIoError> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        let header = read_header(&mut r)?;
        Ok(BlockReplay {
            r,
            path: path.to_path_buf(),
            blocks_left: header.blocks,
            total: header.uops,
            consumed: 0,
            regs: [0u64; 32],
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Total µ-ops in the underlying trace.
    pub fn len_total(&self) -> u64 {
        self.total
    }

    fn refill(&mut self) -> bool {
        if self.blocks_left == 0 {
            return false;
        }
        let next = read_block_frame(&mut self.r)
            .and_then(|payload| decode_block(&payload, &mut self.regs));
        match next {
            Ok(uops) => {
                self.blocks_left -= 1;
                self.buf = uops;
                self.pos = 0;
                !self.buf.is_empty()
            }
            Err(e) => panic!(
                "trace {} corrupted mid-replay (block {} of stream): {e}",
                self.path.display(),
                self.blocks_left
            ),
        }
    }
}

impl Iterator for BlockReplay {
    type Item = Retired;

    #[inline]
    fn next(&mut self) -> Option<Retired> {
        if self.pos >= self.buf.len() && !self.refill() {
            return None;
        }
        let u = self.buf[self.pos];
        self.pos += 1;
        self.consumed += 1;
        Some(u)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.total - self.consumed) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BlockReplay {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordedTrace;
    use helios_isa::parse_asm;

    /// Exercises every stream: loads, stores, taken/not-taken branches,
    /// rd-writing and rd-less µ-ops, jumps, and outputs.
    const RICH: &str = "li a1, 0x1000\n\
                        li a0, 5\n\
                        top: sd a0, 0(a1)\n\
                        ld a2, 0(a1)\n\
                        addi a0, a0, -1\n\
                        bnez a0, top\n\
                        li a7, 64\n\
                        ecall\n\
                        ebreak";

    fn rich_trace() -> RecordedTrace {
        RecordedTrace::capture(parse_asm(RICH).unwrap(), 1000).unwrap()
    }

    fn encode_to_vec(t: &RecordedTrace, block: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_v2(t.uops(), t.output(), "rich", block, &mut buf).unwrap();
        buf
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn round_trips_single_and_multi_block() {
        let t = rich_trace();
        for block in [1u32, 2, 7, DEFAULT_BLOCK_UOPS] {
            let buf = encode_to_vec(&t, block);
            let (header, uops) = decode_all(&mut buf.as_slice()).unwrap();
            assert_eq!(uops, t.uops(), "block size {block}");
            assert_eq!(header.output, t.output());
            assert_eq!(header.stamp, t.stamp());
            assert_eq!(header.name, "rich");
        }
    }

    #[test]
    fn multi_block_framing_is_exact() {
        let t = rich_trace();
        let buf = encode_to_vec(&t, 7);
        let (header, _) = decode_all(&mut buf.as_slice()).unwrap();
        assert_eq!(header.blocks as usize, t.len().div_ceil(7));
        assert_eq!(header.block_uops, 7);
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let t = rich_trace();
        let clean = encode_to_vec(&t, 8);
        for off in 0..clean.len() {
            let mut bad = clean.clone();
            bad[off] ^= 0x40;
            assert!(
                decode_all(&mut bad.as_slice()).is_err(),
                "flip at byte {off} decoded successfully"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let t = rich_trace();
        let clean = encode_to_vec(&t, 8);
        for len in 0..clean.len() {
            assert!(
                decode_all(&mut &clean[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
        // Trailing garbage fails verify_file (decode_all reads a stream and
        // cannot see past the last block; the file-level check can).
        let dir = std::env::temp_dir().join(format!("helios-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.htrc2");
        let mut padded = clean.clone();
        padded.push(0);
        std::fs::write(&p, &padded).unwrap();
        assert!(matches!(verify_file(&p), Err(TraceIoError::Truncated)));
        std::fs::write(&p, &clean).unwrap();
        assert!(verify_file(&p).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_emulator_traces_are_rejected_not_miscoded() {
        let t = rich_trace();
        let mut broken = t.uops().to_vec();
        // Violate pc chaining.
        broken[3].pc ^= 8;
        let mut buf = Vec::new();
        let err = encode_v2(&broken, &[], "x", 64, &mut buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Unencodable { .. }), "{err}");

        // Violate memory shape: a load with no access record.
        let mut broken = t.uops().to_vec();
        let li = broken.iter().position(|u| u.mem.is_some()).unwrap();
        broken[li].mem = None;
        let mut buf = Vec::new();
        assert!(matches!(
            encode_v2(&broken, &[], "x", 64, &mut buf),
            Err(TraceIoError::Unencodable { .. })
        ));

        // Violate value semantics: an ALU result that isn't eval's.
        let mut broken = t.uops().to_vec();
        let ai = broken
            .iter()
            .position(|u| matches!(u.inst, Inst::OpImm { .. }) && u.rd_value.is_some())
            .unwrap();
        broken[ai].rd_value = Some(broken[ai].rd_value.unwrap() ^ 1);
        let mut buf = Vec::new();
        assert!(matches!(
            encode_v2(&broken, &[], "x", 64, &mut buf),
            Err(TraceIoError::Unencodable { .. })
        ));
    }

    #[test]
    fn block_replay_streams_identically() {
        let t = rich_trace();
        let dir = std::env::temp_dir().join(format!("helios-codec-br-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.htrc2");
        let mut f = std::io::BufWriter::new(std::fs::File::create(&p).unwrap());
        encode_v2(t.uops(), t.output(), "rich", 8, &mut f).unwrap();
        use std::io::Write as _;
        f.flush().unwrap();
        drop(f);
        let replay = BlockReplay::open(&p).unwrap();
        assert_eq!(replay.len(), t.len());
        let streamed: Vec<Retired> = replay.collect();
        assert_eq!(streamed.as_slice(), t.uops());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_files_report_format_version() {
        // A retired v1 file: magic, format 1, then a 28-byte header.
        let mut v1 = TRACE_MAGIC.to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&[0; 28]);
        assert!(matches!(
            read_header(&mut v1.as_slice()),
            Err(TraceIoError::FormatVersion { found: 1, want: 2 })
        ));
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        encode_v2(&[], &[7], "empty", 64, &mut buf).unwrap();
        let (header, uops) = decode_all(&mut buf.as_slice()).unwrap();
        assert!(uops.is_empty());
        assert_eq!(header.output, vec![7]);
    }
}
