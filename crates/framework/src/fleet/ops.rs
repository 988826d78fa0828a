//! Compact fleet op codec, laid out and bounds-checked by `cca_data::le`.
//! Every request is `[op u8]`, then (all but lookup) `[rank u32][generation
//! u64]`, then the op's LE fields; every reply opens `[status
//! u8][generation u64]` so a child learns about a rollback from *any* op
//! it happens to be in. Labels are `u16`-counted, payloads `u32`-counted.
//! The hub reads each request whole — trailing bytes included — before it
//! acts on any of it.

use cca_data::le::{self, Reader, Writer};

pub const OP_SEND: u8 = 1;
pub const OP_RECV: u8 = 2;
pub const OP_CHECKPOINT: u8 = 3;
pub const OP_RESTORE: u8 = 4;
pub const OP_RESYNC: u8 = 5;
pub const OP_RESULT: u8 = 6;
pub const OP_LOOKUP: u8 = 7;

/// Op succeeded; any payload follows the status header.
pub const ST_OK: u8 = 0;
/// Nothing available (empty mailbox, no committed checkpoint, peers
/// not yet resynced, unknown label) — poll again.
pub const ST_EMPTY: u8 = 1;
/// The request carried a stale generation; the header's generation
/// is the one to adopt before replaying.
pub const ST_STALE: u8 = 2;

/// Join accepted.
pub const JOIN_OK: u8 = 0;
/// Rank outside `0..size`.
pub const JOIN_BAD_RANK: u8 = 1;
/// The rank already has a live session.
pub const JOIN_DUPLICATE: u8 = 2;
/// Incarnation not newer than the last join — a stale process.
pub const JOIN_STALE_INCARNATION: u8 = 3;

/// A `u16`-counted UTF-8 label.
pub fn label<'a>(r: &mut Reader<'a>) -> Result<&'a str, le::Error> {
    let n = r.get::<u16>()?;
    std::str::from_utf8(r.bytes(n.into())?).map_err(|_| le::Error::Utf8)
}

fn put_label(w: &mut Writer<'_>, label: &str) {
    w.put(label.len() as u16);
    w.bytes(label.as_bytes());
}

/// `op`, `rank` and `gen`, then `len` more bytes from `write`.
fn req(op: u8, rank: u32, gen: u64, len: usize, write: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    le::encode(13 + len, |w| {
        w.put(op);
        w.put(rank);
        w.put(gen);
        write(w);
    })
}

pub fn send_req(rank: u32, gen: u64, dst: u32, context: u32, tag: u64, bytes: &[u8]) -> Vec<u8> {
    req(OP_SEND, rank, gen, 20 + bytes.len(), |w| {
        w.put(dst);
        w.put(context);
        w.put(tag);
        w.bytes32(bytes);
    })
}

pub fn recv_req(rank: u32, gen: u64, wait_ms: u32) -> Vec<u8> {
    req(OP_RECV, rank, gen, 4, |w| w.put(wait_ms))
}

pub fn checkpoint_req(rank: u32, gen: u64, step: u64, bytes: &[u8]) -> Vec<u8> {
    req(OP_CHECKPOINT, rank, gen, 12 + bytes.len(), |w| {
        w.put(step);
        w.bytes32(bytes);
    })
}

pub fn plain_req(op: u8, rank: u32, gen: u64) -> Vec<u8> {
    req(op, rank, gen, 0, |_| {})
}

pub fn result_req(rank: u32, gen: u64, bytes: &[u8]) -> Vec<u8> {
    req(OP_RESULT, rank, gen, 4 + bytes.len(), |w| w.bytes32(bytes))
}

pub fn lookup_req(label: &str) -> Vec<u8> {
    le::encode(3 + label.len(), |w| {
        w.put(OP_LOOKUP);
        put_label(w, label);
    })
}

/// Bytes of a reply's status and generation header.
pub const REPLY_HEADER_LEN: usize = 9;

/// The status and generation header, then `len` bytes from `write`.
pub fn reply(
    status: u8,
    generation: u64,
    len: usize,
    write: impl FnOnce(&mut Writer<'_>),
) -> Vec<u8> {
    le::encode(REPLY_HEADER_LEN + len, |w| {
        w.put(status);
        w.put(generation);
        write(w);
    })
}

/// A reply's status and generation.
pub fn reply_header(reply: &[u8]) -> Result<(u8, u64), le::Error> {
    let mut r = Reader::new(reply);
    Ok((r.get()?, r.get()?))
}

pub fn encode_join_hello(rank: u32, incarnation: u32, labels: &[String]) -> Vec<u8> {
    let len = 10 + labels.iter().map(|l| 2 + l.len()).sum::<usize>();
    le::encode(len, |w| {
        w.put(rank);
        w.put(incarnation);
        w.put(labels.len() as u16);
        for l in labels {
            put_label(w, l);
        }
    })
}

/// `(rank, incarnation, labels)`.
pub fn decode_join_hello(hello: &[u8]) -> Result<(u32, u32, Vec<&str>), le::Error> {
    le::decode(hello, |r| {
        let (rank, incarnation, n) = (r.get()?, r.get()?, r.get::<u16>()?);
        // Collected without a capacity: the count is not trusted.
        let labels = (0..n).map(|_| label(r)).collect::<Result<_, _>>()?;
        Ok((rank, incarnation, labels))
    })
}

pub struct JoinAck {
    pub status: u8,
    pub generation: u64,
    pub session: u64,
    pub size: u32,
    /// `u64::MAX` encodes "no committed checkpoint yet".
    pub committed_step: u64,
}

pub fn encode_join_ack(ack: &JoinAck) -> Vec<u8> {
    le::encode(29, |w| {
        w.put(ack.status);
        w.put(ack.generation);
        w.put(ack.session);
        w.put(ack.size);
        w.put(ack.committed_step);
    })
}

pub fn decode_join_ack(buf: &[u8]) -> Result<JoinAck, le::Error> {
    le::decode(buf, |r| {
        Ok(JoinAck {
            status: r.get()?,
            generation: r.get()?,
            session: r.get()?,
            size: r.get()?,
            committed_step: r.get()?,
        })
    })
}

pub fn encode_leave(rank: u32, incarnation: u32) -> Vec<u8> {
    le::encode(8, |w| {
        w.put(rank);
        w.put(incarnation);
    })
}

/// `(rank, incarnation)`.
pub fn decode_leave(goodbye: &[u8]) -> Result<(u32, u32), le::Error> {
    le::decode(goodbye, |r| Ok((r.get()?, r.get()?)))
}
