//! Sub-message framing for MTU-aware datagram coalescing.
//!
//! One UDP datagram can carry several record-delimited RPC messages — the
//! transport-level half of the classic Sun RPC *batching* optimization
//! (one-way calls queued client-side and flushed together with the next
//! synchronous call). The frame reuses the RFC 1057 record-marking idiom
//! of [`crate::rec`]: a 4-byte big-endian header per sub-message whose
//! top bit is a flag and whose low 31 bits are the length — here the flag
//! marks a **one-way** call (no reply expected) instead of `LAST_FRAG`.
//!
//! Envelope layout (all integers big-endian):
//!
//! ```text
//! u32 COALESCE_MAGIC
//! u32 count                    (≥ 1 sub-messages)
//! count × { u32 oneway|len ; len bytes }
//! ```
//!
//! [`split`] is *strict*: the magic must match, every sub-message header
//! must be in bounds, and the parse must consume the datagram exactly —
//! anything else returns `None` and the datagram is treated as one plain
//! RPC message. A plain message whose xid happens to equal the magic
//! (2⁻³² per xid) would additionally have to parse as a valid envelope
//! byte-for-byte to be misread; servers can therefore unconditionally
//! probe every datagram with [`split`].

/// Leading marker of a coalesced envelope ("coalesce", vanity-hex).
pub const COALESCE_MAGIC: u32 = 0xC0A1_E5CE;

/// Sub-message header flag: this CALL expects no reply (Sun-style
/// one-way batch entry). Same bit position as `rec::LAST_FRAG_FLAG`.
pub const ONEWAY_FLAG: u32 = 0x8000_0000;

/// Low 31 bits of a sub-message header: the payload length.
pub const LEN_MASK: u32 = 0x7fff_ffff;

/// Fixed envelope overhead: magic + count.
pub const ENVELOPE_HEADER_BYTES: usize = 8;

/// Per-sub-message overhead: the flag|length word.
pub const SUBMSG_HEADER_BYTES: usize = 4;

/// Start (or restart) an envelope in `buf`: clears it and writes the
/// magic plus a zero count. Follow with [`push`] per sub-message.
pub fn begin(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&COALESCE_MAGIC.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes());
}

/// Append one sub-message to an envelope started with [`begin`],
/// bumping the count word in place.
pub fn push(buf: &mut Vec<u8>, msg: &[u8], oneway: bool) {
    debug_assert!(
        buf.len() >= ENVELOPE_HEADER_BYTES,
        "push into an un-begun envelope"
    );
    assert!(
        msg.len() as u64 <= LEN_MASK as u64,
        "sub-message exceeds the 31-bit length field"
    );
    let hdr = msg.len() as u32 | if oneway { ONEWAY_FLAG } else { 0 };
    buf.extend_from_slice(&hdr.to_be_bytes());
    buf.extend_from_slice(msg);
    let count = u32::from_be_bytes(buf[4..8].try_into().expect("count word")) + 1;
    buf[4..8].copy_from_slice(&count.to_be_bytes());
}

/// Sub-messages currently packed in an envelope (0 right after
/// [`begin`]).
pub fn count(buf: &[u8]) -> u32 {
    if buf.len() < ENVELOPE_HEADER_BYTES {
        return 0;
    }
    u32::from_be_bytes(buf[4..8].try_into().expect("count word"))
}

/// Bytes [`push`] adds to an envelope for a `msg_len`-byte sub-message —
/// what an MTU-budget check adds up before packing.
pub fn pushed_len(msg_len: usize) -> usize {
    SUBMSG_HEADER_BYTES + msg_len
}

/// The sub-messages of an envelope [`split`] has validated, as
/// (payload slice, one-way flag) in packed order, read where they lie in
/// the datagram.
#[derive(Debug, Clone)]
pub struct Parts<'a> {
    /// The bytes behind the sub-messages already yielded.
    rest: &'a [u8],
    /// Sub-messages still to yield.
    left: u32,
}

impl<'a> Iterator for Parts<'a> {
    type Item = (&'a [u8], bool);

    /// The next sub-message, or `None` once `left` reaches zero — or, in
    /// [`split`]'s validating walk only, where a header or its payload
    /// runs past the datagram.
    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let (hdr, body) = self.rest.split_first_chunk::<SUBMSG_HEADER_BYTES>()?;
        let hdr = u32::from_be_bytes(*hdr);
        let (msg, rest) = body.split_at_checked((hdr & LEN_MASK) as usize)?;
        self.rest = rest;
        self.left -= 1;
        Some((msg, hdr & ONEWAY_FLAG != 0))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Parts<'_> {}

/// Strictly parse a datagram as a coalesced envelope. Returns its
/// sub-messages, or `None` when the datagram is not a (complete,
/// exactly-sized, non-empty) envelope — in which case it is one plain RPC
/// message. The whole frame is checked before anything is yielded, and
/// nothing is allocated: the count word is trusted only as far as the
/// bytes behind it go, which is at most one sub-message per 4 bytes.
pub fn split(dg: &[u8]) -> Option<Parts<'_>> {
    let (head, body) = dg.split_first_chunk::<ENVELOPE_HEADER_BYTES>()?;
    let word = |at: usize| u32::from_be_bytes(head[at..at + 4].try_into().expect("4 bytes"));
    let count = word(4);
    if word(0) != COALESCE_MAGIC || count == 0 {
        return None;
    }
    let parts = Parts {
        rest: body,
        left: count,
    };
    let mut walk = parts.clone();
    for _ in 0..count {
        walk.next()?;
    }
    // Trailing garbage disqualifies the envelope: a plain message that
    // merely *starts* like one must not lose its tail.
    walk.rest.is_empty().then_some(parts)
}

/// Pack a message sequence into one envelope (convenience for tests and
/// one-shot senders; incremental senders use [`begin`]/[`push`]).
pub fn pack<'a>(msgs: impl IntoIterator<Item = (&'a [u8], bool)>) -> Vec<u8> {
    let mut buf = Vec::new();
    begin(&mut buf);
    for (msg, oneway) in msgs {
        push(&mut buf, msg, oneway);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_then_split_round_trips() {
        let msgs: Vec<(Vec<u8>, bool)> = vec![
            (vec![1, 2, 3, 4], true),
            (vec![], true),
            (vec![9; 100], false),
        ];
        let dg = pack(msgs.iter().map(|(m, ow)| (m.as_slice(), *ow)));
        assert_eq!(count(&dg), 3);
        let parts = split(&dg).expect("valid envelope");
        assert_eq!(parts.len(), 3);
        for ((got, got_ow), (want, want_ow)) in parts.zip(&msgs) {
            assert_eq!(got, want.as_slice());
            assert_eq!(got_ow, *want_ow);
        }
    }

    #[test]
    fn incremental_push_matches_one_shot_pack() {
        let mut buf = Vec::new();
        begin(&mut buf);
        assert_eq!(count(&buf), 0);
        push(&mut buf, &[1, 2], true);
        push(&mut buf, &[3], false);
        assert_eq!(buf, pack([(&[1u8, 2][..], true), (&[3u8][..], false)]));
        assert_eq!(
            buf.len(),
            ENVELOPE_HEADER_BYTES + pushed_len(2) + pushed_len(1)
        );
    }

    #[test]
    fn plain_messages_are_not_envelopes() {
        // A normal RPC message leads with its xid — anything but the
        // magic fails immediately.
        assert!(split(&[0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0]).is_none());
        // Too short for an envelope header.
        assert!(split(&[0xC0, 0xA1, 0xE5]).is_none());
        // Magic alone (count 0) is not a message stream.
        assert!(split(&pack([])).is_none());
    }

    #[test]
    fn truncated_or_padded_envelopes_are_rejected() {
        let dg = pack([(&[1u8, 2, 3][..], false)]);
        assert!(split(&dg[..dg.len() - 1]).is_none(), "truncated body");
        let mut padded = dg.clone();
        padded.push(0);
        assert!(split(&padded).is_none(), "trailing garbage");
        // Count claims more sub-messages than the bytes hold.
        for lie in [2, 1 << 20, u32::MAX] {
            let mut overcount = dg.clone();
            overcount[4..8].copy_from_slice(&lie.to_be_bytes());
            assert!(split(&overcount).is_none(), "count {lie}");
        }
    }

    #[test]
    fn oneway_flag_does_not_leak_into_length() {
        let dg = pack([(&[0u8; 64][..], true)]);
        let (msg, oneway) = split(&dg).expect("valid").next().expect("one part");
        assert_eq!(msg.len(), 64);
        assert!(oneway);
    }
}
