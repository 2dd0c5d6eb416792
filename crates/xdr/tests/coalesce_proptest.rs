//! Property tests of the coalescing envelope (`coalesce.rs`): byte
//! transparency over arbitrary sub-message splits, and the parser against
//! a reference splitter over arbitrary bytes.
//!
//! The batching client packs whatever record-delimited messages fit the
//! MTU, so the frame must round-trip **any** sequence of payloads — any
//! lengths (including empty), any one-way flag pattern, any count — and
//! must never misread a plain message as an envelope.

use proptest::prelude::*;
use specrpc_xdr::coalesce::{
    count, pack, split, COALESCE_MAGIC, ENVELOPE_HEADER_BYTES, LEN_MASK, ONEWAY_FLAG,
    SUBMSG_HEADER_BYTES,
};

/// One-way flags for sub-message `i` drawn from a bitmask (the vendored
/// proptest shim has no tuple strategies).
fn flag(mask: u64, i: usize) -> bool {
    mask >> (i % 64) & 1 == 1
}

/// The envelope parser as a plain index walk that collects as it goes:
/// what [`split`] must agree with on every input. It grows its `Vec` one
/// part at a time, so a lying count word costs it nothing either.
fn reference_split(dg: &[u8]) -> Option<Vec<(&[u8], bool)>> {
    if dg.len() < ENVELOPE_HEADER_BYTES {
        return None;
    }
    let word = |at: usize| u32::from_be_bytes([dg[at], dg[at + 1], dg[at + 2], dg[at + 3]]);
    let count = word(4);
    if word(0) != COALESCE_MAGIC || count == 0 {
        return None;
    }
    let mut parts = Vec::new();
    let mut pos = ENVELOPE_HEADER_BYTES;
    for _ in 0..count {
        if pos + SUBMSG_HEADER_BYTES > dg.len() {
            return None;
        }
        let hdr = word(pos);
        let start = pos + SUBMSG_HEADER_BYTES;
        let end = start + (hdr & LEN_MASK) as usize;
        if end > dg.len() {
            return None;
        }
        parts.push((&dg[start..end], hdr & ONEWAY_FLAG != 0));
        pos = end;
    }
    (pos == dg.len()).then_some(parts)
}

/// `split`'s verdict on `dg`, its parts collected, checked against
/// [`reference_split`] and against its own length claim.
fn agrees(dg: &[u8]) -> bool {
    let parsed = split(dg).map(|parts| {
        let claimed = parts.len();
        let parts: Vec<_> = parts.collect();
        assert_eq!(parts.len(), claimed, "ExactSizeIterator::len is the count");
        parts
    });
    let reference = reference_split(dg);
    assert_eq!(parsed, reference, "{dg:02x?}");
    parsed.is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `unpack(pack(msgs)) == msgs`: arbitrary payloads and flags
    /// survive the envelope byte-for-byte, in order.
    #[test]
    fn pack_split_round_trips_arbitrary_messages(
        msgs in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..600),
            1..12,
        ),
        mask in any::<u64>(),
    ) {
        let dg = pack(
            msgs.iter()
                .enumerate()
                .map(|(i, m)| (m.as_slice(), flag(mask, i))),
        );
        prop_assert_eq!(count(&dg), msgs.len() as u32);
        let parts = split(&dg).expect("packed envelope must parse");
        prop_assert_eq!(parts.len(), msgs.len());
        for (i, ((got, got_ow), want)) in parts.zip(&msgs).enumerate() {
            prop_assert_eq!(got, want.as_slice());
            prop_assert_eq!(got_ow, flag(mask, i));
        }
    }

    /// Plain RPC messages (arbitrary bytes not starting with the magic)
    /// are never misread as envelopes.
    #[test]
    fn non_magic_bytes_are_never_envelopes(
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let is_magic = payload.len() >= 4
            && payload[0..4] == COALESCE_MAGIC.to_be_bytes();
        if !is_magic {
            prop_assert!(split(&payload).is_none());
        }
    }

    /// Any strict prefix or extension of a valid envelope fails the
    /// exact-consumption check — truncation and trailing garbage are
    /// both detected, so a corrupted datagram degrades to "plain
    /// message" instead of silently dropping sub-messages.
    #[test]
    fn truncation_and_padding_disqualify(
        msgs in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..64),
            1..5,
        ),
        mask in any::<u64>(),
        extra in any::<u8>(),
    ) {
        let dg = pack(
            msgs.iter()
                .enumerate()
                .map(|(i, m)| (m.as_slice(), flag(mask, i))),
        );
        prop_assert!(split(&dg[..dg.len() - 1]).is_none());
        let mut padded = dg.clone();
        padded.push(extra);
        prop_assert!(split(&padded).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `split` and [`reference_split`] agree on accept / reject and on
    /// every part, and `split` never panics, over: a valid envelope; the
    /// same with its count word replaced (a near miss or an arbitrary
    /// word, `u32::MAX` among the edge values); with bytes flipped, which
    /// in small parts mostly lands in length words; cut short or padded;
    /// and the magic followed by arbitrary bytes.
    #[test]
    fn split_agrees_with_the_reference_splitter(
        msgs in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..24),
            0..6,
        ),
        mask in any::<u64>(),
        lie in any::<u32>(),
        flips in prop::collection::vec(any::<u64>(), 0..4),
        noise in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let dg = pack(
            msgs.iter()
                .enumerate()
                .map(|(i, m)| (m.as_slice(), flag(mask, i))),
        );
        prop_assert_eq!(agrees(&dg), !msgs.is_empty());

        for claimed in [lie, lie % (msgs.len() as u32 + 3)] {
            let mut lying = dg.clone();
            lying[4..8].copy_from_slice(&claimed.to_be_bytes());
            let kept = claimed == msgs.len() as u32 && claimed > 0;
            prop_assert_eq!(agrees(&lying), kept);
        }

        let mut flipped = dg.clone();
        for &f in &flips {
            let at = (f >> 8) as usize % flipped.len();
            flipped[at] ^= (f as u8).max(1);
        }
        agrees(&flipped);

        let cut = (lie as usize) % (dg.len() + 1);
        agrees(&dg[..cut]);
        agrees(&[&dg[..], &noise[..]].concat());

        agrees(&[&COALESCE_MAGIC.to_be_bytes()[..], &noise[..]].concat());
    }
}
