//! Client-side MTU-aware call coalescing — the transport half of the
//! classic Sun RPC **batching** optimization.
//!
//! One-way calls ([`crate::Transport::call_oneway`]) are queued into a
//! [`specrpc_xdr::coalesce`] envelope instead of each paying a full
//! datagram. The envelope flushes when
//!
//! * the next sub-message would overflow the configured MTU,
//! * the oldest queued call has lingered past the policy's virtual-time
//!   bound, or
//! * a **synchronous** call comes through: if it fits, it is sealed into
//!   the same envelope (reply-expected), so one datagram carries the
//!   whole pipeline and the sync reply acknowledges it — Sun's
//!   "batched calls are flushed by the next non-batched call".
//!
//! Flushed-but-unacknowledged envelopes stay in a bounded resend window;
//! a retransmitting sync call replays them ahead of itself, and the
//! server's duplicate-request cache absorbs the replays, so handlers run
//! exactly once even when the coalesced datagram itself is retransmitted.
//! Like the original Sun batch mode, an unacknowledged one-way that falls
//! off the window (or dies with a timed-out call) is simply lost —
//! at-most-once, by design.

use specrpc_netsim::SimTime;

/// What an envelope flush to the wire was triggered by (the counters in
/// [`CoalesceStats`] break flushes down by reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// The next sub-message would not fit under the MTU.
    Mtu,
    /// The oldest queued one-way aged past [`CoalescePolicy::linger`].
    Linger,
    /// A synchronous call flushed the batch (sealed in or sent ahead).
    Sync,
    /// The caller asked ([`crate::Transport::flush_oneways`]).
    Explicit,
}

/// Flushed-but-unacknowledged envelopes kept for replay alongside a
/// retransmitting synchronous call. Older envelopes beyond the cap are
/// dropped (classic batch-mode at-most-once for one-way calls) and counted
/// in [`CoalesceStats::window_evictions`], whose docs quote this cap.
pub(crate) const WINDOW_CAP: usize = 32;

/// Tuning for [`crate::ClntUdp`] call coalescing
/// (`ClntUdp::with_coalescing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Maximum envelope size in bytes. A queued sub-message that would
    /// push the envelope past this flushes the envelope first; `0`
    /// degenerates to one datagram per call (the A/B baseline: identical
    /// framing and semantics, no amortization).
    pub mtu: usize,
    /// Longest the oldest queued one-way may wait (in virtual time)
    /// before the next queue/flush boundary forces the envelope out.
    pub linger: SimTime,
}

impl CoalescePolicy {
    /// A policy with the given MTU and linger bound.
    pub fn new(mtu: usize, linger: SimTime) -> Self {
        CoalescePolicy { mtu, linger }
    }

    /// Ethernet-flavored default: 1400-byte envelopes, 100 µs linger.
    pub fn ethernet() -> Self {
        CoalescePolicy::new(1400, SimTime::from_micros(100))
    }

    /// The degenerate one-datagram-per-call policy: every queued call
    /// flushes immediately. Same framing, same one-way semantics, no
    /// coalescing — the honest baseline the amortization is measured
    /// against.
    pub fn per_call() -> Self {
        CoalescePolicy::new(0, SimTime::ZERO)
    }
}

/// Observability counters for a client's call coalescer
/// (`ClntUdp::coalesce_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// One-way calls queued through the coalescer.
    pub oneways_queued: u64,
    /// Envelope flushes forced by the MTU budget.
    pub flushes_mtu: u64,
    /// Envelope flushes forced by the linger bound.
    pub flushes_linger: u64,
    /// Envelopes flushed or sealed by a synchronous call.
    pub flushes_sync: u64,
    /// Envelope flushes requested explicitly.
    pub flushes_explicit: u64,
    /// Sub-messages currently queued (not yet on the wire).
    pub pending_submessages: u32,
    /// Envelopes on the wire still awaiting a pipeline acknowledgment.
    pub unacked_envelopes: usize,
    /// Unacknowledged envelopes pushed out of the replay window because
    /// it already held its cap of 32: their one-ways were sent once and
    /// can no longer be replayed alongside a retransmitting sync call —
    /// if that one transmission was lost, so are they.
    pub window_evictions: u64,
}

/// The per-client coalescing state: the envelope under construction plus
/// the unacknowledged-envelope resend window. Owned by
/// [`crate::ClntUdp`]; the socket and buffer pool stay with the client.
pub(crate) struct CallCoalescer {
    pub(crate) policy: CoalescePolicy,
    /// Envelope under construction (empty = nothing queued; otherwise a
    /// begun [`specrpc_xdr::coalesce`] frame).
    pub(crate) pending: Vec<u8>,
    /// Virtual time the oldest sub-message in `pending` was queued.
    pub(crate) first_queued_at: Option<SimTime>,
    /// Flushed envelopes awaiting the pipeline ack (a matched sync
    /// reply), oldest first.
    pub(crate) window: Vec<Vec<u8>>,
    oneways_queued: u64,
    flushes_mtu: u64,
    flushes_linger: u64,
    flushes_sync: u64,
    flushes_explicit: u64,
    window_evictions: u64,
}

impl CallCoalescer {
    pub(crate) fn new(policy: CoalescePolicy) -> Self {
        CallCoalescer {
            policy,
            pending: Vec::new(),
            first_queued_at: None,
            window: Vec::new(),
            oneways_queued: 0,
            flushes_mtu: 0,
            flushes_linger: 0,
            flushes_sync: 0,
            flushes_explicit: 0,
            window_evictions: 0,
        }
    }

    pub(crate) fn note_queued(&mut self) {
        self.oneways_queued += 1;
    }

    pub(crate) fn note_flush(&mut self, reason: FlushReason) {
        match reason {
            FlushReason::Mtu => self.flushes_mtu += 1,
            FlushReason::Linger => self.flushes_linger += 1,
            FlushReason::Sync => self.flushes_sync += 1,
            FlushReason::Explicit => self.flushes_explicit += 1,
        }
    }

    /// Park a flushed envelope for replay, handing back the oldest one
    /// (counted in [`CoalesceStats::window_evictions`]) when the window
    /// is over [`WINDOW_CAP`].
    pub(crate) fn park(&mut self, envelope: Vec<u8>) -> Option<Vec<u8>> {
        self.window.push(envelope);
        (self.window.len() > WINDOW_CAP).then(|| {
            self.window_evictions += 1;
            self.window.remove(0)
        })
    }

    pub(crate) fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            oneways_queued: self.oneways_queued,
            flushes_mtu: self.flushes_mtu,
            flushes_linger: self.flushes_linger,
            flushes_sync: self.flushes_sync,
            flushes_explicit: self.flushes_explicit,
            pending_submessages: specrpc_xdr::coalesce::count(&self.pending),
            unacked_envelopes: self.window.len(),
            window_evictions: self.window_evictions,
        }
    }
}
