//! The simulated distributed-memory fabric: a multiplexed transport with a
//! data plane (cell pages) and a control plane (tagged byte payloads).
//!
//! The paper's distributed layer is MPI over Omni-Path; this environment has
//! neither, so ranks are OS threads connected by a full mesh of channels.
//! The crucial property is preserved: **ranks never share Env memory** — the
//! only way data crosses rank boundaries is an explicit transfer through a
//! [`Communicator`], and every transfer is metered, so the communication
//! pattern (and therefore the Dry-run optimisation and the scaling behaviour)
//! is exercised exactly as with real MPI.
//!
//! Two planes share one mesh:
//!
//! * **Data plane** — the deadlock-free superstep of [`Communicator::exchange`],
//!   matching the paper's statement that `refresh` "is synchronously executed
//!   when there are multiple tasks": every rank sends one request message to
//!   every other rank (possibly empty, always carrying its local success
//!   flag), serves the requests it receives, and then collects the page data
//!   addressed to it.  The global success flag is the conjunction of all
//!   local flags, so all ranks re-execute a failed step together.
//! * **Control plane** — tagged, unordered-with-respect-to-supersteps byte
//!   frames ([`ControlFrame`]) for out-of-band coordination: compiled-plan
//!   requests and replies in the cluster service, shutdown signals, and
//!   whatever future subsystems need.  Control frames arriving while a rank
//!   is inside a superstep are buffered and never perturb the page protocol;
//!   conversely, page traffic arriving while a rank waits in
//!   [`Communicator::recv_control`] is buffered for the next superstep.
//!
//! Both planes are metered in one [`CommStats`], with symmetric send/receive
//! counters: across a quiesced mesh, total `messages_sent` equals total
//! `messages_received` and total `bytes_sent` equals total `bytes_received`
//! (the balance the comm tests assert).
//!
//! Because the receiving side of an endpoint is single-owner (the pending
//! buffer needs `&mut`), a rank that dedicates a thread to the fabric hands
//! that thread the [`Communicator`] and keeps a cloneable [`ControlHandle`]
//! (send-only) and a [`CommProbe`] (stats-only) for everyone else.
//!
//! A superstep receive polls before it blocks (see [`SUPERSTEP_POLL`]), the
//! way MPI progress engines busy-wait when every rank has a CPU of its own.

use aohpc_env::BlockId;
use aohpc_mem::PageId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a superstep receive ([`Communicator::allreduce_and`],
/// [`Communicator::exchange`]) polls the mesh, yielding between polls,
/// before it blocks.
///
/// A rank that blocks is woken by its peer's send, and the scheduler may
/// wake it on the peer's CPU: the two ranks then share one CPU for
/// milliseconds while another idles, and a job's time changes from run to
/// run with where its ranks happened to land.  A rank that polls keeps its
/// CPU.  Polling yields, so another runnable thread on the CPU still gets
/// it, and it is bounded, so a long wait still ends in a blocking receive.
/// Meshes with more ranks than the process has CPUs block at once, since
/// there a polling rank would take CPU time from the rank it waits for.
pub const SUPERSTEP_POLL: Duration = Duration::from_millis(2);

/// CPUs available to the process, read once.
fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One page in flight: which block/page it is and its cells.
#[derive(Debug, Clone)]
pub struct PagePayload<C> {
    /// Block the page belongs to (block ids are identical across replicas).
    pub block: BlockId,
    /// Page index within the block.
    pub page: PageId,
    /// The page's cells.
    pub cells: Vec<C>,
}

/// First tag of the **liveness class**: control frames tagged
/// `>= LIVENESS_TAG_BASE` are background chatter (heartbeats, failure
/// suspicions) rather than application traffic.  They ride the same control
/// plane but are metered into [`CommStats::liveness_sent`] /
/// [`CommStats::liveness_received`] instead of the `control_*` /
/// `messages_*` / `bytes_*` ledgers, so the quiesced-mesh balance invariant
/// (`control_sent == control_received` once the application drains) keeps
/// holding while heartbeats are still in flight.
pub const LIVENESS_TAG_BASE: u32 = 0xF000_0000;

/// One control-plane frame: an application-tagged byte payload.
///
/// Tags are allocated by the subsystem using the plane (the cluster service
/// reserves a few for plan sharing and shutdown, and liveness tags live at
/// [`LIVENESS_TAG_BASE`] and up); the transport itself only routes and
/// meters them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlFrame {
    /// Sending rank.
    pub from: usize,
    /// Application-defined message kind.
    pub tag: u32,
    /// Opaque payload.
    pub bytes: Vec<u8>,
}

/// Messages exchanged between ranks.
#[derive(Debug, Clone)]
pub enum RankMessage<C> {
    /// A boolean contribution to a collective AND (the refresh success flag).
    Flag {
        /// Sending rank.
        from: usize,
        /// The sender's local flag.
        value: bool,
    },
    /// Phase 1 of a superstep: page requests plus the sender's success flag.
    Requests {
        /// Sending rank.
        from: usize,
        /// Pages the sender needs from the receiver.
        reqs: Vec<(BlockId, PageId)>,
        /// Whether the sender's step succeeded locally.
        local_success: bool,
    },
    /// Phase 2 of a superstep: the pages the receiver asked for.
    Pages {
        /// Sending rank.
        from: usize,
        /// Served pages.
        pages: Vec<PagePayload<C>>,
    },
    /// A control-plane frame (out-of-band with respect to supersteps).
    Control {
        /// Sending rank.
        from: usize,
        /// Application-defined message kind.
        tag: u32,
        /// Opaque payload.
        bytes: Vec<u8>,
    },
}

/// Communication counters of one rank (inputs to the cost model, the
/// weak-scaling analysis and the cluster service's per-node dashboards).
///
/// Send and receive are metered symmetrically on both planes: summed over all
/// ranks of a quiesced mesh, `messages_sent == messages_received` and
/// `bytes_sent == bytes_received`.  Bytes count page payloads
/// (`cells × sizeof(C)`) and control payloads (`bytes.len()`); the fixed-size
/// request/flag envelopes count as messages but carry no payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CommStats {
    /// Supersteps (collective refreshes) executed.
    pub supersteps: u64,
    /// Messages sent on either plane (excluding empty ones is NOT done: MPI
    /// would still need the synchronisation, so every message is counted).
    pub messages_sent: u64,
    /// Messages received on either plane.
    pub messages_received: u64,
    /// Pages shipped to other ranks.
    pub pages_sent: u64,
    /// Pages received from other ranks.
    pub pages_received: u64,
    /// Payload bytes shipped to other ranks (both planes).
    pub bytes_sent: u64,
    /// Payload bytes received from other ranks (both planes).
    pub bytes_received: u64,
    /// Control frames sent.
    pub control_sent: u64,
    /// Control frames received.
    pub control_received: u64,
    /// Liveness-class frames sent (tags `>=` [`LIVENESS_TAG_BASE`]:
    /// heartbeats, suspicions).  Kept out of every other ledger.
    pub liveness_sent: u64,
    /// Liveness-class frames received.
    pub liveness_received: u64,
}

/// Element-wise sum — the aggregation mesh-wide balance checks and the
/// cluster service's dashboards fold per-rank snapshots with.
impl std::ops::Add for CommStats {
    type Output = CommStats;

    fn add(self, rhs: CommStats) -> CommStats {
        CommStats {
            supersteps: self.supersteps + rhs.supersteps,
            messages_sent: self.messages_sent + rhs.messages_sent,
            messages_received: self.messages_received + rhs.messages_received,
            pages_sent: self.pages_sent + rhs.pages_sent,
            pages_received: self.pages_received + rhs.pages_received,
            bytes_sent: self.bytes_sent + rhs.bytes_sent,
            bytes_received: self.bytes_received + rhs.bytes_received,
            control_sent: self.control_sent + rhs.control_sent,
            control_received: self.control_received + rhs.control_received,
            liveness_sent: self.liveness_sent + rhs.liveness_sent,
            liveness_received: self.liveness_received + rhs.liveness_received,
        }
    }
}

/// The shared, atomically-updated counter block behind [`CommStats`].
///
/// Shared between the [`Communicator`], its [`ControlHandle`]s and its
/// [`CommProbe`]s, so sends from detached handles and reads from monitoring
/// threads all land in one rank-level ledger.
#[derive(Debug, Default)]
struct CommCounters {
    supersteps: AtomicU64,
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
    pages_sent: AtomicU64,
    pages_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    control_sent: AtomicU64,
    control_received: AtomicU64,
    liveness_sent: AtomicU64,
    liveness_received: AtomicU64,
}

impl CommCounters {
    fn snapshot(&self) -> CommStats {
        CommStats {
            supersteps: self.supersteps.load(Ordering::Relaxed),
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            pages_sent: self.pages_sent.load(Ordering::Relaxed),
            pages_received: self.pages_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            control_sent: self.control_sent.load(Ordering::Relaxed),
            control_received: self.control_received.load(Ordering::Relaxed),
            liveness_sent: self.liveness_sent.load(Ordering::Relaxed),
            liveness_received: self.liveness_received.load(Ordering::Relaxed),
        }
    }
}

/// A read-only view of one rank's [`CommStats`], detachable from the
/// endpoint: the cluster service keeps a probe per node so it can aggregate
/// fabric counters while each node's fabric thread owns the communicator.
#[derive(Debug, Clone)]
pub struct CommProbe {
    counters: Arc<CommCounters>,
}

impl CommProbe {
    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> CommStats {
        self.counters.snapshot()
    }
}

/// A cloneable, send-only handle onto one rank's control plane.
///
/// Sends are metered into the owning rank's [`CommStats`].  A rank may send
/// to itself — the frame arrives on its own receiver like any other, which is
/// how an owner thread blocked in [`Communicator::recv_control`] is woken for
/// shutdown.
pub struct ControlHandle<C> {
    rank: usize,
    senders: Vec<Sender<RankMessage<C>>>,
    counters: Arc<CommCounters>,
}

impl<C> Clone for ControlHandle<C> {
    fn clone(&self) -> Self {
        ControlHandle {
            rank: self.rank,
            senders: self.senders.clone(),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<C> ControlHandle<C> {
    /// This handle's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the mesh.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Send a control frame to `peer` (self-sends allowed).  Returns `false`
    /// if the peer's endpoint is gone (its receiver was dropped), which
    /// callers treat as "the mesh is shutting down" rather than an error.
    pub fn send(&self, peer: usize, tag: u32, bytes: Vec<u8>) -> bool {
        send_control_frame(&self.senders, &self.counters, self.rank, peer, tag, bytes)
    }
}

/// The one control-plane send implementation [`ControlHandle::send`] and
/// [`Communicator::send_control`] share.  A frame is metered *before* it
/// enters the peer's channel: the channel's send/receive pair orders the
/// increment before the receiver's, so no receiver (nor anything that waited
/// for its reply, such as a drained job) can see a frame the sender has not
/// counted yet.  A send refused by a torn-down peer is un-metered, so it
/// cannot unbalance the quiesced-mesh `sent == received` ledger either.
fn send_control_frame<C>(
    senders: &[Sender<RankMessage<C>>],
    counters: &CommCounters,
    from: usize,
    peer: usize,
    tag: u32,
    bytes: Vec<u8>,
) -> bool {
    assert!(peer < senders.len(), "peer {peer} out of range");
    let len = bytes.len() as u64;
    let meter = |op: fn(&AtomicU64, u64, Ordering) -> u64| {
        if tag >= LIVENESS_TAG_BASE {
            op(&counters.liveness_sent, 1, Ordering::Relaxed);
        } else {
            op(&counters.messages_sent, 1, Ordering::Relaxed);
            op(&counters.control_sent, 1, Ordering::Relaxed);
            op(&counters.bytes_sent, len, Ordering::Relaxed);
        }
    };
    meter(AtomicU64::fetch_add);
    if senders[peer].send(RankMessage::Control { from, tag, bytes }).is_err() {
        meter(AtomicU64::fetch_sub);
        return false;
    }
    true
}

impl<C> fmt::Debug for ControlHandle<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlHandle")
            .field("rank", &self.rank)
            .field("size", &self.senders.len())
            .finish()
    }
}

/// A rank's endpoint of the full-mesh fabric.
pub struct Communicator<C> {
    rank: usize,
    size: usize,
    senders: Vec<Sender<RankMessage<C>>>,
    receiver: Receiver<RankMessage<C>>,
    /// Messages that arrived out of phase: a peer already in the *next*
    /// superstep while this rank finishes the current one, or control frames
    /// landing mid-superstep (and vice versa).
    pending: std::collections::VecDeque<RankMessage<C>>,
    cell_bytes: usize,
    counters: Arc<CommCounters>,
    /// Whether superstep receives poll before blocking: every rank of the
    /// mesh can have a CPU of its own (see [`SUPERSTEP_POLL`]).
    poll: bool,
}

impl<C: Clone + Send + 'static> Communicator<C> {
    /// Create a fully connected mesh of `size` communicators.
    pub fn mesh(size: usize) -> Vec<Communicator<C>> {
        assert!(size > 0);
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        let poll = size > 1 && size <= available_cpus();
        for _ in 0..size {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Communicator {
                rank,
                size,
                senders: senders.clone(),
                receiver,
                pending: std::collections::VecDeque::new(),
                cell_bytes: std::mem::size_of::<C>().max(1),
                counters: Arc::new(CommCounters::default()),
                poll,
            })
            .collect()
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the mesh.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Communication counters so far.
    pub fn stats(&self) -> CommStats {
        self.counters.snapshot()
    }

    /// A detachable, read-only view of this rank's counters.
    pub fn probe(&self) -> CommProbe {
        CommProbe { counters: Arc::clone(&self.counters) }
    }

    /// A cloneable, send-only handle onto this rank's control plane (for
    /// threads other than the endpoint's owner).
    pub fn control_handle(&self) -> ControlHandle<C> {
        ControlHandle {
            rank: self.rank,
            senders: self.senders.clone(),
            counters: Arc::clone(&self.counters),
        }
    }

    /// Send a control frame to `peer` directly from the endpoint (same
    /// semantics as [`ControlHandle::send`], without building a handle).
    pub fn send_control(&self, peer: usize, tag: u32, bytes: Vec<u8>) -> bool {
        send_control_frame(&self.senders, &self.counters, self.rank, peer, tag, bytes)
    }

    /// Pull the next message off the wire, metering the receive side.  All
    /// receive paths funnel through here (or [`Communicator::try_pull`]), so
    /// every message is counted exactly once however long it sits in the
    /// pending buffer afterwards.
    fn pull(&mut self) -> Option<RankMessage<C>> {
        let msg = self.receiver.recv().ok()?;
        self.meter_received(&msg);
        Some(msg)
    }

    /// [`Communicator::pull`] inside a superstep: poll for up to
    /// [`SUPERSTEP_POLL`] first when the mesh fits the CPUs.
    fn pull_superstep(&mut self) -> Option<RankMessage<C>> {
        if self.poll {
            let deadline = Instant::now() + SUPERSTEP_POLL;
            loop {
                if let Some(msg) = self.try_pull() {
                    return Some(msg);
                }
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::yield_now();
            }
        }
        self.pull()
    }

    /// Non-blocking [`Communicator::pull`].
    fn try_pull(&mut self) -> Option<RankMessage<C>> {
        let msg = self.receiver.try_recv().ok()?;
        self.meter_received(&msg);
        Some(msg)
    }

    fn meter_received(&self, msg: &RankMessage<C>) {
        // Liveness-class frames stay out of the message/byte/control ledgers
        // entirely; see [`LIVENESS_TAG_BASE`].
        if let RankMessage::Control { tag, .. } = msg {
            if *tag >= LIVENESS_TAG_BASE {
                self.counters.liveness_received.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.counters.messages_received.fetch_add(1, Ordering::Relaxed);
        match msg {
            RankMessage::Pages { pages, .. } => {
                let cells: usize = pages.iter().map(|p| p.cells.len()).sum();
                self.counters.pages_received.fetch_add(pages.len() as u64, Ordering::Relaxed);
                self.counters
                    .bytes_received
                    .fetch_add((cells * self.cell_bytes) as u64, Ordering::Relaxed);
            }
            RankMessage::Control { bytes, .. } => {
                self.counters.control_received.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_received.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
            RankMessage::Flag { .. } | RankMessage::Requests { .. } => {}
        }
    }

    /// Receive the next message satisfying `wanted`, buffering everything
    /// else for later phases (messages from faster peers can arrive out of
    /// phase; see the protocol notes on [`Communicator::exchange`]).
    fn recv_matching(&mut self, mut wanted: impl FnMut(&RankMessage<C>) -> bool) -> RankMessage<C> {
        if let Some(pos) = self.pending.iter().position(&mut wanted) {
            return self.pending.remove(pos).expect("position just found");
        }
        loop {
            let msg = self.pull_superstep().expect("mesh disconnected");
            if wanted(&msg) {
                return msg;
            }
            self.pending.push_back(msg);
        }
    }

    /// Block until the next control frame arrives (buffering any data-plane
    /// traffic for the next superstep).
    ///
    /// Note that a live endpoint always holds a sender onto its own
    /// receiver (self-sends are part of the API), so the underlying channel
    /// cannot disconnect while the endpoint exists and this effectively
    /// never returns `None` — do **not** rely on peer teardown to unblock a
    /// receiving thread.  The idiom for stopping a thread parked here is an
    /// application-level shutdown frame, sent to the rank via any
    /// [`ControlHandle`] (which is exactly what the service cluster does).
    pub fn recv_control(&mut self) -> Option<ControlFrame> {
        if let Some(pos) =
            self.pending.iter().position(|m| matches!(m, RankMessage::Control { .. }))
        {
            let msg = self.pending.remove(pos).expect("position just found");
            return Some(Self::into_frame(msg));
        }
        loop {
            let msg = self.pull()?;
            if matches!(msg, RankMessage::Control { .. }) {
                return Some(Self::into_frame(msg));
            }
            self.pending.push_back(msg);
        }
    }

    /// Non-blocking [`Communicator::recv_control`]: `None` means no control
    /// frame is currently available (the mesh may still be alive).
    pub fn try_recv_control(&mut self) -> Option<ControlFrame> {
        if let Some(pos) =
            self.pending.iter().position(|m| matches!(m, RankMessage::Control { .. }))
        {
            let msg = self.pending.remove(pos).expect("position just found");
            return Some(Self::into_frame(msg));
        }
        loop {
            let msg = self.try_pull()?;
            if matches!(msg, RankMessage::Control { .. }) {
                return Some(Self::into_frame(msg));
            }
            self.pending.push_back(msg);
        }
    }

    fn into_frame(msg: RankMessage<C>) -> ControlFrame {
        match msg {
            RankMessage::Control { from, tag, bytes } => ControlFrame { from, tag, bytes },
            _ => unreachable!("caller matched Control"),
        }
    }

    /// Collective AND over all ranks (used for the global refresh-success
    /// decision before any buffer is rotated).
    pub fn allreduce_and(&mut self, local: bool) -> bool {
        if self.size == 1 {
            return local;
        }
        for peer in 0..self.size {
            if peer == self.rank {
                continue;
            }
            self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
            self.senders[peer]
                .send(RankMessage::Flag { from: self.rank, value: local })
                .expect("peer rank hung up during allreduce");
        }
        // One flag per *distinct* sender: a fast peer already in the next
        // allreduce round may have its next flag queued behind a slow peer's
        // current one, and consuming it here would make ranks disagree on
        // this round's conjunction.  Per-sender dedup (the same discipline
        // `exchange` applies to Requests via `reqs_seen`) pins each round to
        // each peer's earliest unconsumed flag; later flags stay buffered
        // for later rounds in sender order.
        let mut result = local;
        let mut flags_seen = std::collections::HashSet::new();
        while flags_seen.len() < self.size - 1 {
            match self.recv_matching(|m| match m {
                RankMessage::Flag { from, .. } => !flags_seen.contains(from),
                _ => false,
            }) {
                RankMessage::Flag { from, value } => {
                    flags_seen.insert(from);
                    result &= value;
                }
                _ => unreachable!("recv_matching only returns Flag messages here"),
            }
        }
        result
    }

    /// Execute one superstep.
    ///
    /// * `requests` — pages this rank needs, keyed by owning rank.
    /// * `local_success` — whether this rank's step succeeded locally.
    /// * `serve` — callback extracting a page of this rank's data for
    ///   shipping.
    ///
    /// Returns the pages received and the global success flag (AND of all
    /// ranks' local flags).  Control frames arriving mid-superstep are
    /// buffered for [`Communicator::recv_control`] / `try_recv_control` and
    /// never disturb the protocol.
    pub fn exchange(
        &mut self,
        requests: &[(usize, Vec<(BlockId, PageId)>)],
        local_success: bool,
        mut serve: impl FnMut(BlockId, PageId) -> Vec<C>,
    ) -> (Vec<PagePayload<C>>, bool) {
        self.counters.supersteps.fetch_add(1, Ordering::Relaxed);
        if self.size == 1 {
            return (Vec::new(), local_success);
        }

        // Phase 1: send a request message to every other rank.
        for peer in 0..self.size {
            if peer == self.rank {
                continue;
            }
            let reqs = requests
                .iter()
                .find(|(owner, _)| *owner == peer)
                .map(|(_, r)| r.clone())
                .unwrap_or_default();
            self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
            self.senders[peer]
                .send(RankMessage::Requests { from: self.rank, reqs, local_success })
                .expect("peer rank hung up during phase 1");
        }

        // Phase 1 receive: one Requests message from every other rank.
        //
        // Messages can interleave: a peer that already received all *its*
        // requests may send us its Pages reply (for this superstep) before a
        // slower peer's Requests arrive, and a peer that finished this
        // superstep entirely may already be in its next allreduce/superstep.
        // `recv_matching` buffers whatever does not belong to this phase
        // (including control frames).
        let mut incoming_reqs: Vec<(usize, Vec<(BlockId, PageId)>)> = Vec::new();
        let mut global_success = local_success;
        let mut received: Vec<PagePayload<C>> = Vec::new();
        let mut pages_msgs_seen = 0usize;
        let mut reqs_seen = std::collections::HashSet::new();
        while incoming_reqs.len() < self.size - 1 {
            let msg = self.recv_matching(|m| match m {
                RankMessage::Requests { from, .. } => !reqs_seen.contains(from),
                RankMessage::Pages { .. } => true,
                RankMessage::Flag { .. } | RankMessage::Control { .. } => false,
            });
            match msg {
                RankMessage::Requests { from, reqs, local_success } => {
                    global_success &= local_success;
                    reqs_seen.insert(from);
                    incoming_reqs.push((from, reqs));
                }
                RankMessage::Pages { pages, .. } => {
                    received.extend(pages);
                    pages_msgs_seen += 1;
                }
                RankMessage::Flag { .. } | RankMessage::Control { .. } => {
                    unreachable!("flags and control frames are filtered out")
                }
            }
        }

        // Phase 2: serve every request.
        for (peer, reqs) in incoming_reqs {
            let pages: Vec<PagePayload<C>> = reqs
                .into_iter()
                .map(|(block, page)| {
                    let cells = serve(block, page);
                    self.counters
                        .bytes_sent
                        .fetch_add((cells.len() * self.cell_bytes) as u64, Ordering::Relaxed);
                    PagePayload { block, page, cells }
                })
                .collect();
            self.counters.pages_sent.fetch_add(pages.len() as u64, Ordering::Relaxed);
            self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
            self.senders[peer]
                .send(RankMessage::Pages { from: self.rank, pages })
                .expect("peer rank hung up during phase 2");
        }

        // Phase 2 receive: one Pages message from every other rank.  Requests
        // or Flags arriving now belong to the next superstep and are buffered
        // by `recv_matching`.
        while pages_msgs_seen < self.size - 1 {
            match self.recv_matching(|m| matches!(m, RankMessage::Pages { .. })) {
                RankMessage::Pages { pages, .. } => {
                    received.extend(pages);
                    pages_msgs_seen += 1;
                }
                _ => unreachable!("recv_matching only returns Pages messages here"),
            }
        }
        (received, global_success)
    }
}

impl<C> fmt::Debug for Communicator<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_rank_exchange_is_trivial() {
        let mut comms = Communicator::<f64>::mesh(1);
        let mut c = comms.pop().unwrap();
        let (pages, ok) = c.exchange(&[], true, |_, _| vec![]);
        assert!(pages.is_empty());
        assert!(ok);
        let (_, ok) = c.exchange(&[], false, |_, _| vec![]);
        assert!(!ok);
        assert_eq!(c.stats().supersteps, 2);
        assert_eq!(c.stats().messages_sent, 0);
    }

    #[test]
    fn two_ranks_exchange_pages() {
        let comms = Communicator::<f64>::mesh(2);
        let mut iter = comms.into_iter();
        let mut c0 = iter.next().unwrap();
        let mut c1 = iter.next().unwrap();

        let t1 = thread::spawn(move || {
            // Rank 1 requests page (block 7, page 2) from rank 0.
            let (pages, ok) =
                c1.exchange(&[(0, vec![(7, 2)])], true, |b, p| vec![(b * 100 + p) as f64]);
            (pages, ok, c1.stats())
        });

        // Rank 0 requests nothing and serves block 7 page 2.
        let (pages0, ok0) = c0.exchange(&[], true, |b, p| vec![(b * 10 + p) as f64; 3]);
        let (pages1, ok1, stats1) = t1.join().unwrap();

        assert!(ok0 && ok1);
        assert!(pages0.is_empty());
        assert_eq!(pages1.len(), 1);
        assert_eq!(pages1[0].block, 7);
        assert_eq!(pages1[0].page, 2);
        assert_eq!(pages1[0].cells, vec![72.0, 72.0, 72.0]);
        assert_eq!(stats1.pages_received, 1);
        assert_eq!(stats1.bytes_received, 3 * 8, "page payload metered on receive");
        assert_eq!(c0.stats().pages_sent, 1);
        assert_eq!(c0.stats().bytes_sent, 3 * 8);
    }

    #[test]
    fn superstep_receives_poll_only_when_every_rank_has_a_cpu() {
        assert!(!Communicator::<f64>::mesh(1)[0].poll, "a single rank never waits");
        let crowded = Communicator::<f64>::mesh(available_cpus() + 1);
        assert!(crowded.iter().all(|c| !c.poll), "more ranks than CPUs block at once");
        if available_cpus() >= 2 {
            assert!(Communicator::<f64>::mesh(2).iter().all(|c| c.poll));
        }
    }

    #[test]
    fn a_wait_longer_than_the_poll_ends_in_a_blocking_receive() {
        let mut comms = Communicator::<f64>::mesh(2).into_iter();
        let (mut c0, mut c1) = (comms.next().unwrap(), comms.next().unwrap());
        let late = thread::spawn(move || {
            thread::sleep(SUPERSTEP_POLL * 3);
            let ok = c1.allreduce_and(true);
            let (pages, _) = c1.exchange(&[(0, vec![(3, 1)])], true, |_, _| vec![]);
            (ok, pages)
        });
        assert!(c0.allreduce_and(true));
        let (pages0, ok0) = c0.exchange(&[], true, |b, p| vec![(b * 10 + p) as f64]);
        let (ok1, pages1) = late.join().unwrap();
        assert!(ok0 && ok1 && pages0.is_empty());
        assert_eq!(pages1[0].cells, vec![31.0]);
    }

    #[test]
    fn global_success_is_conjunction() {
        let comms = Communicator::<u32>::mesh(3);
        let mut handles = Vec::new();
        for (i, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                // Only rank 1 fails locally; everyone must observe failure.
                let local = i != 1;
                let (_, ok) = c.exchange(&[], local, |_, _| vec![0u32]);
                ok
            }));
        }
        for h in handles {
            assert!(!h.join().unwrap());
        }
    }

    #[test]
    fn repeated_supersteps_stay_in_lockstep() {
        let comms = Communicator::<u8>::mesh(4);
        let mut handles = Vec::new();
        for (rank, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                let mut received_total = 0usize;
                for step in 0..20 {
                    // Everyone asks the next rank for one page each step.
                    let peer = (rank + 1) % 4;
                    let reqs = vec![(peer, vec![(step, 0)])];
                    let (pages, ok) = c.exchange(&reqs, true, |b, _| vec![b as u8; 4]);
                    assert!(ok);
                    received_total += pages.len();
                }
                (received_total, c.stats())
            }));
        }
        for h in handles {
            let (total, stats) = h.join().unwrap();
            assert_eq!(total, 20);
            assert_eq!(stats.supersteps, 20);
            assert_eq!(stats.pages_sent, 20);
            assert_eq!(stats.pages_received, 20);
        }
    }

    #[test]
    fn repeated_allreduce_rounds_stay_in_lockstep() {
        // Racing ranks run many back-to-back allreduce rounds with
        // round-dependent flags: a fast rank's next-round flag must never be
        // consumed for a slow rank's current round (per-sender dedup), so
        // every rank computes the same, correct conjunction every round.
        const RANKS: usize = 3;
        const ROUNDS: u64 = 50;
        let comms = Communicator::<f64>::mesh(RANKS);
        let mut handles = Vec::new();
        for (rank, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                (0..ROUNDS)
                    .map(|round| {
                        // Exactly one rank fails per round, rotating.
                        let local = round % RANKS as u64 != rank as u64;
                        c.allreduce_and(local)
                    })
                    .collect::<Vec<bool>>()
            }));
        }
        for h in handles {
            let results = h.join().unwrap();
            // Some rank always fails, so every round's conjunction is false
            // — on every rank, in every interleaving.
            assert_eq!(results, vec![false; ROUNDS as usize]);
        }
    }

    #[test]
    fn mesh_size_and_ranks() {
        let comms = Communicator::<f32>::mesh(5);
        assert_eq!(comms.len(), 5);
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 5);
        }
    }

    #[test]
    fn control_frames_roundtrip_with_tags() {
        let comms = Communicator::<f64>::mesh(2);
        let mut iter = comms.into_iter();
        let c0 = iter.next().unwrap();
        let mut c1 = iter.next().unwrap();

        assert!(c0.send_control(1, 7, vec![1, 2, 3]));
        assert!(c0.control_handle().send(1, 9, vec![4]));
        let first = c1.recv_control().expect("frame delivered");
        assert_eq!(first, ControlFrame { from: 0, tag: 7, bytes: vec![1, 2, 3] });
        let second = c1.try_recv_control().expect("second frame delivered");
        assert_eq!((second.tag, second.bytes), (9, vec![4]));
        assert!(c1.try_recv_control().is_none(), "plane drained");

        let s0 = c0.stats();
        assert_eq!(s0.control_sent, 2);
        assert_eq!(s0.bytes_sent, 4);
        let s1 = c1.stats();
        assert_eq!(s1.control_received, 2);
        assert_eq!(s1.bytes_received, 4);
        assert_eq!(s1.messages_received, 2);
    }

    #[test]
    fn self_sends_wake_the_owner() {
        let mut comms = Communicator::<u8>::mesh(1);
        let mut c = comms.pop().unwrap();
        let handle = c.control_handle();
        assert_eq!((handle.rank(), handle.size()), (0, 1));
        assert!(handle.send(0, 0, Vec::new()), "self-send reaches the own receiver");
        let frame = c.recv_control().expect("own frame");
        assert_eq!((frame.from, frame.tag), (0, 0));
    }

    #[test]
    fn control_plane_multiplexes_with_supersteps() {
        // Rank 0 runs supersteps while rank 1 interleaves control frames with
        // its own supersteps: the data-plane protocol must stay in lockstep
        // and every control frame must still be delivered.
        let comms = Communicator::<f64>::mesh(2);
        let mut iter = comms.into_iter();
        let mut c0 = iter.next().unwrap();
        let mut c1 = iter.next().unwrap();

        let t1 = thread::spawn(move || {
            for step in 0..10u64 {
                // Control frame *before* the superstep: lands at rank 0 while
                // it is inside `exchange` and must be buffered, not consumed.
                assert!(c1.send_control(0, 42, step.to_le_bytes().to_vec()));
                let (pages, ok) =
                    c1.exchange(&[(0, vec![(step as usize, 0)])], true, |_, _| vec![0.0]);
                assert!(ok);
                assert_eq!(pages.len(), 1);
            }
            c1
        });

        for _ in 0..10 {
            let (_, ok) = c0.exchange(&[], true, |b, _| vec![b as f64; 2]);
            assert!(ok);
        }
        let c1 = t1.join().unwrap();

        // All ten frames are still waiting, in order, on the control plane.
        for step in 0..10u64 {
            let frame = c0.try_recv_control().expect("buffered control frame");
            assert_eq!(frame.tag, 42);
            assert_eq!(frame.bytes, step.to_le_bytes().to_vec());
        }
        assert!(c0.try_recv_control().is_none());
        assert_eq!(c0.stats().supersteps, 10);
        assert_eq!(c0.stats().control_received, 10);
        assert_eq!(c1.stats().control_sent, 10);
    }

    #[test]
    fn send_and_receive_totals_balance_across_the_mesh() {
        // Every rank does page supersteps *and* control traffic; after the
        // mesh quiesces, the send- and receive-side totals must agree exactly
        // (the symmetry the CommStats contract promises).
        const RANKS: usize = 4;
        let comms = Communicator::<f64>::mesh(RANKS);
        let probes: Vec<CommProbe> = comms.iter().map(|c| c.probe()).collect();
        let mut handles = Vec::new();
        for (rank, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                for step in 0..5u64 {
                    // A ring of control frames with rank-dependent payloads...
                    let peer = (rank + 1) % RANKS;
                    assert!(c.send_control(peer, 1, vec![0u8; rank + 1]));
                    // ...interleaved with page supersteps of varying sizes.
                    let reqs = vec![(peer, vec![(step as usize, 0)])];
                    let (pages, ok) = c.exchange(&reqs, true, |b, _| vec![0.5; b + 1]);
                    assert!(ok);
                    assert_eq!(pages.len(), 1);
                }
                // Drain this rank's control plane so receives are metered.
                for _ in 0..5 {
                    assert!(c.recv_control().is_some());
                }
                c
            }));
        }
        let comms: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let totals = probes.iter().map(|p| p.stats()).fold(CommStats::default(), |acc, s| acc + s);
        assert_eq!(totals.messages_sent, totals.messages_received, "message balance");
        assert_eq!(totals.bytes_sent, totals.bytes_received, "byte balance");
        assert_eq!(totals.pages_sent, totals.pages_received, "page balance");
        assert_eq!(totals.control_sent, totals.control_received, "control balance");
        assert_eq!(totals.control_sent, (RANKS * 5) as u64);
        // The probes alias the live endpoints: dropping the comms afterwards
        // does not invalidate the snapshots already taken.
        drop(comms);
        assert!(probes[0].stats().messages_sent > 0);
    }

    #[test]
    fn liveness_frames_stay_out_of_the_control_ledger() {
        let mut comms = Communicator::<f64>::mesh(2);
        let c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        // One application frame, one liveness frame, both to rank 0.
        assert!(c1.send_control(0, 1, vec![7, 7]));
        assert!(c1.send_control(0, LIVENESS_TAG_BASE, vec![9; 16]));
        assert!(c1.send_control(0, LIVENESS_TAG_BASE + 1, Vec::new()));
        let sent = c1.stats();
        assert_eq!((sent.control_sent, sent.liveness_sent), (1, 2));
        assert_eq!(sent.bytes_sent, 2, "liveness payload bytes are not metered");
        // Receive all three: the application frame lands in control_received,
        // the liveness frames in liveness_received only.
        for _ in 0..3 {
            assert!(c0.recv_control().is_some());
        }
        let recv = c0.stats();
        assert_eq!((recv.control_received, recv.liveness_received), (1, 2));
        assert_eq!(recv.messages_received, 1);
        assert_eq!(recv.bytes_received, 2);
    }

    /// Control frames are metered before they enter the channel; a send the
    /// torn-down peer refuses takes its metering back.
    #[test]
    fn refused_control_sends_leave_the_ledger_untouched() {
        let mut comms = Communicator::<f64>::mesh(2);
        drop(comms.pop());
        let c0 = comms.pop().unwrap();
        assert!(!c0.send_control(1, 1, vec![7, 7]));
        assert!(!c0.control_handle().send(1, LIVENESS_TAG_BASE, vec![9]));
        assert_eq!(c0.stats(), CommStats::default());
    }
}
