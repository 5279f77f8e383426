//! A *functional* secure-memory engine: real encryption, real MACs, real
//! integrity-tree verification over an explicit untrusted memory image.
//!
//! The timing simulators elsewhere in this workspace model secure memory's
//! *performance*; this module models its *security semantics* end to end, so
//! tests and examples can demonstrate that the machinery actually protects
//! data: plaintext round-trips, bit-flips are caught by MACs, and replay
//! attacks (restoring stale ciphertext *and* stale counters consistently)
//! are caught by the integrity tree rooted on-chip.

use rmcc_cache::set_assoc::{CacheStats, SetAssocCache};
use rmcc_crypto::aes::{AesVariant, Backend, BATCH_BLOCKS};
use rmcc_crypto::mac::{compute_mac, verify_mac, xor_with_pads, DataBlock, MacKeys};
use rmcc_crypto::otp::{KeySet, OtpPipeline, RmccOtp, SgxOtp};
use rmcc_crypto::stats::{CryptoCost, CryptoStats};

use crate::arena::PagedArena;
use crate::counters::{CounterBlock, CounterOrg};
use crate::layout::{LayoutError, MetadataLayout, BLOCK_BYTES};
use crate::tree::{splitmix64, InitPolicy, MetadataState};

/// Chooses counter targets on writes — the seam where RMCC's
/// memoization-aware update plugs in.
pub trait CounterUpdatePolicy: Send {
    /// The value to raise a counter to when its block is written
    /// (baseline: `current + 1`; RMCC: nearest memoized value above
    /// `current`). Must return a value strictly greater than `current`.
    fn bump(&mut self, current: u64) -> u64;

    /// The relevel target when an update overflows; must be ≥ `min_target`
    /// (baseline: exactly `min_target`; RMCC: nearest memoized ≥ it).
    fn relevel_target(&mut self, min_target: u64) -> u64;

    /// Discards all transient policy state (memo table contents, budget
    /// ledger position) and returns to the just-constructed configuration.
    /// Called by a shard rebuild so the policy cannot carry corrupted
    /// entries across readmission. Stateless policies need do nothing.
    fn reset(&mut self) {}

    /// The number of entries the policy currently knows to be corrupted
    /// (detected but not yet served/cleared). A health monitor treats a
    /// nonzero answer as a reason to quarantine. Stateless policies report
    /// zero.
    fn scrub(&mut self) -> u64 {
        0
    }
}

/// The baseline policy: increment by one, relevel to the minimum legal
/// target.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementPolicy;

impl CounterUpdatePolicy for IncrementPolicy {
    fn bump(&mut self, current: u64) -> u64 {
        current + 1
    }

    fn relevel_target(&mut self, min_target: u64) -> u64 {
        min_target
    }
}

/// Why a secure read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The data block's MAC did not verify — its ciphertext or MAC was
    /// tampered with (or its counter was rolled back).
    DataTampered {
        /// The data block index that failed verification.
        block: u64,
    },
    /// A counter block / tree node failed verification at `level`.
    MetadataTampered {
        /// The in-memory tree level (0 = counter blocks).
        level: usize,
    },
    /// The block was never written; there is nothing to read.
    Unwritten {
        /// The data block index.
        block: u64,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::DataTampered { block } => {
                write!(f, "data block {block} failed MAC verification")
            }
            ReadError::MetadataTampered { level } => {
                write!(f, "integrity tree verification failed at level {level}")
            }
            ReadError::Unwritten { block } => write!(f, "data block {block} was never written"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Why a secure write was refused.
///
/// A refused write is fail-safe with respect to data: the old ciphertext and
/// MAC images are untouched, so every previously written block still reads
/// back byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The write addressed state outside the configured layout.
    Layout(LayoutError),
    /// The counter the write must raise has no room left in the 56-bit
    /// counter space; proceeding would reuse a (block, counter) pair and
    /// break OTP security. Real hardware renews keys and re-encrypts all of
    /// memory at this point (§IV-D2); this engine refuses the write instead.
    CounterSaturated {
        /// The saturated counter's current value.
        counter: u64,
    },
}

impl From<LayoutError> for WriteError {
    fn from(e: LayoutError) -> Self {
        WriteError::Layout(e)
    }
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Layout(e) => write!(f, "write rejected: {e}"),
            WriteError::CounterSaturated { counter } => {
                write!(
                    f,
                    "counter at {counter} cannot advance within the 56-bit space; \
                     key renewal required"
                )
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// Why an attacker-interface operation (tamper / snapshot / replay / forge)
/// could not be performed. These report on the *untrusted image*, so they
/// say nothing about security — only that there was no stored state at the
/// requested location to manipulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperError {
    /// The data block has no stored ciphertext image.
    UnwrittenBlock {
        /// The data block index.
        block: u64,
    },
    /// The metadata node has no stored image (never written back) or lies
    /// outside the layout entirely.
    MissingNode {
        /// The in-memory tree level.
        level: usize,
        /// The node index at that level.
        index: u64,
    },
    /// The byte offset is beyond the 64 B block.
    OffsetOutOfRange {
        /// The offending byte offset.
        byte: usize,
    },
}

impl std::fmt::Display for TamperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TamperError::UnwrittenBlock { block } => {
                write!(f, "data block {block} has no stored image to manipulate")
            }
            TamperError::MissingNode { level, index } => {
                write!(f, "no stored node image at level {level}, index {index}")
            }
            TamperError::OffsetOutOfRange { byte } => {
                write!(f, "byte offset {byte} beyond the 64 B block")
            }
        }
    }
}

impl std::error::Error for TamperError {}

/// Which OTP pipeline the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// Single-AES baseline (Figure 2).
    Sgx,
    /// RMCC's split counter-only/address-only pipeline (Figure 11).
    Rmcc,
}

/// One stored (ciphertext, MAC) pair in the untrusted memory image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredData {
    cipher: DataBlock,
    mac: u64,
}

/// The untrusted image of one metadata node: the 64 B serialized image the
/// MAC covers, as it sits in DRAM, plus its MAC. Storing the image rather
/// than the decoded [`CounterBlock`] keeps the type `Copy`, so the verify
/// path reads it without a heap-allocating clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredNode {
    image: DataBlock,
    mac: u64,
}

/// Lines in the memory controller's on-chip counter cache: Table I's
/// 128 KiB of 64 B lines.
pub const COUNTER_CACHE_LINES: usize = 2048;

/// Associativity of the on-chip counter cache (Table I).
pub const COUNTER_CACHE_WAYS: usize = 32;

/// The memory controller's on-chip counter cache: trusted copies of tree
/// nodes, trusted like the on-chip root. A read walk stops at the first
/// node whose line is resident and either dirty or bit-identical to its
/// DRAM image; only the nodes below it pay a verify (the simulator's
/// `MetaEngine` rule).
///
/// Node images are written back: a write that changes a resident node
/// marks its line dirty, and the node's image and MAC reach DRAM only when
/// the line is evicted or flushed. Writes allocate no lines, so a node
/// that is not resident always has a current DRAM image.
struct CounterCache {
    /// Tags, dirty bits and LRU state, keyed by node line address
    /// (`node_addr >> 6`).
    tags: SetAssocCache,
    /// `copies[slot]` is the verified image of the node whose tag occupies
    /// `slot` (`set * ways + way`) in `tags`: Table I's 128 KiB of lines
    /// plus their MACs, allocated once. A fill overwrites the slot it takes
    /// over, so an evicted line's copy goes with it, and the entry of a
    /// vacant slot is never read. A dirty line's copy is its image as
    /// fetched; the hit rule does not read it.
    copies: Box<[StoredNode]>,
    /// One lookup per tree level a read walk visits, and one write-back
    /// per dirty line materialized. Kept here rather than in `tags`, whose
    /// own tally would count a clean line whose DRAM image differs from
    /// its copy as a hit.
    stats: CacheStats,
}

impl CounterCache {
    fn new() -> Self {
        let vacant = StoredNode {
            image: [0; 64],
            mac: 0,
        };
        CounterCache {
            tags: SetAssocCache::new(COUNTER_CACHE_LINES, COUNTER_CACHE_WAYS),
            copies: vec![vacant; COUNTER_CACHE_LINES].into_boxed_slice(),
            stats: CacheStats::default(),
        }
    }

    /// Whether line `line` is resident and dirty: its node's DRAM image is
    /// dead until the write-back.
    fn is_dirty(&self, line: u64) -> bool {
        self.tags.find(line).is_some_and(|(_, dirty)| dirty)
    }

    /// A read walk's lookup of the node at line `line`, whose DRAM image
    /// is `dram`, in one scan of the line's set. It hits when the line is
    /// resident and either dirty or holding a copy bit-identical to
    /// `dram`; a hit refreshes the line's LRU position, a miss leaves it.
    fn lookup(&mut self, line: u64, dram: Option<&StoredNode>) -> bool {
        self.stats.accesses += 1;
        let hit = self.tags.find(line).filter(|&(slot, dirty)| {
            dirty || dram.is_some_and(|d| self.copies.get(slot) == Some(d))
        });
        if let Some((slot, _)) = hit {
            self.stats.hits += 1;
            self.tags.touch(slot);
        } else {
            self.stats.misses += 1;
        }
        hit.is_some()
    }

    /// Installs the just-verified `node` as line `line`'s copy, in the slot
    /// the fill gives it (a victim's copy is overwritten there). Returns
    /// the victim's line when it was dirty and must be written back.
    fn fill(&mut self, line: u64, node: StoredNode) -> Option<u64> {
        let (slot, victim) = self.tags.fill_slot(line, false);
        if let Some(copy) = self.copies.get_mut(slot) {
            *copy = node;
        }
        victim.filter(|v| v.dirty).map(|v| v.addr)
    }

    /// A write changed the node at line `line`: marks the line dirty and
    /// refreshes its LRU position if it is resident. Returns whether it
    /// was; a node that is not resident must be materialized at once.
    fn mark_dirty(&mut self, line: u64) -> bool {
        self.tags.lookup(line, true)
    }

    /// The dirty lines, in slot order.
    fn dirty_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags
            .resident_lines()
            .filter(|&line| self.is_dirty(line))
    }

    /// Drops line `line`, its copy and its dirty bit.
    fn invalidate(&mut self, line: u64) {
        self.tags.invalidate(line);
    }

    /// Bytes held for node copies.
    fn footprint_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.copies)
    }

    /// Drops every line and dirty bit; the statistics are kept.
    fn clear(&mut self) {
        self.tags = SetAssocCache::new(COUNTER_CACHE_LINES, COUNTER_CACHE_WAYS);
    }
}

/// A consistent snapshot of everything an attacker must restore for a
/// replay attempt on one block.
#[derive(Debug, Clone)]
pub struct ReplaySnapshot {
    block: u64,
    data: StoredData,
    l0: StoredNode,
}

/// A captured untrusted image of one metadata node — the raw material for a
/// counter-rollback attack ([`SecureMemory::replay_node`]).
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    level: usize,
    index: u64,
    node: StoredNode,
}

/// A captured untrusted image of one data block's (ciphertext, MAC) pair —
/// the raw material for a dropped-writeback attack
/// ([`SecureMemory::restore_data`]).
#[derive(Debug, Clone, Copy)]
pub struct DataSnapshot {
    block: u64,
    data: StoredData,
}

/// The outcome of a rebuild pass ([`SecureMemory::rebuild`]): how much of
/// the untrusted image was re-derived from trusted state and how much of
/// the ciphertext backing store survived re-verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildReport {
    /// Metadata node images recomputed (and re-MACed) from trusted state.
    pub nodes_rebuilt: u64,
    /// Stored data blocks whose MAC re-verified under the trusted counter.
    pub data_verified: u64,
    /// Stored data blocks whose MAC failed even under the trusted counter —
    /// the ciphertext or MAC image itself is damaged, so the block cannot
    /// be recovered from the backing store.
    pub data_unrecoverable: u64,
}

impl RebuildReport {
    /// Whether every stored data block survived re-verification.
    pub fn is_clean(&self) -> bool {
        self.data_unrecoverable == 0
    }
}

/// Serializes a counter block into the 64 B image the MAC covers. This is a
/// digest of the architectural state rather than the exact wire format —
/// collision-free for all practical purposes, and any change to any counter
/// value changes the image.
fn node_image(cb: &CounterBlock) -> DataBlock {
    let mut words = [0u64; 8];
    for (i, v) in cb.values().enumerate() {
        if let Some(w) = words.get_mut(i % 8) {
            *w = w.rotate_left(9) ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64);
        }
    }
    let mut out = [0u8; 64];
    for (chunk, w) in out.chunks_exact_mut(8).zip(words.iter()) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// A functional secure memory: encrypt-on-write, verify-and-decrypt-on-read,
/// with a counter-mode OTP pipeline and an integrity tree whose root lives
/// on-chip.
///
/// # Examples
///
/// ```
/// use rmcc_secmem::counters::CounterOrg;
/// use rmcc_secmem::engine::{PipelineKind, SecureMemory};
///
/// let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 24, PipelineKind::Rmcc, 42);
/// mem.write(7, [0xabu8; 64]).unwrap();
/// assert_eq!(mem.read(7).unwrap(), [0xabu8; 64]);
/// ```
pub struct SecureMemory {
    meta: MetadataState,
    pipeline: Box<dyn OtpPipeline>,
    /// Per-block pad cost of `pipeline` (static, from the cost model).
    pad_cost: CryptoCost,
    mac_keys: MacKeys,
    policy: Box<dyn CounterUpdatePolicy>,
    data: PagedArena<StoredData>,
    /// `nodes[level]` holds the stored node images at in-memory tree level
    /// `level` (the on-chip root is never stored). Arena-per-level: lookup
    /// is layout arithmetic, and steady-state access allocates nothing.
    nodes: Vec<PagedArena<StoredNode>>,
    /// Trusted on-chip copies of verified nodes, and the dirty bits of
    /// nodes whose image has not been written back yet. Its contents do
    /// not enter [`Self::state_digest`].
    counter_cache: CounterCache,
    /// The AES backend the pipeline's keys were expanded on (diagnostics;
    /// outputs are backend-invariant).
    backend: Backend,
    /// Cumulative count of data blocks re-encrypted due to relevels.
    overflow_reencryptions: u64,
    /// Primitive-invocation tally (AES, clmul, MAC verifies) for telemetry.
    crypto: CryptoStats,
    /// Reusable buffer for the verify path's (level, index) chain.
    scratch_chain: Vec<(usize, u64)>,
    /// Reusable buffer for relevel re-encryption plaintexts.
    scratch_reencrypt: Vec<(u64, DataBlock)>,
}

impl std::fmt::Debug for SecureMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureMemory")
            .field("org", &self.meta.org())
            .field("written_blocks", &self.data.len())
            .finish_non_exhaustive()
    }
}

impl SecureMemory {
    /// Creates a secure memory over `data_bytes` of protected space with the
    /// baseline increment policy and zeroed counters.
    pub fn new(org: CounterOrg, data_bytes: u64, kind: PipelineKind, key_seed: u64) -> Self {
        Self::with_policy(org, data_bytes, kind, key_seed, Box::new(IncrementPolicy))
    }

    /// Creates a secure memory with a custom counter-update policy (e.g.
    /// RMCC's memoization-aware update). The AES backend comes from
    /// `RMCC_BACKEND` ([`Backend::from_env`]); backends are
    /// ciphertext-identical, so everything this engine ever stores or
    /// digests is byte-identical across them.
    pub fn with_policy(
        org: CounterOrg,
        data_bytes: u64,
        kind: PipelineKind,
        key_seed: u64,
        policy: Box<dyn CounterUpdatePolicy>,
    ) -> Self {
        Self::with_policy_on(org, data_bytes, kind, key_seed, policy, Backend::from_env())
    }

    /// [`SecureMemory::with_policy`] with an explicitly pinned AES backend.
    pub fn with_policy_on(
        org: CounterOrg,
        data_bytes: u64,
        kind: PipelineKind,
        key_seed: u64,
        policy: Box<dyn CounterUpdatePolicy>,
        backend: Backend,
    ) -> Self {
        let keys = KeySet::from_master_on(key_seed, AesVariant::Aes128, backend);
        let (pipeline, pad_cost): (Box<dyn OtpPipeline>, CryptoCost) = match kind {
            PipelineKind::Sgx => (Box::new(SgxOtp::new(keys)), CryptoCost::sgx_block()),
            PipelineKind::Rmcc => (Box::new(RmccOtp::new(keys)), CryptoCost::rmcc_block()),
        };
        let meta = MetadataState::new(org, data_bytes, InitPolicy::Zero);
        // One page per L0 region (data) or per parent node (tree levels).
        let layout = meta.layout();
        let data = PagedArena::new(
            org.coverage(),
            layout.level_count(0) * org.coverage() as u64,
        );
        let nodes = (0..layout.depth())
            .map(|level| PagedArena::new(org.tree_arity(), layout.level_count(level)))
            .collect();
        SecureMemory {
            meta,
            pipeline,
            pad_cost,
            mac_keys: MacKeys::from_seed(key_seed ^ 0x6d61_6373),
            policy,
            data,
            nodes,
            counter_cache: CounterCache::new(),
            backend,
            overflow_reencryptions: 0,
            crypto: CryptoStats::new(),
            scratch_chain: Vec::new(),
            scratch_reencrypt: Vec::new(),
        }
    }

    /// The stored untrusted image of metadata node (`level`, `index`), if
    /// one was ever written back.
    fn stored_node(&self, level: usize, index: u64) -> Option<&StoredNode> {
        self.nodes.get(level)?.get(index)
    }

    /// Stores a data block's untrusted image. Blocks outside the layout are
    /// ignored: the write path checks the layout first, and an attacker
    /// cannot place an image where no address reaches.
    fn store_data(&mut self, block: u64, data: StoredData) {
        let _ = self.data.insert(block, data);
    }

    /// Stores an untrusted node image. Nodes outside the tree are ignored
    /// (no reachable caller produces one).
    fn store_node(&mut self, level: usize, index: u64, node: StoredNode) {
        if let Some(arena) = self.nodes.get_mut(level) {
            let _ = arena.insert(index, node);
        }
    }

    /// The line address (`node_addr >> 6`) of node (`level`, `index`): its
    /// counter-cache tag and its pad address.
    fn node_line(&self, level: usize, index: u64) -> u64 {
        self.meta.layout().node_addr(level, index) >> 6
    }

    /// The AES backend this engine's keys were expanded on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Pre-derives pads for the given data blocks through the pipeline's
    /// batched AES path ([`OtpPipeline::warm_pads`]), in
    /// [`BATCH_BLOCKS`]-sized groups. Blocks never written are skipped (a
    /// read of one fails before any pad is needed).
    ///
    /// Returns at once unless the engine's AES backend evaluates 8 lanes
    /// in one pass ([`Backend::batches_lanes`]: only the bitsliced
    /// `hardened` circuit). On the table backends a batch is 8 scalar
    /// calls, so prefetching would only repeat each read's data, counter
    /// and memo lookups ahead of time, and derive every lane of a group
    /// with one memo miss.
    ///
    /// This is a pure wall-clock accelerator and deliberately bypasses
    /// the modeled crypto tally: architecturally the MC still issues one
    /// pipeline invocation per access, and the private `pads_for` charges it
    /// at request time whether the memo was warmed or not. Results are
    /// bit-identical with or without prefetching.
    pub fn prefetch_pads<I>(&mut self, blocks: I)
    where
        I: IntoIterator<Item = u64>,
    {
        if !self.backend.batches_lanes() {
            return;
        }
        let mut reqs = [(0u64, 0u64); BATCH_BLOCKS];
        let mut n = 0usize;
        for block in blocks {
            if self.data.get(block).is_none() {
                continue;
            }
            let ctr = self.meta.data_counter(block);
            if let Some(slot) = reqs.get_mut(n) {
                *slot = (block, ctr);
                n += 1;
            }
            if n == reqs.len() {
                self.pipeline.warm_pads(&reqs);
                n = 0;
            }
        }
        if let Some(partial) = reqs.get(..n) {
            if !partial.is_empty() {
                self.pipeline.warm_pads(partial);
            }
        }
    }

    /// Data blocks re-encrypted by counter-overflow relevels so far.
    pub fn overflow_reencryptions(&self) -> u64 {
        self.overflow_reencryptions
    }

    /// Cumulative primitive-invocation tally: AES invocations, clmul
    /// combines, and MAC verifications this engine has performed. A read
    /// pays a verify pad and a MAC verify only for the tree nodes the
    /// on-chip counter cache missed ([`Self::counter_cache_stats`]), plus
    /// the data block's own. This functional engine has no memoization
    /// table, so `aes_saved` stays zero here; the timing simulator's
    /// accounting adds the saved side.
    pub fn crypto_stats(&self) -> CryptoStats {
        self.crypto
    }

    /// Cumulative on-chip counter-cache tally: one access per tree level a
    /// read walk looked up, split into hits (the walk stopped there) and
    /// misses (the node was fetched and verified), and one write-back per
    /// dirty line materialized when it was evicted or flushed.
    pub fn counter_cache_stats(&self) -> CacheStats {
        self.counter_cache.stats
    }

    /// Bytes this engine holds for its state, counted from the structures
    /// rather than measured: the data, node and counter arenas (directories
    /// and materialized pages), the counter blocks' minor vectors and the
    /// counter cache's node copies. Deterministic for a given access
    /// history, so it can be compared across runs and builds.
    pub fn footprint_bytes(&self) -> u64 {
        let nodes: usize = self.nodes.iter().map(PagedArena::footprint_bytes).sum();
        let parts = [
            self.meta.footprint_bytes(),
            self.data.footprint_bytes(),
            nodes,
            self.counter_cache.footprint_bytes(),
        ];
        parts.iter().sum::<usize>() as u64
    }

    /// Writes back every dirty line of the counter cache, in slot order,
    /// and empties it, so every node's DRAM image is current and the next
    /// read walks to the on-chip root. Models sustained conflicting traffic
    /// pushing every line out. Results and [`Self::state_digest`] do not
    /// depend on when, or whether, it is called.
    pub fn flush_counter_cache(&mut self) {
        let layout = self.meta.layout();
        let dirty: Vec<(usize, u64)> = self
            .counter_cache
            .dirty_lines()
            .filter_map(|line| layout.locate(line << 6))
            .collect();
        for (level, idx) in dirty {
            self.write_back(level, idx);
        }
        self.counter_cache.clear();
    }

    /// Records one pad computation in the tally (every `block_pads` call
    /// routes through here so the counts match the pipeline exactly).
    fn pads_for(&mut self, block_addr: u64, ctr: u64) -> rmcc_crypto::otp::BlockPads {
        self.crypto.pay(self.pad_cost);
        self.pipeline.block_pads(block_addr, ctr)
    }

    /// The MAC pad alone, for node-image authentication. The modeled cost is
    /// the same as [`Self::pads_for`] — architecturally the MC still issues
    /// the full pipeline — but the functional engine skips materializing the
    /// data-word pads nobody reads on the verification path, which is where
    /// deep-tree walks spend most of their wall clock.
    fn mac_pad_for(&mut self, block_addr: u64, ctr: u64) -> u128 {
        self.crypto.pay(self.pad_cost);
        self.pipeline.mac_pad(block_addr, ctr)
    }

    /// The current write counter of `block` (trusted view).
    ///
    /// # Panics
    ///
    /// Panics when no L0 counter block of the layout covers `block`.
    pub fn counter_of(&mut self, block: u64) -> u64 {
        self.meta.data_counter(block)
    }

    // --- write path ---------------------------------------------------

    /// Encrypts `plaintext` and stores it as data block `block`, raising the
    /// block's counter according to the policy and keeping the tree image
    /// consistent.
    ///
    /// # Errors
    ///
    /// * [`WriteError::Layout`] if `block` is beyond the protected capacity.
    /// * [`WriteError::CounterSaturated`] if the block's counter cannot
    ///   advance within the 56-bit space (key-renewal territory, §IV-D2).
    ///
    /// Both refusals happen *before* any state is mutated: previously
    /// written blocks remain readable and byte-identical.
    pub fn write(&mut self, block: u64, plaintext: DataBlock) -> Result<(), WriteError> {
        self.write_impl(block, plaintext, true)
    }

    /// Encrypts and stores `plaintext` like [`Self::write`], but bypasses
    /// the counter-update policy entirely: the counter advances by exactly
    /// one and relevels go to the minimum legal target, so no memoization
    /// state is consulted or mutated. This is the degraded-mode path a
    /// health monitor routes writes through while a shard's memo table is
    /// suspect — every pad is paid at full AES cost.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::write`].
    pub fn write_baseline(&mut self, block: u64, plaintext: DataBlock) -> Result<(), WriteError> {
        self.write_impl(block, plaintext, false)
    }

    fn write_impl(
        &mut self,
        block: u64,
        plaintext: DataBlock,
        use_policy: bool,
    ) -> Result<(), WriteError> {
        self.meta.layout().check_data_block(block)?;
        let current = self.meta.data_counter(block);
        let mut baseline = IncrementPolicy;
        let policy: &mut dyn CounterUpdatePolicy = if use_policy {
            self.policy.as_mut()
        } else {
            &mut baseline
        };
        let target = policy.bump(current);
        assert!(target > current, "policy must increase the counter");
        let layout = self.meta.layout();
        let (idx, slot) = (layout.l0_index(block), layout.l0_slot(block));
        let releveled = self
            .meta
            .advance(0, idx, slot, target, |min| policy.relevel_target(min))
            .map_err(|_| WriteError::CounterSaturated { counter: current })?;
        if let Some(before) = releveled {
            // Recover the plaintexts of every covered, already-written block
            // under its counter in the block as it was before the relevel.
            let coverage = self.meta.org().coverage() as u64;
            let mut to_reencrypt = std::mem::take(&mut self.scratch_reencrypt);
            to_reencrypt.clear();
            for (b, old_counter) in (idx * coverage..).zip(before.values()) {
                if b == block {
                    continue;
                }
                let Some(stored) = self.data.get(b).copied() else {
                    continue;
                };
                let pads = self.pads_for(b, old_counter);
                to_reencrypt.push((b, xor_with_pads(&stored.cipher, &pads)));
            }
            // Re-encrypt under the new shared counter value.
            for (b, plaintext) in to_reencrypt.drain(..) {
                let counter = self.meta.data_counter(b);
                let pads = self.pads_for(b, counter);
                let cipher = xor_with_pads(&plaintext, &pads);
                let mac = compute_mac(&self.mac_keys, &cipher, pads.mac);
                self.store_data(b, StoredData { cipher, mac });
                self.overflow_reencryptions += 1;
            }
            self.scratch_reencrypt = to_reencrypt;
        }
        let counter = self.meta.data_counter(block);
        let pads = self.pads_for(block, counter);
        let cipher = xor_with_pads(&plaintext, &pads);
        let mac = compute_mac(&self.mac_keys, &cipher, pads.mac);
        self.store_data(block, StoredData { cipher, mac });
        // The L0 counter block changed: publish its new image up the tree.
        self.publish_node(0, idx)
    }

    // --- read path ------------------------------------------------------

    /// Verifies the tree path for L0 node `l0_idx`. The walk climbs from L0
    /// and stops at the first node the on-chip counter cache holds dirty or
    /// with a copy bit-identical to its DRAM image, or at the on-chip root.
    /// The nodes below that point are verified top-down, each image's MAC
    /// under its trusted parent counter, and each one that verifies is
    /// filled into the cache; a dirty line the fill evicts is written back.
    /// Returns `Ok` if every fetched image verified.
    fn verify_path(&mut self, l0_idx: u64) -> Result<(), ReadError> {
        // Collect the chain of (level, index) the cache missed, reusing the
        // scratch buffer (no per-read alloc).
        let mut chain = std::mem::take(&mut self.scratch_chain);
        chain.clear();
        let mut next = Some((0, l0_idx));
        while let Some((level, idx)) = next {
            let line = self.node_line(level, idx);
            let dram = self.nodes.get(level).and_then(|arena| arena.get(idx));
            if self.counter_cache.lookup(line, dram) {
                break;
            }
            chain.push((level, idx));
            next = self
                .meta
                .layout()
                .parent_index(level, idx)
                .map(|p| (level + 1, p));
        }
        // Verify top-down: each node's image MAC under the trusted/verified
        // parent counter.
        let mut outcome = Ok(());
        for &(level, idx) in chain.iter().rev() {
            if let Some(node) = self.stored_node(level, idx).copied() {
                let counter = self.meta.node_counter(level, idx);
                let line = self.node_line(level, idx);
                let mac_pad = self.mac_pad_for(line, counter);
                self.crypto.verify_mac();
                // audit:allow(R5, reason = "the MAC verdict is the public accept/reject outcome; branching on it is the tamper-detection contract")
                if !verify_mac(&self.mac_keys, &node.image, mac_pad, node.mac) {
                    outcome = Err(ReadError::MetadataTampered { level });
                    break;
                }
                // The image is authentic: it must match the trusted state
                // (models the MC decoding the fetched counter block); a
                // stale-but-authentic image is a replay.
                if node.image != node_image(self.meta.block(level, idx)) {
                    outcome = Err(ReadError::MetadataTampered { level });
                    break;
                }
                if let Some(victim) = self.counter_cache.fill(line, node) {
                    // The victim is never on this chain (a dirty line
                    // hits), and a write-back moves no counter.
                    if let Some((v_level, v_idx)) = self.meta.layout().locate(victim << 6) {
                        self.write_back(v_level, v_idx);
                    }
                }
            }
            // Nodes with no image were never written back; their state is
            // the trusted initial state.
        }
        self.scratch_chain = chain;
        outcome
    }

    /// Reads and decrypts data block `block`, verifying its counter chain up
    /// to the first node held in the on-chip counter cache (the on-chip
    /// root when none is).
    ///
    /// # Errors
    ///
    /// * [`ReadError::Unwritten`] if the block was never written.
    /// * [`ReadError::MetadataTampered`] if a counter image fails to verify.
    /// * [`ReadError::DataTampered`] if the data MAC fails.
    pub fn read(&mut self, block: u64) -> Result<DataBlock, ReadError> {
        let stored = *self.data.get(block).ok_or(ReadError::Unwritten { block })?;
        let l0_idx = self.meta.layout().l0_index(block);
        self.verify_path(l0_idx)?;
        let counter = self.meta.data_counter(block);
        let pads = self.pads_for(block, counter);
        self.crypto.verify_mac();
        // audit:allow(R5, reason = "the MAC verdict is the public accept/reject outcome; branching on it is the tamper-detection contract")
        if !verify_mac(&self.mac_keys, &stored.cipher, pads.mac, stored.mac) {
            return Err(ReadError::DataTampered { block });
        }
        Ok(xor_with_pads(&stored.cipher, &pads))
    }

    // --- tree maintenance -------------------------------------------------

    /// Records a change to node (`level`, `idx`)'s trusted state: bumps its
    /// protecting counter and, recursively, every ancestor's, relevelling
    /// where a counter overflows. Counters move eagerly; images do not: a
    /// changed node whose line is resident is only marked dirty
    /// ([`Self::node_changed`]).
    ///
    /// # Errors
    ///
    /// * [`WriteError::Layout`] if `(level, idx)` is outside the tree — a
    ///   layout bug that must surface, never alias to another node.
    /// * [`WriteError::CounterSaturated`] if a protecting counter has no
    ///   room left in the 56-bit space.
    fn publish_node(&mut self, level: usize, idx: u64) -> Result<(), WriteError> {
        let depth = self.meta.layout().depth();
        let (parent_level, parent_idx) = self.meta.layout().parent_loc(level, idx)?;
        // The node's trusted state has moved; a refusal below leaves its
        // image unpublished, so its line must go. A dirty line is dropped,
        // not written back: its image would be MACed under a counter that
        // already MACed an older image.
        let current = self.meta.node_counter(level, idx);
        let slot = self.meta.layout().parent_slot(idx);
        let Ok(releveled) = self
            .meta
            .advance(parent_level, parent_idx, slot, current + 1, |min| min)
        else {
            self.counter_cache.invalidate(self.node_line(level, idx));
            return Err(WriteError::CounterSaturated { counter: current });
        };
        if releveled.is_some() {
            // Parent relevel: every sibling node image must be re-MACed.
            let arity = self.meta.org().tree_arity() as u64;
            for slot in 0..arity {
                let sibling = parent_idx * arity + slot;
                if sibling != idx && self.stored_node(level, sibling).is_some() {
                    self.node_changed(level, sibling);
                    self.overflow_reencryptions += 1;
                }
            }
        }
        self.node_changed(level, idx);
        // The parent's state changed (its counters moved): publish it too,
        // unless the parent is the on-chip root.
        if parent_level < depth {
            self.publish_node(parent_level, parent_idx)?;
        }
        Ok(())
    }

    /// Node (`level`, `idx`)'s image or protecting counter changed. A
    /// resident line is marked dirty and written back when it leaves the
    /// cache; a node that is not resident is materialized at once, which
    /// keeps the DRAM image of every such node current.
    fn node_changed(&mut self, level: usize, idx: u64) {
        let line = self.node_line(level, idx);
        if !self.counter_cache.mark_dirty(line) {
            self.materialize(level, idx);
        }
    }

    /// Writes back the dirty line of node (`level`, `idx`) as it leaves the
    /// counter cache.
    fn write_back(&mut self, level: usize, idx: u64) {
        self.materialize(level, idx);
        self.counter_cache.stats.writebacks += 1;
    }

    /// Stores node (`level`, `idx`)'s current image and its MAC under the
    /// current protecting counter, paying the MAC pad. Moves no counter.
    fn materialize(&mut self, level: usize, idx: u64) {
        let counter = self.meta.node_counter(level, idx);
        let image = node_image(self.meta.block(level, idx));
        self.crypto.pay(self.pad_cost);
        let node = self.seal_node(level, idx, counter, image);
        self.store_node(level, idx, node);
    }

    /// Node (`level`, `idx`)'s `image` with its MAC under protecting
    /// counter `counter`. Pays nothing: [`Self::materialize`] charges the
    /// pad, [`Self::state_digest`] must not.
    fn seal_node(&self, level: usize, idx: u64, counter: u64, image: DataBlock) -> StoredNode {
        let mac_pad = self.pipeline.mac_pad(self.node_line(level, idx), counter);
        let mac = compute_mac(&self.mac_keys, &image, mac_pad);
        StoredNode { image, mac }
    }

    /// The image and MAC a dirty node (`level`, `idx`) will be written back
    /// with, built from trusted state without touching it. `None` only for
    /// a node whose counter block or parent was never touched, which no
    /// dirty node is.
    fn pending_node(&self, level: usize, idx: u64) -> Option<StoredNode> {
        let layout = self.meta.layout();
        let (parent_level, parent_idx) = layout.parent_loc(level, idx).ok()?;
        let counter = self
            .meta
            .touched_block(parent_level, parent_idx)?
            .value(layout.parent_slot(idx));
        let image = node_image(self.meta.touched_block(level, idx)?);
        Some(self.seal_node(level, idx, counter, image))
    }

    // --- recovery interface ------------------------------------------------

    /// Resets the counter-update policy's transient state (memo table
    /// contents, budget ledger) to its just-built configuration. Trusted
    /// counters, stored ciphertext, and node images are untouched — this is
    /// the memo half of a shard rebuild.
    pub fn reset_policy(&mut self) {
        self.policy.reset();
    }

    /// Asks the policy how many entries it currently knows to be corrupted
    /// (see [`CounterUpdatePolicy::scrub`]). Zero means the policy has no
    /// detected-but-unserved damage.
    pub fn scrub_policy(&mut self) -> u64 {
        self.policy.scrub()
    }

    /// Reconstructs the untrusted integrity-tree image from trusted state
    /// and re-verifies every stored data block's MAC — the deterministic
    /// rebuild pass a quarantined shard runs before readmission.
    ///
    /// Every stored node image is recomputed (and re-MACed) from the
    /// trusted counter tree, wiping any replayed or forged image an
    /// attacker planted. Every stored ciphertext is then re-verified under
    /// its trusted counter; blocks whose MAC fails even there are counted
    /// as unrecoverable (their backing-store image itself is damaged).
    /// The on-chip counter cache is emptied first, dirty bits included (the
    /// re-derivation covers every dirty node), so nothing verified before
    /// the rebuild is trusted after it. Cumulative telemetry (crypto
    /// and counter-cache tallies, overflow counts) still grows — the
    /// rebuild pays real pad and verify work.
    pub fn rebuild(&mut self) -> RebuildReport {
        self.counter_cache.clear();
        let mut report = RebuildReport::default();
        // Phase 1: re-derive every stored node image from trusted state.
        let mut locations: Vec<(usize, u64)> = Vec::new();
        for (level, arena) in self.nodes.iter().enumerate() {
            locations.extend(arena.entries().map(|(idx, _)| (level, idx)));
        }
        for (level, idx) in locations {
            self.materialize(level, idx);
            report.nodes_rebuilt = report.nodes_rebuilt.saturating_add(1);
        }
        // Phase 2: re-verify every stored ciphertext under its trusted
        // counter. (Collected first: pad derivation needs `&mut self`.)
        let blocks: Vec<(u64, StoredData)> = self.data.entries().map(|(b, s)| (b, *s)).collect();
        for (block, stored) in blocks {
            let counter = self.meta.data_counter(block);
            let pads = self.pads_for(block, counter);
            self.crypto.verify_mac();
            // audit:allow(R5, reason = "the MAC verdict is the public accept/reject outcome; branching on it is the tamper-detection contract")
            if verify_mac(&self.mac_keys, &stored.cipher, pads.mac, stored.mac) {
                report.data_verified = report.data_verified.saturating_add(1);
            } else {
                report.data_unrecoverable = report.data_unrecoverable.saturating_add(1);
            }
        }
        report
    }

    /// Order-sensitive fingerprint of the engine's *architectural* state:
    /// the trusted counter tree plus every stored data and node image, a
    /// dirty node's image taken as its pending write-back (built from
    /// trusted state, paying nothing). Cumulative telemetry (crypto
    /// tallies, overflow-re-encryption counts) and the counter cache's
    /// contents are deliberately excluded, so the digest does not depend
    /// on what is cached or when lines are written back, and a rebuilt
    /// shard can be compared byte-for-byte against a never-faulted control
    /// twin whose history differs only in fallback accounting.
    pub fn state_digest(&self) -> u64 {
        let mut acc = self.meta.state_digest();
        for (block, stored) in self.data.entries() {
            acc = splitmix64(acc ^ block);
            for &byte in &stored.cipher {
                acc = acc.rotate_left(8) ^ u64::from(byte);
            }
            acc = splitmix64(acc ^ stored.mac);
        }
        for (level, arena) in self.nodes.iter().enumerate() {
            for (idx, stored) in arena.entries() {
                let pending = if self.counter_cache.is_dirty(self.node_line(level, idx)) {
                    self.pending_node(level, idx)
                } else {
                    None
                };
                let node = pending.as_ref().unwrap_or(stored);
                acc = splitmix64(acc ^ ((level as u64) << 48) ^ idx);
                for &byte in &node.image {
                    acc = acc.rotate_left(8) ^ u64::from(byte);
                }
                acc = splitmix64(acc ^ node.mac);
            }
        }
        splitmix64(acc)
    }

    // --- attacker interface ------------------------------------------------
    //
    // Everything below manipulates only the *untrusted* memory image (stored
    // ciphertexts, MACs, and node images) — exactly what an adversary with
    // bus access controls. The trusted on-chip state (counter tree root,
    // keys) is never touched; that asymmetry is the defense.

    /// The address/coverage layout in use (attackers know the layout).
    pub fn layout(&self) -> &MetadataLayout {
        self.meta.layout()
    }

    /// The Observed-System-Max register value (§IV-D2) — an upper bound on
    /// every data counter in the system.
    pub fn observed_max(&self) -> u64 {
        self.meta.max_observed()
    }

    /// Flips bits in the stored ciphertext of `block` (physical tampering).
    ///
    /// # Errors
    ///
    /// [`TamperError::UnwrittenBlock`] if the block has no stored image;
    /// [`TamperError::OffsetOutOfRange`] if `byte` is past the block.
    #[allow(clippy::cast_possible_truncation)] // BLOCK_BYTES (64) fits any usize
    pub fn tamper_data(&mut self, block: u64, byte: usize, mask: u8) -> Result<(), TamperError> {
        if byte >= BLOCK_BYTES as usize {
            return Err(TamperError::OffsetOutOfRange { byte });
        }
        let stored = self
            .data
            .get_mut(block)
            .ok_or(TamperError::UnwrittenBlock { block })?;
        if let Some(b) = stored.cipher.get_mut(byte) {
            *b ^= mask;
        }
        Ok(())
    }

    /// Corrupts the stored MAC of `block`.
    ///
    /// # Errors
    ///
    /// [`TamperError::UnwrittenBlock`] if the block has no stored image.
    pub fn tamper_mac(&mut self, block: u64, mask: u64) -> Result<(), TamperError> {
        let stored = self
            .data
            .get_mut(block)
            .ok_or(TamperError::UnwrittenBlock { block })?;
        stored.mac ^= mask;
        Ok(())
    }

    /// Captures everything needed to replay `block` later: its ciphertext,
    /// MAC, and the covering counter-block image.
    ///
    /// # Errors
    ///
    /// [`TamperError::UnwrittenBlock`] if the block has no stored image;
    /// [`TamperError::MissingNode`] if its counter block was never written
    /// back (nothing on the bus to capture).
    pub fn snapshot(&self, block: u64) -> Result<ReplaySnapshot, TamperError> {
        let l0_idx = self.meta.layout().l0_index(block);
        Ok(ReplaySnapshot {
            block,
            data: *self
                .data
                .get(block)
                .ok_or(TamperError::UnwrittenBlock { block })?,
            l0: self
                .stored_node(0, l0_idx)
                .copied()
                .ok_or(TamperError::MissingNode {
                    level: 0,
                    index: l0_idx,
                })?,
        })
    }

    /// Replays a snapshot: restores the stale ciphertext, MAC, *and* the
    /// stale counter-block image consistently — the strongest replay an
    /// attacker with full bus access can mount. The integrity tree catches
    /// it because the L1 counter has moved on.
    ///
    /// # Errors
    ///
    /// [`TamperError::MissingNode`] if the snapshot's counter block lies
    /// outside this memory's layout (snapshot from an incompatible memory).
    pub fn replay(&mut self, snapshot: &ReplaySnapshot) -> Result<(), TamperError> {
        let l0_idx = self.meta.layout().l0_index(snapshot.block);
        if l0_idx >= self.meta.layout().level_count(0) {
            return Err(TamperError::MissingNode {
                level: 0,
                index: l0_idx,
            });
        }
        self.store_data(snapshot.block, snapshot.data);
        self.store_node(0, l0_idx, snapshot.l0);
        // The attacker also rolls back the MC's decoded view of the counter
        // (they control the bus, so the MC will decode the stale image).
        // The trusted tree state is NOT rolled back — that is the defense.
        Ok(())
    }

    /// Captures the untrusted image of metadata node (`level`, `index`) —
    /// counter-image rollback raw material.
    ///
    /// # Errors
    ///
    /// [`TamperError::MissingNode`] if the node has no stored image.
    pub fn snapshot_node(&self, level: usize, index: u64) -> Result<NodeSnapshot, TamperError> {
        Ok(NodeSnapshot {
            level,
            index,
            node: self
                .stored_node(level, index)
                .copied()
                .ok_or(TamperError::MissingNode { level, index })?,
        })
    }

    /// Restores a stale node image — a counter-image rollback. The node's
    /// protecting counter (in its parent, or the on-chip root) has moved on,
    /// so subsequent reads under this node fail tree verification.
    pub fn replay_node(&mut self, snapshot: &NodeSnapshot) {
        self.store_node(snapshot.level, snapshot.index, snapshot.node);
    }

    /// Overwrites the stored image of node (`level`, `index`) with a forged
    /// counter block whose every slot reads `value` — e.g. the 56-bit
    /// [`COUNTER_MAX`](rmcc_crypto::otp::COUNTER_MAX) bound, probing for
    /// saturation-handling bugs. The old MAC is kept (or zero for
    /// never-written nodes): the attacker cannot compute a valid MAC for
    /// the forged image.
    ///
    /// # Errors
    ///
    /// [`TamperError::MissingNode`] if `(level, index)` is outside the tree.
    pub fn forge_node_counters(
        &mut self,
        level: usize,
        index: u64,
        value: u64,
    ) -> Result<(), TamperError> {
        let layout = self.meta.layout();
        if level >= layout.depth() || index >= layout.level_count(level) {
            return Err(TamperError::MissingNode { level, index });
        }
        let org = self.meta.org();
        let forged = CounterBlock::with_state(org, value, vec![0; org.coverage()]);
        let mac = self.stored_node(level, index).map_or(0, |n| n.mac);
        let image = node_image(&forged);
        self.store_node(level, index, StoredNode { image, mac });
        Ok(())
    }

    /// Captures the stored (ciphertext, MAC) pair of `block` — the bus image
    /// an attacker sees before suppressing a writeback.
    ///
    /// # Errors
    ///
    /// [`TamperError::UnwrittenBlock`] if the block has no stored image.
    pub fn data_snapshot(&self, block: u64) -> Result<DataSnapshot, TamperError> {
        Ok(DataSnapshot {
            block,
            data: *self
                .data
                .get(block)
                .ok_or(TamperError::UnwrittenBlock { block })?,
        })
    }

    /// Restores a stale data image *without* the counter image — models a
    /// dropped/suppressed data writeback: the counter advanced, the data
    /// did not. The stale ciphertext no longer verifies under the advanced
    /// counter. A snapshot of a block outside this memory's layout restores
    /// nothing.
    pub fn restore_data(&mut self, snapshot: &DataSnapshot) {
        self.store_data(snapshot.block, snapshot.data);
    }

    /// Discards the stored image of `block` entirely — a dropped initial
    /// writeback. A subsequent read finds nothing to verify and reports
    /// [`ReadError::Unwritten`].
    ///
    /// # Errors
    ///
    /// [`TamperError::UnwrittenBlock`] if there was no image to drop.
    pub fn drop_stored(&mut self, block: u64) -> Result<(), TamperError> {
        self.data
            .remove(block)
            .map(|_| ())
            .ok_or(TamperError::UnwrittenBlock { block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_crypto::otp::COUNTER_MAX;

    fn mem(kind: PipelineKind) -> SecureMemory {
        SecureMemory::new(CounterOrg::Morphable128, 1 << 24, kind, 99)
    }

    #[test]
    fn roundtrip_both_pipelines() {
        for kind in [PipelineKind::Sgx, PipelineKind::Rmcc] {
            let mut m = mem(kind);
            let pt = [0x5au8; 64];
            m.write(3, pt).unwrap();
            assert_eq!(m.read(3).unwrap(), pt, "{:?}", kind);
        }
    }

    #[test]
    fn rewrite_changes_counter_and_still_roundtrips() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(3, [1u8; 64]).unwrap();
        let c1 = m.counter_of(3);
        m.write(3, [2u8; 64]).unwrap();
        let c2 = m.counter_of(3);
        assert!(c2 > c1);
        assert_eq!(m.read(3).unwrap(), [2u8; 64]);
    }

    #[test]
    fn unwritten_read_errors() {
        let mut m = mem(PipelineKind::Rmcc);
        assert_eq!(m.read(9), Err(ReadError::Unwritten { block: 9 }));
    }

    #[test]
    fn data_tampering_detected() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [7u8; 64]).unwrap();
        m.tamper_data(5, 17, 0x40).unwrap();
        assert_eq!(m.read(5), Err(ReadError::DataTampered { block: 5 }));
    }

    #[test]
    fn mac_tampering_detected() {
        let mut m = mem(PipelineKind::Sgx);
        m.write(5, [7u8; 64]).unwrap();
        m.tamper_mac(5, 1).unwrap();
        assert_eq!(m.read(5), Err(ReadError::DataTampered { block: 5 }));
    }

    #[test]
    fn replay_attack_detected_by_tree() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [0x11u8; 64]).unwrap();
        let stale = m.snapshot(5).unwrap();
        m.write(5, [9u8; 64]).unwrap(); // victim updates the block
        m.replay(&stale).unwrap(); // attacker restores old cipher+mac+counter image
        let err = m.read(5).unwrap_err();
        assert!(
            matches!(err, ReadError::MetadataTampered { level: 0 }),
            "replay must fail tree verification, got {err:?}"
        );
    }

    #[test]
    fn sibling_blocks_unaffected_by_writes() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(0, [1u8; 64]).unwrap();
        m.write(1, [2u8; 64]).unwrap();
        m.write(0, [3u8; 64]).unwrap();
        assert_eq!(m.read(1).unwrap(), [2u8; 64]);
        assert_eq!(m.read(0).unwrap(), [3u8; 64]);
    }

    #[test]
    fn many_blocks_roundtrip() {
        let mut m = mem(PipelineKind::Rmcc);
        for b in 0..300u64 {
            let mut pt = [0u8; 64];
            pt[0] = b as u8;
            pt[63] = (b >> 8) as u8;
            m.write(b * 17 % 4096, pt).unwrap();
        }
        for b in (0..300u64).rev() {
            let got = m.read(b * 17 % 4096).unwrap();
            assert_eq!(got[0], b as u8);
        }
    }

    #[test]
    fn tampering_unwritten_state_reports_errors_not_panics() {
        let mut m = mem(PipelineKind::Rmcc);
        assert_eq!(
            m.tamper_data(9, 0, 1),
            Err(TamperError::UnwrittenBlock { block: 9 })
        );
        assert_eq!(
            m.tamper_mac(9, 1),
            Err(TamperError::UnwrittenBlock { block: 9 })
        );
        assert!(m.snapshot(9).is_err());
        assert!(m.snapshot_node(0, 0).is_err());
        assert!(m.data_snapshot(9).is_err());
        assert_eq!(
            m.drop_stored(9),
            Err(TamperError::UnwrittenBlock { block: 9 })
        );
        m.write(9, [1u8; 64]).unwrap();
        assert_eq!(
            m.tamper_data(9, 64, 1),
            Err(TamperError::OffsetOutOfRange { byte: 64 })
        );
    }

    #[test]
    fn out_of_capacity_write_is_a_layout_error() {
        let mut m = mem(PipelineKind::Rmcc);
        let capacity = m.layout().data_blocks();
        let err = m.write(capacity, [0u8; 64]).unwrap_err();
        assert_eq!(
            err,
            WriteError::Layout(LayoutError::DataBlockOutOfRange {
                block: capacity,
                capacity,
            })
        );
    }

    #[test]
    fn counter_rollback_via_node_snapshot_detected() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [1u8; 64]).unwrap();
        let l0 = m.layout().l0_index(5);
        let stale = m.snapshot_node(0, l0).unwrap();
        m.write(5, [2u8; 64]).unwrap();
        m.replay_node(&stale);
        assert_eq!(m.read(5), Err(ReadError::MetadataTampered { level: 0 }));
        // Rewriting republishes a fresh image; the block recovers.
        m.write(5, [3u8; 64]).unwrap();
        assert_eq!(m.read(5).unwrap(), [3u8; 64]);
    }

    #[test]
    fn dropped_data_writeback_detected() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [1u8; 64]).unwrap();
        let stale = m.data_snapshot(5).unwrap();
        m.write(5, [2u8; 64]).unwrap();
        m.restore_data(&stale); // the new data writeback never landed
        assert_eq!(m.read(5), Err(ReadError::DataTampered { block: 5 }));
    }

    #[test]
    fn dropped_initial_writeback_reads_unwritten() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [1u8; 64]).unwrap();
        m.drop_stored(5).unwrap();
        assert_eq!(m.read(5), Err(ReadError::Unwritten { block: 5 }));
    }

    #[test]
    fn forged_counter_image_at_max_detected_without_panic() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [1u8; 64]).unwrap();
        let l0 = m.layout().l0_index(5);
        for forged in [m.observed_max() + 1, COUNTER_MAX] {
            m.forge_node_counters(0, l0, forged).unwrap();
            assert_eq!(m.read(5), Err(ReadError::MetadataTampered { level: 0 }));
        }
        // Outside the tree: error, not panic or aliasing.
        let depth = m.layout().depth();
        assert_eq!(
            m.forge_node_counters(depth, 0, 1),
            Err(TamperError::MissingNode {
                level: depth,
                index: 0
            })
        );
    }

    #[test]
    fn crypto_stats_tally_writes_reads_and_verifies() {
        let mut m = mem(PipelineKind::Rmcc);
        assert_eq!(m.crypto_stats(), CryptoStats::default());
        m.write(3, [1u8; 64]).unwrap();
        let after_write = m.crypto_stats();
        assert!(after_write.aes_paid > 0, "writes pay for pads");
        assert!(after_write.clmul_ops > 0, "split pipeline combines");
        assert_eq!(after_write.mac_verifies, 0, "writes verify nothing");
        m.read(3).unwrap();
        let after_read = m.crypto_stats();
        assert_eq!(
            after_read.mac_verifies,
            m.layout().depth() as u64 + 1,
            "the first read after a write verifies the tree chain plus the data block"
        );
        assert!(after_read.aes_paid > after_write.aes_paid);
        assert_eq!(
            after_read.aes_saved, 0,
            "the functional engine has no memoization table"
        );
        // The second read stops at the cached L0 node: one pad and one MAC
        // verify, both for the data block.
        let cache_before = m.counter_cache_stats();
        m.read(3).unwrap();
        let again = m.crypto_stats();
        assert_eq!(
            again.aes_paid - after_read.aes_paid,
            CryptoCost::rmcc_block().aes
        );
        assert_eq!(again.mac_verifies - after_read.mac_verifies, 1);
        let cache = m.counter_cache_stats();
        assert_eq!(cache.hits - cache_before.hits, 1);
        assert_eq!(cache.misses, cache_before.misses);
        assert_eq!(cache.accesses, cache.hits + cache.misses);
        // The baseline pipeline performs no combines.
        let mut s = mem(PipelineKind::Sgx);
        s.write(3, [1u8; 64]).unwrap();
        s.read(3).unwrap();
        assert_eq!(s.crypto_stats().clmul_ops, 0);
        assert!(s.crypto_stats().mac_verifies > 0);
    }

    /// A policy that jumps straight to the 56-bit bound to probe saturation.
    struct SaturatingPolicy;
    impl CounterUpdatePolicy for SaturatingPolicy {
        fn bump(&mut self, current: u64) -> u64 {
            (current + 1).max(COUNTER_MAX + 1)
        }
        fn relevel_target(&mut self, min_target: u64) -> u64 {
            min_target
        }
    }

    #[test]
    fn saturated_counter_fails_write_safely() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [1u8; 64]).unwrap();
        let mut sat = SecureMemory::with_policy(
            CounterOrg::Morphable128,
            1 << 24,
            PipelineKind::Rmcc,
            99,
            Box::new(SaturatingPolicy),
        );
        // First write under the saturating policy is refused up front…
        let err = sat.write(5, [2u8; 64]).unwrap_err();
        assert!(matches!(err, WriteError::CounterSaturated { .. }));
        // …and refusal is fail-safe: nothing was stored, nothing corrupted.
        assert_eq!(sat.read(5), Err(ReadError::Unwritten { block: 5 }));
    }

    #[test]
    fn ancestor_replay_under_a_cached_node_is_caught_on_refetch() {
        let org = CounterOrg::Morphable128;
        let mut m = SecureMemory::new(org, 1 << 26, PipelineKind::Rmcc, 99);
        let coverage = org.coverage() as u64;
        // `a` and `b` sit under different L0 nodes below the same L1 node.
        let (a, b) = (5, coverage + 5);
        let l0a = m.layout().l0_index(a);
        let l1 = m.layout().parent_index(0, l0a).unwrap();
        assert_ne!(m.layout().l0_index(b), l0a);
        assert_eq!(m.layout().parent_index(0, m.layout().l0_index(b)), Some(l1));
        m.write(a, [1u8; 64]).unwrap();
        m.write(b, [2u8; 64]).unwrap();
        let stale = m.snapshot_node(1, l1).unwrap();
        m.write(a, [3u8; 64]).unwrap();
        assert_eq!(m.read(a).unwrap(), [3u8; 64], "caches a's chain");
        m.replay_node(&stale);
        // The cached L0 node still vouches for `a`: its last write, never
        // stale plaintext.
        for _ in 0..2 {
            assert_eq!(m.read(a).unwrap(), [3u8; 64]);
        }
        // A walk that reaches the replayed L1 node catches it.
        assert_eq!(m.read(b), Err(ReadError::MetadataTampered { level: 1 }));
        // Reads under L0 nodes in a's set (and under other L1 nodes) evict
        // a's L0 node; the refetch reaches the replayed L1 node.
        let sets = (COUNTER_CACHE_LINES / COUNTER_CACHE_WAYS) as u64;
        let stride = sets.max(coverage);
        for k in 1..=COUNTER_CACHE_WAYS as u64 {
            let victim = (l0a + k * stride) * coverage;
            m.write(victim, [4u8; 64]).unwrap();
            assert_eq!(m.read(victim).unwrap(), [4u8; 64]);
        }
        assert!(
            m.counter_cache.tags.find(m.node_line(0, l0a)).is_none(),
            "a's L0 was evicted"
        );
        assert_eq!(m.read(a), Err(ReadError::MetadataTampered { level: 1 }));
    }

    #[test]
    fn counter_cache_holds_table_one_node_copies() {
        let org = CounterOrg::Morphable128;
        let mut m = SecureMemory::new(org, 1 << 26, PipelineKind::Rmcc, 99);
        let cache = &m.counter_cache;
        assert_eq!(cache.copies.len(), COUNTER_CACHE_LINES);
        assert_eq!(cache.copies.len(), cache.tags.capacity_lines());
        // 2,048 lines of 64 B images (128 KiB) plus their 8 B MACs.
        let on_chip = 128 * 1024 + 16 * 1024;
        assert_eq!(cache.footprint_bytes(), on_chip);
        // L0 nodes 64 apart share a set: one more than the set's ways
        // forces fills into slots whose lines were evicted.
        let sets = (COUNTER_CACHE_LINES / COUNTER_CACHE_WAYS) as u64;
        let blocks: Vec<u64> = (0..=COUNTER_CACHE_WAYS as u64)
            .map(|k| k * sets * org.coverage() as u64)
            .collect();
        for &block in &blocks {
            m.write(block, [1u8; 64]).unwrap();
            m.read(block).unwrap();
        }
        assert!(m.counter_cache.tags.find(m.node_line(0, 0)).is_none());
        // Every node read last still hits on its copy, whichever slot the
        // fill reused.
        for &block in blocks.iter().rev().take(4) {
            let before = m.counter_cache_stats();
            assert_eq!(m.read(block).unwrap(), [1u8; 64]);
            let after = m.counter_cache_stats();
            assert_eq!(after.hits, before.hits + 1, "block {block}");
            assert_eq!(after.misses, before.misses, "block {block}");
        }
        // Reads fill lines but never grow the on-chip state.
        assert_eq!(m.counter_cache.footprint_bytes(), on_chip);

        // One scan per lookup keeps the hit rule's LRU effects: a clean
        // line whose copy differs from DRAM misses and keeps its place as
        // the set's next victim, and a hit moves its line behind the rest.
        let mut cache = CounterCache::new();
        let node = |b: u8| StoredNode {
            image: [b; 64],
            mac: u64::from(b),
        };
        let lines: Vec<u64> = (0..COUNTER_CACHE_WAYS as u64 + 2)
            .map(|k| k * sets)
            .collect();
        for (b, &line) in (0u8..).zip(&lines[..COUNTER_CACHE_WAYS]) {
            assert_eq!(cache.fill(line, node(b)), None);
        }
        assert!(!cache.lookup(lines[0], Some(&node(99))));
        assert!(!cache.lookup(lines[0], None));
        assert!(cache.lookup(lines[1], Some(&node(1))));
        assert_eq!(cache.stats.hits, 1);
        assert_eq!(cache.stats.misses, 2);
        cache.fill(lines[COUNTER_CACHE_WAYS], node(200));
        assert!(cache.tags.find(lines[0]).is_none(), "the miss kept LRU");
        cache.fill(lines[COUNTER_CACHE_WAYS + 1], node(201));
        assert!(cache.tags.find(lines[1]).is_some(), "the hit refreshed");
        assert!(cache.tags.find(lines[2]).is_none());
    }

    #[test]
    fn saturated_publish_drops_the_stale_copy() {
        // Park L0 node 0's protecting counter at the 56-bit bound, so the
        // next publish of that node is refused after its state moved.
        let mut m = mem(PipelineKind::Rmcc);
        m.write(0, [1u8; 64]).unwrap();
        m.write(1, [2u8; 64]).unwrap();
        let (parent_level, parent_idx) = m.layout().parent_loc(0, 0).unwrap();
        let park = |m: &mut SecureMemory, to| {
            m.meta
                .with_block_mut(parent_level, parent_idx, |cb| cb.relevel(to))
                .unwrap();
        };
        park(&mut m, COUNTER_MAX);
        m.rebuild();
        assert_eq!(m.read(0).unwrap(), [1u8; 64], "caches L0 node 0");
        assert!(matches!(
            m.write(1, [3u8; 64]),
            Err(WriteError::CounterSaturated { .. })
        ));
        // Node 0's image now lags its trusted state: the uncached walk
        // reports it, and the cached engine must not serve a hit instead.
        assert!(m.counter_cache.tags.find(m.node_line(0, 0)).is_none());
        assert_eq!(m.read(0), Err(ReadError::MetadataTampered { level: 0 }));

        // The same refusal with node 0's line dirty: the line is dropped,
        // not written back, since writing it back would MAC a new image
        // under the counter that MACed the last one.
        let mut m = mem(PipelineKind::Rmcc);
        m.write(0, [1u8; 64]).unwrap();
        m.write(1, [2u8; 64]).unwrap();
        park(&mut m, COUNTER_MAX - 1);
        m.rebuild();
        assert_eq!(m.read(0).unwrap(), [1u8; 64], "caches L0 node 0");
        m.write(1, [3u8; 64]).unwrap();
        assert!(m.counter_cache.is_dirty(m.node_line(0, 0)));
        assert!(matches!(
            m.write(1, [4u8; 64]),
            Err(WriteError::CounterSaturated { .. })
        ));
        assert!(m.counter_cache.tags.find(m.node_line(0, 0)).is_none());
        let writebacks = m.counter_cache_stats().writebacks;
        m.flush_counter_cache();
        assert_eq!(
            m.counter_cache_stats().writebacks - writebacks,
            m.layout().depth() as u64 - 1,
            "only the ancestors are written back"
        );
        assert_eq!(m.read(0), Err(ReadError::MetadataTampered { level: 0 }));
    }

    #[test]
    fn replay_under_a_dirty_node_is_masked_until_the_write_back() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(5, [1u8; 64]).unwrap();
        assert_eq!(m.read(5).unwrap(), [1u8; 64], "caches the L0 node");
        let l0 = m.layout().l0_index(5);
        let stale = m.snapshot_node(0, l0).unwrap();
        m.write(5, [2u8; 64]).unwrap();
        assert!(m.counter_cache.is_dirty(m.node_line(0, l0)));
        m.replay_node(&stale);
        // The dirty line is trusted like the root: the image replayed
        // under it is dead and never served.
        for _ in 0..2 {
            assert_eq!(m.read(5).unwrap(), [2u8; 64]);
        }
        m.flush_counter_cache();
        assert_ne!(
            m.snapshot_node(0, l0).unwrap().node,
            stale.node,
            "the write-back overwrote the replayed image"
        );
        assert_eq!(m.read(5).unwrap(), [2u8; 64]);
        m.replay_node(&stale);
        assert_eq!(m.read(5), Err(ReadError::MetadataTampered { level: 0 }));
    }

    #[test]
    fn flush_writes_back_each_dirty_line_once() {
        let org = CounterOrg::Morphable128;
        let mut m = SecureMemory::new(org, 1 << 26, PipelineKind::Rmcc, 99);
        let pad = CryptoCost::rmcc_block().aes;
        // N blocks under N distinct L0 nodes of one L1 node.
        let n = 8u64;
        let blocks: Vec<u64> = (0..n).map(|k| k * org.coverage() as u64).collect();
        for &block in &blocks {
            m.write(block, [1u8; 64]).unwrap();
            assert_eq!(m.read(block).unwrap(), [1u8; 64]);
        }
        let before = m.crypto_stats().aes_paid;
        for &block in &blocks {
            m.write(block, [2u8; 64]).unwrap();
        }
        let written = m.crypto_stats().aes_paid;
        assert_eq!(written - before, n * pad, "writes pay only data pads");
        // The N L0 lines are dirty, and so is one shared ancestor per
        // level above them.
        let dirty = n + m.layout().depth() as u64 - 1;
        let writebacks = m.counter_cache_stats().writebacks;
        m.flush_counter_cache();
        let flushed = m.counter_cache_stats().writebacks;
        assert_eq!(flushed - writebacks, dirty);
        assert_eq!(m.crypto_stats().aes_paid - written, dirty * pad);
        m.flush_counter_cache();
        assert_eq!(m.counter_cache_stats().writebacks, flushed);
        assert_eq!(m.crypto_stats().aes_paid, written + dirty * pad);
        for &block in &blocks {
            assert_eq!(m.read(block).unwrap(), [2u8; 64]);
        }
    }

    /// One step of the differential oracle's operation stream.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Write(u64, u8),
        WriteBaseline(u64, u8),
        Read(u64),
        /// Reads every oracle block in order; the L0 nodes of the second
        /// half outnumber a set's ways, so the sweep evicts.
        Sweep,
        TamperData(u64, usize, u8),
        TamperMac(u64, u64),
        SnapshotL0(u64),
        ReplayL0,
        ForgeL0(u64, usize),
        Snapshot(u64),
        Replay,
        DataSnapshot(u64),
        RestoreData,
        Drop(u64),
        Rebuild,
    }

    /// What one op returned, compared between the two engines.
    #[derive(Debug, PartialEq, Eq)]
    enum Seen {
        Read(Result<DataBlock, ReadError>),
        Sweep(Vec<Result<DataBlock, ReadError>>),
        Write(Result<(), WriteError>),
        Tamper(Result<(), TamperError>),
        Rebuild(RebuildReport),
        Done,
    }

    /// How many blocks the oracle addresses.
    const ORACLE_BLOCKS: u64 = 96;

    /// The oracle's blocks: a hot range sharing a few L0 nodes, and blocks
    /// whose L0 nodes all fall in one counter-cache set, so reads evict.
    fn oracle_block(org: CounterOrg, sel: u64) -> u64 {
        let sets = (COUNTER_CACHE_LINES / COUNTER_CACHE_WAYS) as u64;
        if sel < 48 {
            sel * 3
        } else {
            (sel - 48) * sets * org.coverage() as u64 + sel % 2
        }
    }

    fn oracle_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let block = || 0..ORACLE_BLOCKS;
        prop_oneof![
            (block(), any::<u8>()).prop_map(|(b, v)| Op::Write(b, v)),
            (block(), any::<u8>()).prop_map(|(b, v)| Op::Write(b, v)),
            (block(), any::<u8>()).prop_map(|(b, v)| Op::WriteBaseline(b, v)),
            block().prop_map(Op::Read),
            block().prop_map(Op::Read),
            block().prop_map(Op::Read),
            block().prop_map(Op::Read),
            block().prop_map(Op::Read),
            block().prop_map(Op::Read),
            block().prop_map(Op::Read),
            block().prop_map(Op::Read),
            Just(Op::Sweep),
            (block(), 0usize..64, 1u8..=255).prop_map(|(b, o, m)| Op::TamperData(b, o, m)),
            (block(), 1u64..=u64::MAX).prop_map(|(b, m)| Op::TamperMac(b, m)),
            block().prop_map(Op::SnapshotL0),
            Just(Op::ReplayL0),
            (block(), 0usize..3).prop_map(|(b, v)| Op::ForgeL0(b, v)),
            block().prop_map(Op::Snapshot),
            Just(Op::Replay),
            block().prop_map(Op::DataSnapshot),
            Just(Op::RestoreData),
            block().prop_map(Op::Drop),
            Just(Op::Rebuild),
        ]
    }

    /// A constant strategy (the compat shim has no `Just`).
    struct Just(Op);
    impl proptest::strategy::Strategy for Just {
        type Value = Op;
        fn sample(&self, _: &mut proptest::test_runner::TestRng) -> Op {
            self.0
        }
    }

    /// One engine under the oracle, with the attacker's captured images.
    struct Rig {
        mem: SecureMemory,
        node: Option<NodeSnapshot>,
        replay: Option<ReplaySnapshot>,
        data: Option<DataSnapshot>,
    }

    impl Rig {
        /// An engine with every oracle block written once, so reads walk
        /// from the first op on.
        fn new(org: CounterOrg, kind: PipelineKind, saturating: bool) -> Self {
            let policy: Box<dyn CounterUpdatePolicy> = if saturating {
                Box::new(SaturatingPolicy)
            } else {
                Box::new(IncrementPolicy)
            };
            let mut mem = SecureMemory::with_policy(org, 1 << 25, kind, 99, policy);
            for sel in 0..ORACLE_BLOCKS {
                mem.write_baseline(oracle_block(org, sel), [sel as u8; 64])
                    .unwrap();
            }
            Rig {
                mem,
                node: None,
                replay: None,
                data: None,
            }
        }

        /// Applies `op`. An op that captures or overwrites a node image
        /// first flushes the counter cache: the attacker sees a node's
        /// image only once its line is written back.
        fn apply(&mut self, op: Op) -> Seen {
            let org = self.mem.meta.org();
            let block = |sel| oracle_block(org, sel);
            let l0 = |mem: &SecureMemory, sel| mem.layout().l0_index(block(sel));
            let m = &mut self.mem;
            if matches!(
                op,
                Op::SnapshotL0(_) | Op::ReplayL0 | Op::ForgeL0(..) | Op::Snapshot(_) | Op::Replay
            ) {
                m.flush_counter_cache();
            }
            match op {
                Op::Write(b, v) => Seen::Write(m.write(block(b), [v; 64])),
                Op::WriteBaseline(b, v) => Seen::Write(m.write_baseline(block(b), [v; 64])),
                Op::Read(b) => Seen::Read(m.read(block(b))),
                Op::Sweep => Seen::Sweep((0..ORACLE_BLOCKS).map(|b| m.read(block(b))).collect()),
                Op::TamperData(b, o, mask) => Seen::Tamper(m.tamper_data(block(b), o, mask)),
                Op::TamperMac(b, mask) => Seen::Tamper(m.tamper_mac(block(b), mask)),
                Op::SnapshotL0(b) => {
                    let snap = m.snapshot_node(0, l0(m, b));
                    let seen = Seen::Tamper(snap.as_ref().map(|_| ()).map_err(|e| *e));
                    self.node = snap.ok().or(self.node.take());
                    seen
                }
                Op::ReplayL0 => {
                    if let Some(snap) = &self.node {
                        m.replay_node(snap);
                    }
                    Seen::Done
                }
                Op::ForgeL0(b, which) => {
                    let value = [1, m.observed_max() + 1, COUNTER_MAX][which];
                    Seen::Tamper(m.forge_node_counters(0, l0(m, b), value))
                }
                Op::Snapshot(b) => {
                    let snap = m.snapshot(block(b));
                    let seen = Seen::Tamper(snap.as_ref().map(|_| ()).map_err(|e| *e));
                    self.replay = snap.ok().or(self.replay.take());
                    seen
                }
                Op::Replay => match &self.replay {
                    Some(snap) => Seen::Tamper(m.replay(snap)),
                    None => Seen::Done,
                },
                Op::DataSnapshot(b) => {
                    let snap = m.data_snapshot(block(b));
                    let seen = Seen::Tamper(snap.map(|_| ()));
                    self.data = snap.ok().or(self.data.take());
                    seen
                }
                Op::RestoreData => {
                    if let Some(snap) = &self.data {
                        m.restore_data(snap);
                    }
                    Seen::Done
                }
                Op::Drop(b) => Seen::Tamper(m.drop_stored(block(b))),
                Op::Rebuild => Seen::Rebuild(m.rebuild()),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(10))]
        /// The lazy engine against a twin that flushes after every op, and
        /// so publishes write-through and reads uncached: the same result
        /// and the same `state_digest` after every op, for no more AES.
        #[test]
        fn counter_cache_matches_the_uncached_walk(
            ops in proptest::collection::vec(oracle_op(), 20..160),
            saturating in proptest::arbitrary::any::<bool>(),
        ) {
            for org in [CounterOrg::Mono8, CounterOrg::Sc64, CounterOrg::Morphable128] {
                for kind in [PipelineKind::Sgx, PipelineKind::Rmcc] {
                    let mut lazy = Rig::new(org, kind, saturating);
                    let mut twin = Rig::new(org, kind, saturating);
                    for &op in &ops {
                        let expect = twin.apply(op);
                        twin.mem.flush_counter_cache();
                        proptest::prop_assert_eq!(
                            lazy.apply(op),
                            expect,
                            "{:?} {:?} {:?}",
                            org,
                            kind,
                            op
                        );
                        proptest::prop_assert_eq!(
                            lazy.mem.state_digest(),
                            twin.mem.state_digest(),
                            "{:?} {:?} {:?}",
                            org,
                            kind,
                            op
                        );
                    }
                    proptest::prop_assert!(
                        twin.mem.crypto_stats().aes_paid >= lazy.mem.crypto_stats().aes_paid
                    );
                }
            }
        }

        /// Flushing the counter cache at any point changes no result and
        /// no `state_digest`.
        #[test]
        fn flushes_at_random_points_change_nothing(
            ops in proptest::collection::vec(
                (oracle_op(), proptest::arbitrary::any::<bool>()),
                20..160,
            ),
        ) {
            for org in [CounterOrg::Mono8, CounterOrg::Sc64, CounterOrg::Morphable128] {
                let mut plain = Rig::new(org, PipelineKind::Rmcc, false);
                let mut flushed = Rig::new(org, PipelineKind::Rmcc, false);
                for &(op, flush) in &ops {
                    if flush {
                        flushed.mem.flush_counter_cache();
                    }
                    proptest::prop_assert_eq!(
                        flushed.apply(op),
                        plain.apply(op),
                        "{:?} {:?}",
                        org,
                        op
                    );
                    proptest::prop_assert_eq!(
                        flushed.mem.state_digest(),
                        plain.mem.state_digest(),
                        "{:?} {:?}",
                        org,
                        op
                    );
                }
            }
        }
    }

    #[test]
    fn write_baseline_matches_increment_policy_writes() {
        // A baseline write on any engine behaves exactly like a policy
        // write on an IncrementPolicy engine: same counters, same stored
        // images, same digest.
        let mut a = mem(PipelineKind::Rmcc);
        let mut b = mem(PipelineKind::Rmcc);
        for round in 0..3u8 {
            for block in [0u64, 1, 7, 130] {
                let pt = [round ^ block as u8; 64];
                a.write(block, pt).unwrap();
                b.write_baseline(block, pt).unwrap();
            }
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.counter_of(7), b.counter_of(7));
        assert_eq!(b.read(130).unwrap(), [2 ^ 130u8; 64]);
    }

    #[test]
    fn state_digest_tracks_architectural_state_not_telemetry() {
        let mut a = mem(PipelineKind::Rmcc);
        let mut b = mem(PipelineKind::Rmcc);
        assert_eq!(a.state_digest(), b.state_digest(), "fresh twins agree");
        a.write(3, [1u8; 64]).unwrap();
        assert_ne!(a.state_digest(), b.state_digest(), "a write is visible");
        b.write(3, [1u8; 64]).unwrap();
        let agreed = a.state_digest();
        assert_eq!(agreed, b.state_digest(), "same history, same digest");
        // Reads pay crypto cost but change no architectural state.
        a.read(3).unwrap();
        a.read(3).unwrap();
        assert_eq!(a.state_digest(), agreed, "telemetry is excluded");
        // Tampering with the untrusted image is visible.
        a.tamper_mac(3, 1).unwrap();
        assert_ne!(a.state_digest(), agreed);
    }

    #[test]
    fn rebuild_heals_replayed_and_forged_node_images() {
        let mut m = mem(PipelineKind::Rmcc);
        let mut twin = mem(PipelineKind::Rmcc);
        for blk in [0u64, 5, 9, 200] {
            m.write(blk, [blk as u8; 64]).unwrap();
            twin.write(blk, [blk as u8; 64]).unwrap();
        }
        let l0 = m.layout().l0_index(5);
        let stale = m.snapshot_node(0, l0).unwrap();
        m.write(5, [0x44u8; 64]).unwrap();
        twin.write(5, [0x44u8; 64]).unwrap();
        m.replay_node(&stale);
        m.forge_node_counters(0, m.layout().l0_index(200), COUNTER_MAX)
            .unwrap();
        assert_eq!(m.read(5), Err(ReadError::MetadataTampered { level: 0 }));
        assert_ne!(m.state_digest(), twin.state_digest());

        let report = m.rebuild();
        assert!(report.is_clean(), "backing store was never touched");
        assert_eq!(report.data_verified, 4);
        assert!(report.nodes_rebuilt > 0);
        assert_eq!(
            m.state_digest(),
            twin.state_digest(),
            "rebuilt state is byte-identical to the never-faulted twin"
        );
        for blk in [0u64, 9, 200] {
            assert_eq!(m.read(blk).unwrap(), [blk as u8; 64]);
        }
        assert_eq!(m.read(5).unwrap(), [0x44u8; 64]);
    }

    #[test]
    fn rebuild_counts_damaged_ciphertext_as_unrecoverable() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(1, [1u8; 64]).unwrap();
        m.write(2, [2u8; 64]).unwrap();
        m.tamper_data(2, 0, 0xff).unwrap();
        let report = m.rebuild();
        assert!(!report.is_clean());
        assert_eq!(report.data_verified, 1);
        assert_eq!(report.data_unrecoverable, 1);
        // The undamaged block still reads; the damaged one still fails.
        assert_eq!(m.read(1).unwrap(), [1u8; 64]);
        assert_eq!(m.read(2), Err(ReadError::DataTampered { block: 2 }));
    }

    #[test]
    fn default_policy_reset_and_scrub_are_noops() {
        let mut m = mem(PipelineKind::Rmcc);
        m.write(3, [7u8; 64]).unwrap();
        let before = m.state_digest();
        m.reset_policy();
        assert_eq!(m.scrub_policy(), 0);
        assert_eq!(m.state_digest(), before);
    }
}
